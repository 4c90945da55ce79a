package prune

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/stats"
	"blast/internal/weights"
)

// muster returns an unwrapper for a decision's (pairs, error) return;
// the background context never cancels, so an error is a test bug.
func muster(t *testing.T) func([]model.IDPair, error) []model.IDPair {
	return func(pairs []model.IDPair, err error) []model.IDPair {
		t.Helper()
		if err != nil {
			t.Fatalf("unexpected pruning error: %v", err)
		}
		return pairs
	}
}

func comparePairs(t *testing.T, label string, want, got []model.IDPair) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: pair %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// edgeList is the weighted blocking graph as a plain edge list: every
// canonical edge (u < v) in ascending (u, v) order, with the incident
// edge indexes of each node listed by ascending neighbor.
type edgeList struct {
	n      int
	edges  []wedge
	adj    [][]int
	counts []int32
}

func edgeListOf(g *graph.CSR) *edgeList {
	l := &edgeList{n: g.NumProfiles, adj: make([][]int, g.NumProfiles), counts: g.BlockCounts}
	for u := 0; u < g.NumProfiles; u++ {
		nbr, wts := g.Run(u)
		for i, v := range nbr {
			if int(v) > u {
				l.edges = append(l.edges, wedge{U: int32(u), V: v, Weight: wts[i]})
			}
		}
	}
	for i, e := range l.edges {
		l.adj[e.U] = append(l.adj[e.U], i)
		l.adj[e.V] = append(l.adj[e.V], i)
	}
	return l
}

// kept lists the edges that keep marks, dropping zero and negative
// weights, in canonical order.
func (l *edgeList) kept(keep func(i int, e wedge) bool) []model.IDPair {
	var out []model.IDPair
	for i, e := range l.edges {
		if e.Weight > 0 && keep(i, e) {
			out = append(out, model.IDPair{U: e.U, V: e.V})
		}
	}
	return out
}

// thresholds reduces each non-isolated node's incident weights, in
// ascending neighbor order, to one threshold.
func (l *edgeList) thresholds(reduce func(ws []float64) float64) []float64 {
	th := make([]float64, l.n)
	for n, inc := range l.adj {
		if len(inc) == 0 {
			continue
		}
		ws := make([]float64, len(inc))
		for j, i := range inc {
			ws[j] = l.edges[i].Weight
		}
		th[n] = reduce(ws)
	}
	return th
}

// resolve combines the two endpoints' verdicts: both for the
// reciprocal schemes (WNP2, CNP2), either for the redefined ones.
func resolve(reciprocal, a, b bool) bool {
	if reciprocal {
		return a && b
	}
	return a || b
}

// wep keeps the edges at or above the mean weight; the mean's numerator
// is summed per smaller-endpoint row and folded by FoldRowSums.
func (l *edgeList) wep() []model.IDPair {
	sums := make([]float64, l.n)
	counts := make([]int64, l.n)
	for _, e := range l.edges {
		sums[e.U] += e.Weight
		counts[e.U]++
	}
	total, ne := FoldRowSums(sums, counts)
	return l.kept(func(_ int, e wedge) bool { return e.Weight >= total/float64(ne) })
}

func (l *edgeList) cep(k int) []model.IDPair {
	if k <= 0 {
		k = CEPBudget(l.counts)
	}
	return referenceCEP(l.edges, k)
}

func (l *edgeList) wnp(reciprocal bool) []model.IDPair {
	th := l.thresholds(func(ws []float64) float64 {
		s := 0.0
		for _, x := range ws {
			s += x
		}
		return s / float64(len(ws))
	})
	return l.kept(func(_ int, e wedge) bool {
		return resolve(reciprocal, e.Weight >= th[e.U], e.Weight >= th[e.V])
	})
}

// cnp keeps an edge when it is in the top-k list (stable descending
// sort over ascending neighbors) of one (redefined) or both
// (reciprocal) endpoints.
func (l *edgeList) cnp(k int, reciprocal bool) []model.IDPair {
	if k <= 0 {
		k = CNPBudget(l.counts)
	}
	top := make([][2]bool, len(l.edges))
	for n, inc := range l.adj {
		order := append([]int(nil), inc...)
		sort.SliceStable(order, func(a, b int) bool { return l.edges[order[a]].Weight > l.edges[order[b]].Weight })
		for _, i := range order[:min(k, len(order))] {
			if int(l.edges[i].U) == n {
				top[i][0] = true
			} else {
				top[i][1] = true
			}
		}
	}
	return l.kept(func(i int, _ wedge) bool { return resolve(reciprocal, top[i][0], top[i][1]) })
}

// blastWNP keeps the edges at or above (theta_u + theta_v) / d, where
// theta_n is node n's maximum incident weight divided by c.
func (l *edgeList) blastWNP(c, d float64) []model.IDPair {
	th := l.thresholds(func(ws []float64) float64 {
		m := ws[0]
		for _, x := range ws {
			m = max(m, x)
		}
		return m / c
	})
	return l.kept(func(_ int, e wedge) bool { return e.Weight >= (th[e.U]+th[e.V])/d })
}

// TestStreamMatchesEdgeListOnRandomCollections drives every scheme's
// one-graph decision against its textbook definition over the graph's
// plain edge list, on random collections of both kinds.
func TestStreamMatchesEdgeListOnRandomCollections(t *testing.T) {
	ctx := context.Background()
	must := muster(t)
	for seed := uint64(1); seed <= 8; seed++ {
		rng := stats.NewRNG(seed)
		for _, kind := range []model.Kind{model.Dirty, model.CleanClean} {
			c := blocking.RandomCollection(rng, kind, 40+rng.Intn(50), 30+rng.Intn(30))
			for _, s := range []weights.Scheme{
				{Kind: weights.CBS},
				{Kind: weights.EJS},
				{Kind: weights.ChiSquared, Entropy: true},
			} {
				csr := weighted(c, s)
				l := edgeListOf(csr)
				label := fmt.Sprintf("seed=%d kind=%v %s", seed, kind, s.Name())
				got := func(p Params) []model.IDPair {
					p.Workers = 1
					return must(prunePairs(ctx, csr, p))
				}
				comparePairs(t, label+" wep", l.wep(), got(Params{Pruning: WEP}))
				comparePairs(t, label+" cep", l.cep(0), got(Params{Pruning: CEP}))
				comparePairs(t, label+" cep5", l.cep(5), got(Params{Pruning: CEP, K: 5}))
				comparePairs(t, label+" wnp1", l.wnp(false), got(Params{Pruning: WNP1}))
				comparePairs(t, label+" wnp2", l.wnp(true), got(Params{Pruning: WNP2}))
				comparePairs(t, label+" cnp1", l.cnp(0, false), got(Params{Pruning: CNP1}))
				comparePairs(t, label+" cnp2", l.cnp(0, true), got(Params{Pruning: CNP2}))
				comparePairs(t, label+" cnp1 k=2", l.cnp(2, false), got(Params{Pruning: CNP1, K: 2}))
				comparePairs(t, label+" cnp2 k=2", l.cnp(2, true), got(Params{Pruning: CNP2, K: 2}))
				comparePairs(t, label+" blast", l.blastWNP(2, 2), got(Params{Pruning: BlastWNP, C: 2, D: 2}))
				comparePairs(t, label+" blast41", l.blastWNP(4, 1), got(Params{Pruning: BlastWNP, C: 4, D: 1}))
			}
		}
	}
}

// TestStreamFigure1: BLAST pruning reproduces the paper example
// exactly.
func TestStreamFigure1(t *testing.T) {
	ds := datasets.PaperExample()
	c := blocking.TokenBlocking(ds)
	csr := weighted(c, weights.Blast())
	pairs := blastWNP(csr, 2, 2)
	if len(pairs) != 2 {
		t.Fatalf("retained %d pairs, want 2", len(pairs))
	}
	for _, p := range pairs {
		if !ds.Truth.Contains(int(p.U), int(p.V)) {
			t.Errorf("retained non-match %v", p)
		}
	}
}

// allParams is one Params per scheme, at default knobs.
var allParams = []Params{
	{Pruning: WEP}, {Pruning: CEP}, {Pruning: WNP1}, {Pruning: WNP2},
	{Pruning: CNP1}, {Pruning: CNP2}, {Pruning: BlastWNP, C: 2, D: 2},
}

// TestStreamEmptyGraph: every scheme must cope with an edgeless graph.
func TestStreamEmptyGraph(t *testing.T) {
	c := &blocking.Collection{Kind: model.Dirty, NumProfiles: 3}
	csr := weighted(c, weights.Scheme{Kind: weights.CBS})
	for _, p := range allParams {
		if got := run(csr, p); got != nil {
			t.Errorf("%v: empty graph retained %v", p.Pruning, got)
		}
	}
}

// TestStreamZeroWeightsNeverRetained: a zero weight means no evidence,
// so nothing is emitted even though the thresholds degenerate to zero.
func TestStreamZeroWeightsNeverRetained(t *testing.T) {
	rng := stats.NewRNG(5)
	c := blocking.RandomCollection(rng, model.Dirty, 30, 20)
	csr, err := graph.BuildCSR(context.Background(), c, nil, 1) // weights left at zero
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range allParams {
		if pairs := run(csr, p); len(pairs) != 0 {
			t.Errorf("%v retained %d zero-weight pairs", p.Pruning, len(pairs))
		}
	}
}

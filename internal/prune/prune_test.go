package prune

import (
	"context"
	"fmt"
	"testing"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/stats"
	"blast/internal/weights"
)

// weighted builds the CSR of c and weighs it with s.
func weighted(c *blocking.Collection, s weights.Scheme) *graph.CSR {
	g, err := graph.BuildCSR(context.Background(), c, nil, 1)
	if err != nil {
		panic(err)
	}
	s.ApplyCSR(g, g.Degrees(), g.NumEdges(), 1)
	return g
}

// figure1Graph returns the paper's blocking graph with CBS weights
// (Figure 1c): p1p2=1, p1p3=4, p1p4=3, p2p3=4, p2p4=4, p3p4=1.
func figure1Graph() *graph.CSR {
	return weighted(blocking.TokenBlocking(datasets.PaperExample()), weights.Scheme{Kind: weights.CBS})
}

// prunePairs makes the decision of p over the whole graph g and emits
// the retained pairs — the one-graph pipeline of metablocking.PruneCSR.
func prunePairs(ctx context.Context, g *graph.CSR, p Params) ([]model.IDPair, error) {
	dec, err := Decide(ctx, g, p, g.NumEdges(), OneGraph{})
	if err != nil {
		return nil, err
	}
	return Emit(ctx, g, p.Workers, dec.Keep)
}

// The pruning schemes, run serially under a background context (which
// never cancels, so an error is a test bug).
func run(g *graph.CSR, p Params) []model.IDPair {
	p.Workers = 1
	return mustPairs(prunePairs(context.Background(), g, p))
}
func wep(g *graph.CSR) []model.IDPair        { return run(g, Params{Pruning: WEP}) }
func cep(g *graph.CSR, k int) []model.IDPair { return run(g, Params{Pruning: CEP, K: k}) }

// wnp runs WNP1 or WNP2.
func wnp(g *graph.CSR, p Pruning) []model.IDPair { return run(g, Params{Pruning: p}) }

// cnp runs CNP1 or CNP2 with budget k.
func cnp(g *graph.CSR, k int, p Pruning) []model.IDPair { return run(g, Params{Pruning: p, K: k}) }
func blastWNP(g *graph.CSR, c, d float64) []model.IDPair {
	return run(g, Params{Pruning: BlastWNP, C: c, D: d})
}

func mustPairs(pairs []model.IDPair, err error) []model.IDPair {
	if err != nil {
		panic(err)
	}
	return pairs
}

func retainedPairs(pairs []model.IDPair) map[model.IDPair]bool {
	out := make(map[model.IDPair]bool, len(pairs))
	for _, p := range pairs {
		out[p] = true
	}
	return out
}

// weightOf returns the weight of edge (u, v), read from u's run; ok is
// false when the nodes are not adjacent.
func weightOf(g *graph.CSR, u, v int32) (w float64, ok bool) {
	nbr, wts := g.Run(int(u))
	for i, j := range nbr {
		if j == v {
			return wts[i], true
		}
	}
	return 0, false
}

// setWeight overwrites both entries of edge (u, v).
func setWeight(g *graph.CSR, u, v int32, w float64) {
	for _, e := range [][2]int32{{u, v}, {v, u}} {
		nbr, _ := g.Run(int(e[0]))
		for i, j := range nbr {
			if j == e[1] {
				g.Weights[g.Offsets[e[0]]+int64(i)] = w
			}
		}
	}
}

// TestWNPFigure1d: traditional WNP with local-average thresholds on the
// Figure 1c graph retains p1-p3, p2-p4 and the two "red" superfluous
// edges p1-p4, p2-p3, and prunes the weight-1 edges (dashed in Fig. 1d).
func TestWNPFigure1d(t *testing.T) {
	g := figure1Graph()
	for _, mode := range []Pruning{WNP1, WNP2} {
		got := retainedPairs(wnp(g, mode))
		want := []model.IDPair{
			model.MakePair(0, 2), model.MakePair(1, 3),
			model.MakePair(0, 3), model.MakePair(1, 2),
		}
		if len(got) != len(want) {
			t.Fatalf("%v retained %d edges, want %d: %v", mode, len(got), len(want), got)
		}
		for _, p := range want {
			if !got[p] {
				t.Errorf("%v should retain %v", mode, p)
			}
		}
		if got[model.MakePair(0, 1)] || got[model.MakePair(2, 3)] {
			t.Errorf("%v should prune the weight-1 edges", mode)
		}
	}
}

func TestWEPGlobalAverage(t *testing.T) {
	g := figure1Graph()
	// Mean weight = 17/6 = 2.83: keeps the 3s and 4s.
	got := retainedPairs(wep(g))
	if len(got) != 4 {
		t.Fatalf("WEP retained %d, want 4", len(got))
	}
	if got[model.MakePair(0, 1)] || got[model.MakePair(2, 3)] {
		t.Error("WEP kept a below-average edge")
	}
}

func TestCEPTopK(t *testing.T) {
	g := figure1Graph()
	got := cep(g, 3)
	if len(got) != 3 {
		t.Fatalf("CEP(3) retained %d", len(got))
	}
	for _, p := range got {
		if w, _ := weightOf(g, p.U, p.V); w < 3 {
			t.Errorf("CEP kept weight %v while heavier edges exist", w)
		}
	}
	// k larger than edges: everything with positive weight.
	if got := cep(g, 100); len(got) != 6 {
		t.Errorf("CEP(100) = %d, want all 6", len(got))
	}
	// Default k = sum|B_i|/2 = 26/2 = 13 > 6: all edges.
	if got := cep(g, 0); len(got) != 6 {
		t.Errorf("CEP(default) = %d, want 6", len(got))
	}
}

func TestCNPModes(t *testing.T) {
	g := figure1Graph()
	// k=1: each node marks its single best edge (stable order for ties).
	red := retainedPairs(cnp(g, 1, CNP1))
	rec := retainedPairs(cnp(g, 1, CNP2))
	// Reciprocal must be a subset of redefined.
	for p := range rec {
		if !red[p] {
			t.Errorf("reciprocal edge %v missing from redefined", p)
		}
	}
	// p1's best is p1-p3 (4) and p3's best (stable) is p1-p3 too: it is
	// mutual and must survive reciprocal pruning.
	if !rec[model.MakePair(0, 2)] {
		t.Error("mutual best edge p1-p3 should survive reciprocal CNP")
	}
	// The weight-1 edges are nobody's top-1.
	if red[model.MakePair(0, 1)] || red[model.MakePair(2, 3)] {
		t.Error("weight-1 edge in a top-1 list")
	}
}

func TestCNPDefaultK(t *testing.T) {
	g := figure1Graph()
	// Default k = round(26/4) = 7 >= degree: keeps all positive edges.
	if got := cnp(g, 0, CNP1); len(got) != 6 {
		t.Errorf("CNP(default) = %d, want 6", len(got))
	}
}

// TestBlastWNPFigure1: theta_i = M_i/2 = 2 for every node; the unique
// edge threshold is 2, retaining the four heavy edges.
func TestBlastWNPFigure1(t *testing.T) {
	g := figure1Graph()
	got := retainedPairs(blastWNP(g, 2, 2))
	if len(got) != 4 {
		t.Fatalf("BlastWNP retained %d, want 4", len(got))
	}
	if got[model.MakePair(0, 1)] || got[model.MakePair(2, 3)] {
		t.Error("BlastWNP kept a weight-1 edge")
	}
}

// TestBlastWNPWithBlastWeighting: with chi2*h weights the Figure 1
// example leaves only the true matches with positive weight; pruning
// yields exactly PC=1, PQ=1.
func TestBlastWNPWithBlastWeighting(t *testing.T) {
	g := weighted(blocking.TokenBlocking(datasets.PaperExample()), weights.Blast())
	got := retainedPairs(blastWNP(g, 2, 2))
	if len(got) != 2 {
		t.Fatalf("retained %d, want exactly the 2 matches: %v", len(got), got)
	}
	if !got[model.MakePair(0, 2)] || !got[model.MakePair(1, 3)] {
		t.Errorf("retained = %v, want p1-p3 and p2-p4", got)
	}
}

// TestBlastWNPThresholdIndependence reproduces the Figure 6 argument: the
// local-average threshold changes when low-weight neighbors are added,
// while BLAST's max-based threshold does not.
func TestBlastWNPThresholdIndependence(t *testing.T) {
	// Node 0 with edges of weight 4 (to 1), 2 (to 2), 1 (to 3).
	base := &blocking.Collection{Kind: model.Dirty, NumProfiles: 8}
	addPairBlocks := func(c *blocking.Collection, u, v int32, n int, key string) {
		for i := 0; i < n; i++ {
			c.Blocks = append(c.Blocks, blocking.Block{
				Key: key + string(rune('a'+i)), P1: []int32{u, v}, Entropy: 1,
			})
		}
	}
	addPairBlocks(base, 0, 1, 4, "x")
	addPairBlocks(base, 0, 2, 2, "y")
	addPairBlocks(base, 0, 3, 1, "z")

	decide := func(c *blocking.Collection, prune func(*graph.CSR) []model.IDPair) map[model.IDPair]bool {
		return retainedPairs(prune(weighted(c, weights.Scheme{Kind: weights.CBS})))
	}

	// Reciprocal mode isolates node 0's threshold: the other endpoints are
	// leaves whose only edge always passes their own threshold.
	blastBefore := decide(base, func(g *graph.CSR) []model.IDPair { return blastWNP(g, 2, 2) })
	wnpBefore := decide(base, func(g *graph.CSR) []model.IDPair { return wnp(g, WNP2) })

	// Add two more weight-1 neighbors (the p5, p6 of Figure 6a).
	extended := base.Clone()
	addPairBlocks(extended, 0, 4, 1, "w")
	addPairBlocks(extended, 0, 5, 1, "v")

	blastAfter := decide(extended, func(g *graph.CSR) []model.IDPair { return blastWNP(g, 2, 2) })
	wnpAfter := decide(extended, func(g *graph.CSR) []model.IDPair { return wnp(g, WNP2) })

	target := model.MakePair(0, 2) // the weight-2 edge
	if blastBefore[target] != blastAfter[target] {
		t.Errorf("BLAST decision on (0,2) changed with unrelated neighbors: %v -> %v",
			blastBefore[target], blastAfter[target])
	}
	// The traditional average threshold is sensitive: before avg=7/3=2.33
	// (edge dropped), after avg=9/5=1.8 (edge kept).
	if wnpBefore[target] == wnpAfter[target] {
		t.Errorf("expected traditional WNP to flip on (0,2); before=%v after=%v",
			wnpBefore[target], wnpAfter[target])
	}
}

func TestBlastWNPDefaults(t *testing.T) {
	g := figure1Graph()
	a := blastWNP(g, 0, 0) // defaults c=2, d=2
	b := blastWNP(g, 2, 2)
	if len(a) != len(b) {
		t.Errorf("default params differ: %d vs %d", len(a), len(b))
	}
}

func TestBlastWNPHigherCRetainsMore(t *testing.T) {
	g := figure1Graph()
	strict := blastWNP(g, 1, 2)  // theta_i = M_i
	def := blastWNP(g, 2, 2)     // theta_i = M_i/2
	loose := blastWNP(g, 100, 2) // theta_i ~ 0
	if !(len(strict) <= len(def) && len(def) <= len(loose)) {
		t.Errorf("retention not monotone in c: %d, %d, %d", len(strict), len(def), len(loose))
	}
	if len(loose) != 6 {
		t.Errorf("c=100 should keep all positive edges, got %d", len(loose))
	}
}

func TestZeroWeightEdgesNeverRetained(t *testing.T) {
	g := figure1Graph()
	// Zero out two edges.
	setWeight(g, 0, 1, 0)
	setWeight(g, 2, 3, 0)
	checks := map[string][]model.IDPair{
		"WEP":      wep(g),
		"CEP":      cep(g, 100),
		"WNP1":     wnp(g, WNP1),
		"WNP2":     wnp(g, WNP2),
		"CNP1":     cnp(g, 10, CNP1),
		"CNP2":     cnp(g, 10, CNP2),
		"BlastWNP": blastWNP(g, 2, 2),
	}
	for name, pairs := range checks {
		for _, p := range pairs {
			if w, _ := weightOf(g, p.U, p.V); w <= 0 {
				t.Errorf("%s retained zero-weight edge %v", name, p)
			}
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := &graph.CSR{NumProfiles: 3, Offsets: make([]int64, 4), BlockCounts: make([]int32, 3)}
	if wep(g) != nil || cep(g, 5) != nil || wnp(g, WNP1) != nil ||
		cnp(g, 2, CNP2) != nil || blastWNP(g, 2, 2) != nil {
		t.Error("empty graph should prune to nothing")
	}
}

func TestReciprocalSubsetOfRedefined(t *testing.T) {
	g := figure1Graph()
	redW := retainedPairs(wnp(g, WNP1))
	recW := retainedPairs(wnp(g, WNP2))
	for p := range recW {
		if !redW[p] {
			t.Errorf("WNP reciprocal edge %v not in redefined set", p)
		}
	}
}

// TestWNPRetainsLocalMaximum: in redefined WNP every node with edges
// keeps at least its maximum-weight edge (it is >= the node average).
func TestWNPRetainsLocalMaximum(t *testing.T) {
	g := figure1Graph()
	kept := retainedPairs(wnp(g, WNP1))
	for node := 0; node < g.NumProfiles; node++ {
		if best, ok := maxEdge(g, node); ok && !kept[best] {
			t.Errorf("node %d max edge %v pruned by redefined WNP", node, best)
		}
	}
}

func TestGlobalMaximumSurvivesBlastWNP(t *testing.T) {
	g := figure1Graph()
	kept := retainedPairs(blastWNP(g, 2, 2))
	var best model.IDPair
	bestW := -1.0
	g.Canonical(func(u, v int32, p int64) {
		if g.Weights[p] > bestW {
			best, bestW = model.IDPair{U: u, V: v}, g.Weights[p]
		}
	})
	if !kept[best] {
		t.Error("global maximum edge pruned")
	}
}

// TestPruningStringAndNodeLocal pins the enum's names and the
// node-local classification the incremental writers branch on.
func TestPruningStringAndNodeLocal(t *testing.T) {
	for p, want := range map[Pruning]struct {
		name  string
		local bool
	}{
		WEP: {"wep", false}, CEP: {"cep", false},
		WNP1: {"wnp1", true}, WNP2: {"wnp2", true},
		CNP1: {"cnp1", false}, CNP2: {"cnp2", false},
		BlastWNP: {"blast-wnp", true},
	} {
		if p.String() != want.name || p.NodeLocal() != want.local {
			t.Errorf("%d: String() = %q, NodeLocal() = %v; want %q, %v", int(p), p.String(), p.NodeLocal(), want.name, want.local)
		}
	}
	if got := Pruning(42).String(); got != "Pruning(42)" {
		t.Errorf("unknown pruning renders %q", got)
	}
	if _, err := Decide(context.Background(), figure1Graph(), Params{Pruning: 42}, 6, OneGraph{}); err == nil {
		t.Error("Decide accepted an unknown pruning")
	}
}

// maxEdge returns node's first maximum-weight edge (canonical pair);
// ok is false for an edgeless node.
func maxEdge(g *graph.CSR, node int) (best model.IDPair, ok bool) {
	nbr, wts := g.Run(node)
	if len(nbr) == 0 {
		return best, false
	}
	bi := 0
	for i := range wts {
		if wts[i] > wts[bi] {
			bi = i
		}
	}
	return model.MakePair(node, int(nbr[bi])), true
}

// randomGraph builds a random weighted blocking graph for property tests.
func randomGraph(seed uint64, nodes, blocks int) *graph.CSR {
	rng := stats.NewRNG(seed)
	c := &blocking.Collection{Kind: model.Dirty, NumProfiles: nodes}
	for b := 0; b < blocks; b++ {
		size := 2 + rng.Intn(4)
		seen := make(map[int32]bool)
		var members []int32
		for len(members) < size {
			id := int32(rng.Intn(nodes))
			if !seen[id] {
				seen[id] = true
				members = append(members, id)
			}
		}
		c.Blocks = append(c.Blocks, blocking.Block{
			Key: fmt.Sprintf("b%04d", b), P1: members, Entropy: 1,
		})
	}
	return weighted(c, weights.Scheme{Kind: weights.CBS})
}

// TestPruningInvariantsRandomGraphs: on arbitrary graphs, (1) reciprocal
// node-centric results are subsets of redefined ones, (2) retained
// pairs are strictly sorted canonical edges of the graph, (3) CEP(k)
// retains at most k edges, (4) WNP redefined keeps every node's maximum
// edge.
func TestPruningInvariantsRandomGraphs(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		g := randomGraph(seed, 12+int(seed)%20, 30+int(seed*3)%40)
		if g.NumEdges() == 0 {
			continue
		}
		checkSorted := func(name string, pairs []model.IDPair) {
			for i, p := range pairs {
				if _, ok := weightOf(g, p.U, p.V); !ok || p.U >= p.V {
					t.Fatalf("seed %d %s: %v is not a canonical edge", seed, name, p)
				}
				if i > 0 && p.Key() <= pairs[i-1].Key() {
					t.Fatalf("seed %d %s: pairs not strictly sorted", seed, name)
				}
			}
		}
		wnpR := wnp(g, WNP1)
		wnpC := wnp(g, WNP2)
		cnpR := cnp(g, 3, CNP1)
		cnpC := cnp(g, 3, CNP2)
		cep5 := cep(g, 5)
		for name, pairs := range map[string][]model.IDPair{
			"wnp1": wnpR, "wnp2": wnpC, "cnp1": cnpR, "cnp2": cnpC,
			"wep": wep(g), "cep": cep5, "blast": blastWNP(g, 2, 2),
		} {
			checkSorted(name, pairs)
		}
		redW := retainedPairs(wnpR)
		for _, p := range wnpC {
			if !redW[p] {
				t.Fatalf("seed %d: wnp2 edge %v not in wnp1", seed, p)
			}
		}
		redC := retainedPairs(cnpR)
		for _, p := range cnpC {
			if !redC[p] {
				t.Fatalf("seed %d: cnp2 edge %v not in cnp1", seed, p)
			}
		}
		if len(cep5) > 5 {
			t.Fatalf("seed %d: CEP(5) kept %d", seed, len(cep5))
		}
		// Redefined WNP keeps every node's max-weight edge.
		for node := 0; node < g.NumProfiles; node++ {
			best, ok := maxEdge(g, node)
			if w, _ := weightOf(g, best.U, best.V); ok && w > 0 && !redW[best] {
				t.Fatalf("seed %d: node %d max edge pruned by wnp1", seed, node)
			}
		}
	}
}

// TestBlastWNPSubsetOfLooserD: for fixed c, growing d loosens the
// combined threshold, so retained sets grow monotonically.
func TestBlastWNPSubsetOfLooserD(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		g := randomGraph(seed, 15, 40)
		tight := blastWNP(g, 2, 1)
		def := blastWNP(g, 2, 2)
		loose := blastWNP(g, 2, 4)
		defSet, looseSet := retainedPairs(def), retainedPairs(loose)
		for _, p := range tight {
			if !defSet[p] {
				t.Fatalf("seed %d: d=1 edge missing at d=2", seed)
			}
		}
		for _, p := range def {
			if !looseSet[p] {
				t.Fatalf("seed %d: d=2 edge missing at d=4", seed)
			}
		}
	}
}

package graph

import (
	"context"
	"math"
	"testing"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/model"
)

// buildCSR is the serial full build of c; a background build never
// fails.
func buildCSR(c *blocking.Collection) *CSR {
	g, err := BuildCSR(context.Background(), c, nil, 1)
	if err != nil {
		panic(err)
	}
	return g
}

// entryOf returns the position of v in u's run, or -1 when the two
// nodes are not adjacent.
func entryOf(g *CSR, u, v int) int64 {
	nbr, _ := g.Run(u)
	for i, j := range nbr {
		if int(j) == v {
			return g.Offsets[u] + int64(i)
		}
	}
	return -1
}

func paperGraph(t *testing.T) *CSR {
	t.Helper()
	return buildCSR(blocking.TokenBlocking(datasets.PaperExample()))
}

// TestBuildPaperFigure1c: the blocking graph of Figure 1c has 6 edges
// with CBS weights 4 (p1-p3), 4 (p2-p4), 3 (p1-p4), 4 (p2-p3),
// 1 (p1-p2), 1 (p3-p4).
func TestBuildPaperFigure1c(t *testing.T) {
	g := paperGraph(t)
	if g.NumEdges() != 6 {
		t.Fatalf("edges = %d, want 6 (complete graph on p1..p4)", g.NumEdges())
	}
	wantCommon := map[model.IDPair]int32{
		model.MakePair(0, 2): 4, // p1-p3: car, main, abram, jr
		model.MakePair(1, 3): 4, // p2-p4: ellen, smith, ny, abram
		model.MakePair(0, 3): 3, // p1-p4: 1985, street, abram
		model.MakePair(1, 2): 4, // p2-p3: 85, st, retail, abram
		model.MakePair(0, 1): 1, // p1-p2: abram
		model.MakePair(2, 3): 1, // p3-p4: abram
	}
	for pair, want := range wantCommon {
		for _, p := range []int64{entryOf(g, int(pair.U), int(pair.V)), entryOf(g, int(pair.V), int(pair.U))} {
			if p < 0 {
				t.Fatalf("edge %v missing", pair)
			}
			if g.Common[p] != want {
				t.Errorf("edge %v common = %d, want %d", pair, g.Common[p], want)
			}
		}
	}
}

func TestBuildStatistics(t *testing.T) {
	g := paperGraph(t)
	if g.TotalBlocks != 12 {
		t.Errorf("TotalBlocks = %d, want 12", g.TotalBlocks)
	}
	if g.TotalComparisons != 17 {
		t.Errorf("TotalComparisons = %d, want 17", g.TotalComparisons)
	}
	// |B_p1| = 6 and |B_p3| = 7 are the Table 1 marginals; p2 and p4
	// follow by direct count (p2: ellen smith 85 retail abram st ny;
	// p4: ellen smith 1985 abram street ny).
	want := []int32{6, 7, 7, 6}
	for i, w := range want {
		if g.BlockCounts[i] != w {
			t.Errorf("BlockCounts[%d] = %d, want %d", i, g.BlockCounts[i], w)
		}
	}
	// Complete graph on 4 nodes: degree 3 each.
	for i, d := range g.Degrees() {
		if d != 3 || g.Degree(i) != 3 {
			t.Errorf("degree of %d = %d, want 3", i, d)
		}
	}
}

// TestEdgesSortedAndCanonical: every run is strictly ascending, and the
// canonical iteration visits each edge once, u < v, in ascending (u, v)
// order.
func TestEdgesSortedAndCanonical(t *testing.T) {
	g := paperGraph(t)
	for u := 0; u < g.NumProfiles; u++ {
		nbr, _ := g.Run(u)
		for i := 1; i < len(nbr); i++ {
			if nbr[i-1] >= nbr[i] {
				t.Errorf("node %d: run not strictly ascending: %v", u, nbr)
			}
		}
	}
	prev, n := uint64(0), 0
	g.Canonical(func(u, v int32, p int64) {
		if u >= v {
			t.Errorf("edge %d not canonical: (%d,%d)", n, u, v)
		}
		if g.Neighbors[p] != v {
			t.Errorf("edge %d: entry %d holds %d, want %d", n, p, g.Neighbors[p], v)
		}
		key := model.MakePair(int(u), int(v)).Key()
		if n > 0 && prev >= key {
			t.Error("edges not sorted")
		}
		prev = key
		n++
	})
	if n != g.NumEdges() {
		t.Errorf("canonical iteration visited %d edges, want %d", n, g.NumEdges())
	}
}

func TestARCSAccumulation(t *testing.T) {
	g := paperGraph(t)
	// p1-p3 share car(1 cmp), main(1), jr(1) and abram(6 cmps):
	// ARCS = 3*1 + 1/6.
	want := 3 + 1.0/6
	if got := g.ARCS[entryOf(g, 0, 2)]; math.Abs(got-want) > 1e-12 {
		t.Errorf("ARCS(p1,p3) = %v, want %v", got, want)
	}
	// p1-p2 share only abram: ARCS = 1/6.
	if got := g.ARCS[entryOf(g, 0, 1)]; math.Abs(got-1.0/6) > 1e-12 {
		t.Errorf("ARCS(p1,p2) = %v, want 1/6", got)
	}
}

func TestEntropyMeanDefaultBlocks(t *testing.T) {
	g := paperGraph(t)
	// Token Blocking sets block entropy 1, so every entry's entropy mass
	// equals its common-block count: h(B_uv) = 1.
	for p := range g.Neighbors {
		if g.EntropySum[p] != float64(g.Common[p]) {
			t.Errorf("entry %d entropy mass = %v, want %d", p, g.EntropySum[p], g.Common[p])
		}
	}
}

func TestEntropyMeanWithClusterEntropy(t *testing.T) {
	// Hand-built collection: two blocks with different entropies sharing
	// the pair (0,1).
	c := &blocking.Collection{
		Kind:        model.Dirty,
		NumProfiles: 2,
		Blocks: []blocking.Block{
			{Key: "a", P1: []int32{0, 1}, Entropy: 3.5},
			{Key: "b", P1: []int32{0, 1}, Entropy: 2.0},
		},
	}
	g := buildCSR(c)
	for _, p := range []int64{entryOf(g, 0, 1), entryOf(g, 1, 0)} {
		if p < 0 {
			t.Fatal("edge missing")
		}
		if got := g.EntropySum[p] / float64(g.Common[p]); math.Abs(got-2.75) > 1e-12 {
			t.Errorf("entropy mean = %v, want 2.75", got)
		}
	}
}

// TestEdgeBetweenMissing: two nodes are adjacent iff they share a
// comparison-entailing block; no node is its own neighbor.
func TestEdgeBetweenMissing(t *testing.T) {
	g := paperGraph(t)
	if entryOf(g, 0, 0) >= 0 {
		t.Error("self edge should not exist")
	}
	c := &blocking.Collection{Kind: model.Dirty, NumProfiles: 5, Blocks: []blocking.Block{
		{Key: "k", P1: []int32{0, 1}},
	}}
	g2 := buildCSR(c)
	if entryOf(g2, 2, 3) >= 0 || g2.Degree(2) != 0 || g2.Degree(3) != 0 {
		t.Error("absent edge should have no entry")
	}
	if entryOf(g2, 0, 1) < 0 || entryOf(g2, 1, 0) < 0 {
		t.Error("present edge should be found from both endpoints")
	}
}

// TestAdjacencyConsistent: every entry (u -> v) has its mirror (v -> u)
// carrying identical statistics, and run lengths are the degrees.
func TestAdjacencyConsistent(t *testing.T) {
	g := paperGraph(t)
	total := 0
	for u := 0; u < g.NumProfiles; u++ {
		nbr, _ := g.Run(u)
		if len(nbr) != g.Degree(u) {
			t.Errorf("node %d run %d != degree %d", u, len(nbr), g.Degree(u))
		}
		total += len(nbr)
		for i, v := range nbr {
			p := g.Offsets[u] + int64(i)
			mp := g.MirrorEntry(int32(u), v)
			if g.Neighbors[mp] != int32(u) {
				t.Fatalf("entry (%d,%d) has no mirror", u, v)
			}
			if g.Common[p] != g.Common[mp] || g.ARCS[p] != g.ARCS[mp] || g.EntropySum[p] != g.EntropySum[mp] {
				t.Errorf("entry (%d,%d) stats differ from its mirror", u, v)
			}
		}
	}
	if total != 2*g.NumEdges() {
		t.Errorf("%d entries, want 2x%d edges", total, g.NumEdges())
	}
}

func TestCleanCleanGraphOnlyCrossEdges(t *testing.T) {
	e1 := model.NewCollection("A")
	p := model.Profile{ID: "a"}
	p.Add("t", "x y")
	e1.Append(p)
	q := model.Profile{ID: "b"}
	q.Add("t", "x z")
	e1.Append(q)
	e2 := model.NewCollection("B")
	r := model.Profile{ID: "c"}
	r.Add("t", "x y z")
	e2.Append(r)
	ds := &model.Dataset{Name: "d", Kind: model.CleanClean, E1: e1, E2: e2, Truth: model.NewGroundTruth()}
	g := buildCSR(blocking.TokenBlocking(ds))
	// a-b co-occur in block "x" but are same-source: clean-clean blocks
	// never pair them.
	g.Canonical(func(u, v int32, _ int64) {
		if u < 2 && v < 2 {
			t.Errorf("same-source edge (%d,%d) in clean-clean graph", u, v)
		}
	})
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2 (a-c, b-c)", g.NumEdges())
	}
}

func TestBuildEmptyCollection(t *testing.T) {
	c := &blocking.Collection{Kind: model.Dirty, NumProfiles: 3}
	g := buildCSR(c)
	if g.NumEdges() != 0 || g.TotalBlocks != 0 {
		t.Error("empty collection should build empty graph")
	}
	if len(g.BlockCounts) != 3 || len(g.Offsets) != 4 || len(g.Degrees()) != 3 {
		t.Error("per-node slices should still be sized")
	}
}

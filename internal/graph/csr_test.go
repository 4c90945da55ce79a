package graph

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/model"
	"blast/internal/stats"
)

// refEdge is one edge of the naive reference build.
type refEdge struct {
	common        int32
	arcs, entropy float64
}

// referenceEdges is the deliberately naive blocking graph: every pair of
// every block, in block order, accumulated into a map keyed by the
// canonical pair. Visiting blocks in ascending order is the only
// ordering the float sums depend on, so the CSR's per-entry statistics
// must equal these bit for bit.
func referenceEdges(c *blocking.Collection) map[model.IDPair]*refEdge {
	edges := make(map[model.IDPair]*refEdge)
	for i := range c.Blocks {
		b := &c.Blocks[i]
		cmp := b.Comparisons()
		if cmp == 0 {
			continue
		}
		b.ForEachPair(func(u, v int32) {
			pair := model.MakePair(int(u), int(v))
			e := edges[pair]
			if e == nil {
				e = &refEdge{}
				edges[pair] = e
			}
			e.common++
			e.arcs += 1 / float64(cmp)
			e.entropy += b.Entropy
		})
	}
	return edges
}

// checkCSRMatchesReference asserts that the CSR carries exactly the
// edges and (bit-identical) accumulators of the naive reference build,
// from both endpoints, with runs sorted by ascending neighbor.
func checkCSRMatchesReference(t *testing.T, c *blocking.Collection, csr *CSR) {
	t.Helper()
	ref := referenceEdges(c)
	if csr.NumProfiles != c.NumProfiles {
		t.Fatalf("NumProfiles = %d, want %d", csr.NumProfiles, c.NumProfiles)
	}
	if csr.NumEdges() != len(ref) {
		t.Fatalf("NumEdges = %d, want %d", csr.NumEdges(), len(ref))
	}
	if csr.TotalBlocks != c.Len() || csr.TotalComparisons != c.AggregateCardinality() {
		t.Fatalf("totals = (%d, %d), want (%d, %d)",
			csr.TotalBlocks, csr.TotalComparisons, c.Len(), c.AggregateCardinality())
	}
	for i, want := range c.ProfileBlockCounts() {
		if csr.BlockCounts[i] != want {
			t.Fatalf("BlockCounts[%d] = %d, want %d", i, csr.BlockCounts[i], want)
		}
	}
	for n := 0; n < csr.NumProfiles; n++ {
		prev := int32(-1)
		for p := csr.Offsets[n]; p < csr.Offsets[n+1]; p++ {
			v := csr.Neighbors[p]
			if v <= prev {
				t.Fatalf("node %d: neighbors not strictly ascending (%d after %d)", n, v, prev)
			}
			prev = v
			e := ref[model.MakePair(n, int(v))]
			if e == nil {
				t.Fatalf("CSR edge (%d,%d) missing from the reference", n, v)
			}
			if csr.Common[p] != e.common || csr.ARCS[p] != e.arcs || csr.EntropySum[p] != e.entropy {
				t.Fatalf("edge (%d,%d): CSR stats (%d, %v, %v) != reference (%d, %v, %v)",
					n, v, csr.Common[p], csr.ARCS[p], csr.EntropySum[p],
					e.common, e.arcs, e.entropy)
			}
		}
	}
}

// sameCSR asserts that two builds are byte-identical entry for entry.
func sameCSR(t *testing.T, label string, want, got *CSR) {
	t.Helper()
	if len(got.Offsets) != len(want.Offsets) || len(got.Neighbors) != len(want.Neighbors) {
		t.Fatalf("%s: shape (%d offsets, %d entries), want (%d, %d)", label,
			len(got.Offsets), len(got.Neighbors), len(want.Offsets), len(want.Neighbors))
	}
	for i := range want.Offsets {
		if got.Offsets[i] != want.Offsets[i] {
			t.Fatalf("%s: Offsets[%d] = %d, want %d", label, i, got.Offsets[i], want.Offsets[i])
		}
	}
	for i := range want.Neighbors {
		if got.Neighbors[i] != want.Neighbors[i] ||
			got.Common[i] != want.Common[i] ||
			got.ARCS[i] != want.ARCS[i] ||
			got.EntropySum[i] != want.EntropySum[i] {
			t.Fatalf("%s: entry %d differs", label, i)
		}
	}
	if len(got.Weights) != len(got.Neighbors) {
		t.Fatalf("%s: %d weights for %d entries", label, len(got.Weights), len(got.Neighbors))
	}
}

func TestBuildCSRMatchesBuildOnPaperExample(t *testing.T) {
	c := blocking.TokenBlocking(datasets.PaperExample())
	checkCSRMatchesReference(t, c, buildCSR(c))
}

func TestBuildCSRMatchesBuildOnRandomCollections(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		rng := stats.NewRNG(seed)
		for _, kind := range []model.Kind{model.Dirty, model.CleanClean} {
			c := blocking.RandomCollection(rng, kind, 40+rng.Intn(60), 25+rng.Intn(40))
			if err := c.Validate(); err != nil {
				t.Fatalf("seed %d: invalid random collection: %v", seed, err)
			}
			checkCSRMatchesReference(t, c, buildCSR(c))
		}
	}
}

// sameAtWorkers asserts that the full build of c is byte-identical to
// the serial build at every given worker count.
func sameAtWorkers(t *testing.T, label string, c *blocking.Collection, workers ...int) {
	t.Helper()
	serial := buildCSR(c)
	for _, w := range workers {
		par, err := BuildCSR(context.Background(), c, nil, w)
		if err != nil {
			t.Fatal(err)
		}
		sameCSR(t, fmt.Sprintf("%s workers=%d", label, w), serial, par)
	}
}

// TestBuildParallelMatchesSerial: on a cleaned clean-clean collection
// the parallel build equals the serial one at several worker counts.
func TestBuildParallelMatchesSerial(t *testing.T) {
	c := blocking.CleanWorkflow(blocking.TokenBlocking(datasets.AR1(0.1, 5)), 0.5, 0.8)
	sameAtWorkers(t, "ar1", c, 2, 3, 4, 8)
}

// TestBuildParallelDirty: the same holds on a dirty collection.
func TestBuildParallelDirty(t *testing.T) {
	c := blocking.CleanWorkflow(blocking.TokenBlocking(datasets.Census(0.3, 5)), 0.5, 0.8)
	sameAtWorkers(t, "census", c, 4)
}

// TestBuildParallelSmallInputFallsBack: worker counts above what the
// 12-block paper example can shard, the GOMAXPROCS default (0) and one
// worker all yield the serial build.
func TestBuildParallelSmallInputFallsBack(t *testing.T) {
	sameAtWorkers(t, "paper", blocking.TokenBlocking(datasets.PaperExample()), 8, 0, 1)
}

// TestBuildParallelDeterministic: two parallel builds of the same
// collection are byte-identical to each other and to the serial build.
func TestBuildParallelDeterministic(t *testing.T) {
	c := blocking.CleanWorkflow(blocking.TokenBlocking(datasets.PRD(0.2, 9)), 0.5, 0.8)
	ctx := context.Background()
	a, err := BuildCSR(ctx, c, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCSR(ctx, c, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, "prd run 2 vs run 1", a, b)
	sameCSR(t, "prd parallel vs serial", buildCSR(c), a)
}

// TestBuildCSRParallelMatchesSerial: the build is byte-identical at
// every worker count — including the GOMAXPROCS default and counts
// above what a tiny input can shard, which fall back to one range — and an owned-rows build
// materializes exactly the selected rows of the full build, with every
// other run empty.
func TestBuildCSRParallelMatchesSerial(t *testing.T) {
	rng := stats.NewRNG(7)
	collections := map[string]*blocking.Collection{
		"random dirty": blocking.RandomCollection(rng, model.Dirty, 200, 150),
		"random clean": blocking.RandomCollection(rng, model.CleanClean, 200, 150),
		"ar1":          blocking.CleanWorkflow(blocking.TokenBlocking(datasets.AR1(0.1, 5)), 0.5, 0.8),
		"census":       blocking.CleanWorkflow(blocking.TokenBlocking(datasets.Census(0.3, 5)), 0.5, 0.8),
		"prd":          blocking.CleanWorkflow(blocking.TokenBlocking(datasets.PRD(0.2, 9)), 0.5, 0.8),
		"paper":        blocking.TokenBlocking(datasets.PaperExample()),
	}
	ctx := context.Background()
	for name, c := range collections {
		sameAtWorkers(t, name, c, 0, 2, 3, 4, 8)
		serial := buildCSR(c)
		for _, workers := range []int{1, 3} {
			odd := func(n int32) bool { return n%2 == 1 }
			owned, err := BuildCSR(ctx, c, odd, workers)
			if err != nil {
				t.Fatal(err)
			}
			if owned.TotalBlocks != serial.TotalBlocks || owned.TotalComparisons != serial.TotalComparisons {
				t.Fatalf("%s owned: header totals differ from the full build", name)
			}
			for n := 0; n < c.NumProfiles; n++ {
				nbr, _ := owned.Run(n)
				want, _ := serial.Run(n)
				if !odd(int32(n)) {
					want = nil
				}
				if !slices.Equal(nbr, want) {
					t.Fatalf("%s owned workers=%d: row %d = %v, want %v", name, workers, n, nbr, want)
				}
				for i := range nbr {
					p, sp := owned.Offsets[n]+int64(i), serial.Offsets[n]+int64(i)
					if owned.Common[p] != serial.Common[sp] || owned.ARCS[p] != serial.ARCS[sp] ||
						owned.EntropySum[p] != serial.EntropySum[sp] {
						t.Fatalf("%s owned: row %d entry %d stats differ", name, n, i)
					}
				}
			}
		}
	}
}

// TestBuildCSRCancellation: a cancelled build returns ctx.Err() and no
// graph, at every worker count.
func TestBuildCSRCancellation(t *testing.T) {
	c := blocking.RandomCollection(stats.NewRNG(5), model.Dirty, 300, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		if g, err := BuildCSR(ctx, c, nil, workers); err != context.Canceled || g != nil {
			t.Errorf("workers=%d: got (%v, %v), want (nil, context.Canceled)", workers, g, err)
		}
	}
}

func TestBuildCSRSkipsComparisonFreeBlocks(t *testing.T) {
	c := &blocking.Collection{Kind: model.Dirty, NumProfiles: 4}
	c.Blocks = []blocking.Block{
		{Key: "single", P1: []int32{2}, Entropy: 1},   // no comparisons
		{Key: "pair", P1: []int32{0, 1}, Entropy: 1},  // one comparison
		{Key: "lonely", P1: []int32{3}, Entropy: 0.5}, // no comparisons
	}
	g := buildCSR(c)
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	if g.Degree(2) != 0 || g.Degree(3) != 0 {
		t.Error("singleton blocks should produce no adjacency")
	}
}

func TestBuildCSRRegistryDatasets(t *testing.T) {
	// Paper-shaped data at tiny scale: the CSR must agree with the
	// naive reference on a real token-blocked workload of each kind.
	for _, name := range []string{"ar1", "census"} {
		gen, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		c := blocking.CleanWorkflow(blocking.TokenBlocking(gen(0.05, 42)), 0.5, 0.8)
		checkCSRMatchesReference(t, c, buildCSR(c))
	}
}

func TestReleaseStats(t *testing.T) {
	c := blocking.TokenBlocking(datasets.PaperExample())
	g := buildCSR(c)
	g.ReleaseStats()
	if g.Common != nil || g.ARCS != nil || g.EntropySum != nil {
		t.Error("ReleaseStats should drop the accumulator arrays")
	}
	if len(g.Weights) != len(g.Neighbors) {
		t.Error("Weights must survive ReleaseStats")
	}
}

func TestCutRangesCoverAndBalance(t *testing.T) {
	rng := stats.NewRNG(3)
	offsets := make([]int64, 101)
	for i := 1; i < len(offsets); i++ {
		offsets[i] = offsets[i-1] + int64(rng.Intn(20))
	}
	n := len(offsets) - 1
	for _, workers := range []int{1, 2, 3, 7, 100} {
		bounds := cutRanges(offsets, workers)
		if bounds[0] != 0 || bounds[workers] != n {
			t.Fatalf("workers=%d: bounds do not cover: %v", workers, bounds)
		}
		for w := 0; w < workers; w++ {
			if bounds[w] > bounds[w+1] {
				t.Fatalf("workers=%d: bounds not monotone: %v", workers, bounds)
			}
		}
	}
}

// linearMirror finds the reverse entry of edge (u, v) by a linear scan
// of v's run: the naive oracle of MirrorEntry's binary search.
func linearMirror(g *CSR, u, v int32) int64 {
	nbr, _ := g.Run(int(v))
	for i, x := range nbr {
		if x == u {
			return g.Offsets[v] + int64(i)
		}
	}
	return -1
}

// TestMirrorEntryMatchesLinearScan pins MirrorEntry to a linear scan of
// the neighbor's run, for every edge, in both directions.
func TestMirrorEntryMatchesLinearScan(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		rng := stats.NewRNG(seed * 31337)
		for _, kind := range []model.Kind{model.Dirty, model.CleanClean} {
			c := blocking.RandomCollection(rng, kind, 30+rng.Intn(50), 25+rng.Intn(25))
			g := buildCSR(c)
			g.Canonical(func(u, v int32, p int64) {
				if got, want := g.MirrorEntry(u, v), linearMirror(g, u, v); got != want {
					t.Fatalf("MirrorEntry(%d,%d) = %d, linear scan says %d", u, v, got, want)
				}
				if got := g.MirrorEntry(v, u); got != p {
					t.Fatalf("MirrorEntry(%d,%d) = %d, canonical entry is %d", v, u, got, p)
				}
			})
		}
	}
}

package weights

import (
	"context"
	"testing"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/stats"
)

// checkApplyCSRMatchesApply weights a collection's CSR at several
// worker counts and asserts every entry carries the reference weight:
// the Weigher evaluated once per edge in canonical orientation. Both
// entries of an edge must therefore carry the same bits, at every
// worker count.
func checkApplyCSRMatchesApply(t *testing.T, c *blocking.Collection, s Scheme) {
	t.Helper()
	ref := buildCSR(c)
	w := s.Weigher(ref.NumEdges(), ref.TotalBlocks)
	want := make(map[model.IDPair]float64)
	ref.Canonical(func(u, v int32, p int64) {
		want[model.IDPair{U: u, V: v}] = w.Weight(ref.Common[p],
			ref.BlockCounts[u], ref.BlockCounts[v],
			int32(ref.Degree(int(u))), int32(ref.Degree(int(v))),
			ref.ARCS[p], ref.EntropySum[p])
	})
	for _, workers := range []int{0, 1, 2, 4} {
		csr := buildCSR(c)
		s.ApplyCSR(csr, csr.Degrees(), csr.NumEdges(), workers)
		for n := 0; n < csr.NumProfiles; n++ {
			for p := csr.Offsets[n]; p < csr.Offsets[n+1]; p++ {
				pair := model.MakePair(n, int(csr.Neighbors[p]))
				if csr.Weights[p] != want[pair] {
					t.Fatalf("%s workers=%d: weight%v = %v, want %v", s.Name(), workers, pair, csr.Weights[p], want[pair])
				}
			}
		}
	}
}

func TestApplyCSRMatchesApplyAllSchemes(t *testing.T) {
	paper := blocking.TokenBlocking(datasets.PaperExample())
	rng := stats.NewRNG(11)
	random := blocking.RandomCollection(rng, model.CleanClean, 80, 50)
	for _, c := range []*blocking.Collection{paper, random} {
		for _, kind := range []Kind{CBS, ECBS, ARCS, JS, EJS, ChiSquared} {
			checkApplyCSRMatchesApply(t, c, Scheme{Kind: kind})
			checkApplyCSRMatchesApply(t, c, Scheme{Kind: kind, Entropy: true})
		}
	}
}

// TestApplyCSROwnedRowsMatchFull: an owned-rows CSR weighted with the
// global degree vector and edge count carries, on its rows, exactly the
// weights of the full graph — the contract partitioned shards rely on
// to weigh the two entries of an edge on different shards.
func TestApplyCSROwnedRowsMatchFull(t *testing.T) {
	c := blocking.RandomCollection(stats.NewRNG(23), model.Dirty, 120, 90)
	for _, s := range []Scheme{Blast(), {Kind: EJS}, {Kind: ECBS, Entropy: true}} {
		full := buildCSR(c)
		s.ApplyCSR(full, full.Degrees(), full.NumEdges(), 1)
		owned, err := graph.BuildCSR(context.Background(), c, func(n int32) bool { return n%3 == 0 }, 2)
		if err != nil {
			t.Fatal(err)
		}
		s.ApplyCSR(owned, full.Degrees(), full.NumEdges(), 2)
		for n := 0; n < c.NumProfiles; n += 3 {
			_, got := owned.Run(n)
			_, want := full.Run(n)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: row %d entry %d = %v, want %v", s.Name(), n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestWeigherMatchesApplyPerEdge(t *testing.T) {
	g := paperGraph()
	s := Blast()
	apply(s, g)
	w := s.Weigher(g.NumEdges(), g.TotalBlocks)
	g.Canonical(func(u, v int32, p int64) {
		got := w.Weight(g.Common[p],
			g.BlockCounts[u], g.BlockCounts[v],
			int32(g.Degree(int(u))), int32(g.Degree(int(v))),
			g.ARCS[p], g.EntropySum[p])
		if got != g.Weights[p] || got != g.Weights[g.MirrorEntry(u, v)] {
			t.Errorf("edge (%d,%d): Weigher = %v, ApplyCSR = %v", u, v, got, g.Weights[p])
		}
	})
}

func TestWeigherPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown kind should panic")
		}
	}()
	Scheme{Kind: Kind(42)}.Weigher(1, 1).Weight(1, 1, 1, 1, 1, 0, 0)
}

package graph

// Tests and fuzz targets for the mutable CSR overlay: structural
// invariants under run splices, row appends and compaction, checked
// against a map-based model graph. The fuzz targets drive randomized op
// streams — including malformed ones (out-of-range neighbors, self
// loops, duplicate splices, empty rows) — and assert that valid ops keep
// the overlay equal to the model while invalid ops error without
// mutating state.

import (
	"context"
	"testing"

	"blast/internal/blocking"
	"blast/internal/model"
	"blast/internal/stats"
)

// modelEntry mirrors one directed adjacency entry.
type modelEntry struct {
	common   int32
	arcs     float64
	entropy  float64
	weight   float64
	retained bool
}

// modelGraph is the reference implementation: directed entries keyed by
// (node, neighbor).
type modelGraph map[[2]int32]*modelEntry

// modelFromCSR seeds the model from a base CSR and retention mask.
func modelFromCSR(g *CSR, retained []bool) modelGraph {
	m := make(modelGraph)
	for n := 0; n < g.NumProfiles; n++ {
		for p := g.Offsets[n]; p < g.Offsets[n+1]; p++ {
			e := &modelEntry{weight: g.Weights[p], retained: retained[p]}
			if g.Common != nil {
				e.common, e.arcs, e.entropy = g.Common[p], g.ARCS[p], g.EntropySum[p]
			}
			m[[2]int32{int32(n), g.Neighbors[p]}] = e
		}
	}
	return m
}

// checkOverlayMatchesModel asserts every live run equals the model:
// strictly ascending neighbors, exact stats, weights and marks.
func checkOverlayMatchesModel(t *testing.T, o *Overlay, m modelGraph, nodes int) {
	t.Helper()
	if o.NumProfiles() != nodes {
		t.Fatalf("NumProfiles = %d, want %d", o.NumProfiles(), nodes)
	}
	entries := 0
	for n := 0; n < nodes; n++ {
		run := o.Run(int32(n))
		deg := 0
		for k := range m {
			if k[0] == int32(n) {
				deg++
			}
		}
		if len(run.Neighbors) != deg || o.Degree(int32(n)) != deg {
			t.Fatalf("node %d: run length %d, want %d", n, len(run.Neighbors), deg)
		}
		prev := int32(-1)
		for i, v := range run.Neighbors {
			if v <= prev {
				t.Fatalf("node %d: run not strictly ascending at %d", n, i)
			}
			prev = v
			e := m[[2]int32{int32(n), v}]
			if e == nil {
				t.Fatalf("node %d: unexpected neighbor %d", n, v)
			}
			if run.Common != nil && (run.Common[i] != e.common || run.ARCS[i] != e.arcs || run.EntropySum[i] != e.entropy) {
				t.Fatalf("entry (%d,%d): stats (%d,%v,%v), want (%d,%v,%v)",
					n, v, run.Common[i], run.ARCS[i], run.EntropySum[i], e.common, e.arcs, e.entropy)
			}
			if run.Weights[i] != e.weight || run.Retained[i] != e.retained {
				t.Fatalf("entry (%d,%d): w/ret (%v,%v), want (%v,%v)",
					n, v, run.Weights[i], run.Retained[i], e.weight, e.retained)
			}
			pos, ok := o.FindNeighbor(int32(n), v)
			if !ok || pos != i {
				t.Fatalf("FindNeighbor(%d,%d) = (%d,%v), want (%d,true)", n, v, pos, ok, i)
			}
			entries++
		}
	}
	if int64(entries) != 2*int64(o.NumEdges()) && entries != int(2*int64(o.NumEdges()))+entries%2 {
		// numEntries is directed-entry count; NumEdges floors halves.
		t.Fatalf("entry count %d inconsistent with NumEdges %d", entries, o.NumEdges())
	}
}

// checkCompacted compacts the overlay and asserts the flat CSR carries
// the same graph (offsets monotone, runs ascending, model equality), and
// that a rewrapped overlay still matches.
func checkCompacted(t *testing.T, o *Overlay, m modelGraph) (*Overlay, *CSR) {
	t.Helper()
	csr, retained, err := o.Compact(context.Background())
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if len(retained) != len(csr.Neighbors) {
		t.Fatalf("retained length %d, entries %d", len(retained), len(csr.Neighbors))
	}
	if csr.Offsets[0] != 0 || csr.Offsets[csr.NumProfiles] != int64(len(csr.Neighbors)) {
		t.Fatalf("offsets endpoints wrong: %d..%d of %d", csr.Offsets[0], csr.Offsets[csr.NumProfiles], len(csr.Neighbors))
	}
	for n := 0; n < csr.NumProfiles; n++ {
		if csr.Offsets[n+1] < csr.Offsets[n] {
			t.Fatalf("offsets not monotone at %d", n)
		}
	}
	no := NewOverlay(csr, retained)
	checkOverlayMatchesModel(t, no, m, csr.NumProfiles)
	return no, csr
}

// fuzzBase builds a small random base graph with weights and marks.
func fuzzBase(seed uint64, profiles, blocks int) (*CSR, []bool) {
	rng := stats.NewRNG(seed)
	c := blocking.RandomCollection(rng, model.Dirty, profiles, blocks)
	g := buildCSR(c)
	retained := make([]bool, len(g.Neighbors))
	for i := range g.Weights {
		g.Weights[i] = rng.Float64() * 10
		retained[i] = rng.Intn(2) == 0
	}
	return g, retained
}

// byteCursor consumes fuzz bytes as bounded integers; exhaustion sets
// done and yields zeros so in-flight ops stay valid.
type byteCursor struct {
	data []byte
	pos  int
	done bool
}

func (b *byteCursor) next(n int) int {
	if b.pos >= len(b.data) {
		b.done = true
		return 0
	}
	if n <= 0 {
		return 0
	}
	v := int(b.data[b.pos]) % n
	b.pos++
	return v
}

// runOverlayOps drives an op stream derived from fuzz bytes against an
// overlay and its model, checking equality after every op.
func runOverlayOps(t *testing.T, data []byte, compactible bool) {
	if len(data) < 2 {
		return
	}
	cur := &byteCursor{data: data}
	g, retained := fuzzBase(uint64(data[0])<<8|uint64(data[1]), 6+cur.next(10), 4+cur.next(12))
	m := modelFromCSR(g, retained)
	o := NewOverlay(g, retained)
	nodes := o.NumProfiles()

	for !cur.done {
		switch cur.next(8) {
		case 0: // append a new node's row (sometimes empty)
			deg := cur.next(5)
			row := &Row{}
			prev := -1
			for i := 0; i < deg; i++ {
				v := prev + 1 + cur.next(3)
				if v >= nodes {
					break
				}
				prev = v
				row.Neighbors = append(row.Neighbors, int32(v))
				row.Common = append(row.Common, int32(1+cur.next(3)))
				row.ARCS = append(row.ARCS, float64(cur.next(16)))
				row.EntropySum = append(row.EntropySum, float64(cur.next(8)))
				row.Weights = append(row.Weights, 0)
				row.Retained = append(row.Retained, false)
			}
			id, err := o.AppendRow(row, int32(row.Len()))
			if err != nil {
				t.Fatalf("valid AppendRow failed: %v", err)
			}
			if int(id) != nodes {
				t.Fatalf("AppendRow id = %d, want %d", id, nodes)
			}
			for i, v := range row.Neighbors {
				m[[2]int32{id, v}] = &modelEntry{common: row.Common[i], arcs: row.ARCS[i], entropy: row.EntropySum[i]}
			}
			nodes++
		case 1: // malformed append: self loop / out of range / unsorted
			bad := &Row{
				Neighbors:  []int32{int32(nodes + cur.next(3))},
				Common:     []int32{1},
				ARCS:       []float64{1},
				EntropySum: []float64{0},
				Weights:    []float64{0},
				Retained:   []bool{false},
			}
			if cur.next(2) == 0 && nodes >= 2 {
				bad.Neighbors = []int32{1, 0} // unsorted, wrong array lengths too
			}
			if _, err := o.AppendRow(bad, 1); err == nil {
				t.Fatal("malformed AppendRow accepted")
			}
			if o.NumProfiles() != nodes {
				t.Fatal("failed AppendRow mutated the overlay")
			}
		case 2: // valid splice (replace when present)
			if nodes < 2 {
				continue
			}
			u := int32(cur.next(nodes))
			v := int32(cur.next(nodes))
			if u == v {
				continue
			}
			common := int32(1 + cur.next(4))
			arcs := float64(cur.next(16))
			h := float64(cur.next(4))
			pos, inserted, err := o.Splice(u, v, common, arcs, h)
			if err != nil {
				t.Fatalf("valid Splice(%d,%d): %v", u, v, err)
			}
			key := [2]int32{u, v}
			if e := m[key]; e == nil {
				if !inserted {
					t.Fatalf("Splice(%d,%d) reported replace of a missing entry", u, v)
				}
				m[key] = &modelEntry{common: common, arcs: arcs, entropy: h}
			} else {
				if inserted {
					t.Fatalf("Splice(%d,%d) duplicated an entry", u, v)
				}
				e.common, e.arcs, e.entropy = common, arcs, h
			}
			if got := o.Run(u).Neighbors[pos]; got != v {
				t.Fatalf("Splice position %d holds %d, want %d", pos, got, v)
			}
		case 3: // malformed splice: self loop or out-of-range endpoint
			u := int32(cur.next(nodes))
			v := u
			if cur.next(2) == 0 {
				v = int32(nodes + cur.next(5))
			}
			if _, _, err := o.Splice(u, v, 1, 0, 0); err == nil {
				t.Fatalf("malformed Splice(%d,%d) accepted", u, v)
			}
		case 4: // write-through weight
			u := int32(cur.next(nodes))
			run := o.Run(u)
			if len(run.Neighbors) == 0 {
				continue
			}
			pos := cur.next(len(run.Neighbors))
			w := float64(cur.next(32))
			o.SetWeight(u, pos, w)
			m[[2]int32{u, run.Neighbors[pos]}].weight = w
			if o.WeightAt(u, pos) != w {
				t.Fatal("SetWeight not observed")
			}
		case 5: // write-through retention mark
			u := int32(cur.next(nodes))
			run := o.Run(u)
			if len(run.Neighbors) == 0 {
				continue
			}
			pos := cur.next(len(run.Neighbors))
			val := cur.next(2) == 0
			e := m[[2]int32{u, run.Neighbors[pos]}]
			if old := o.SetRetained(u, pos, val); old != e.retained {
				t.Fatalf("SetRetained returned %v, want %v", old, e.retained)
			}
			e.retained = val
			if o.RetainedAt(u, pos) != val {
				t.Fatal("SetRetained not observed")
			}
		case 6: // stats bookkeeping ops
			o.AddBlocks(cur.next(3))
			o.AddComparisons(int64(cur.next(5)))
			o.IncBlockCount(int32(cur.next(nodes)))
		case 7: // compaction checkpoint
			if compactible {
				o, _ = checkCompacted(t, o, m)
			}
		}
	}
	checkOverlayMatchesModel(t, o, m, nodes)
	checkCompacted(t, o, m)
}

// FuzzOverlaySplice fuzzes the run-splice and row-append ops (with
// malformed variants) against the model graph.
func FuzzOverlaySplice(f *testing.F) {
	f.Add([]byte{1, 2, 0, 2, 4, 2, 0, 0, 2, 2, 2})
	f.Add([]byte{9, 0, 2, 2, 2, 3, 3, 1, 0, 5, 4, 6, 2, 2})
	f.Add([]byte{200, 17, 0, 4, 1, 1, 2, 5, 4, 3, 2, 2, 2, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		runOverlayOps(t, data, false)
	})
}

// FuzzOverlayCompaction interleaves compaction checkpoints into the op
// stream, so base/overlay boundaries land in arbitrary states.
func FuzzOverlayCompaction(f *testing.F) {
	f.Add([]byte{3, 4, 2, 2, 7, 2, 0, 7, 2, 5, 7})
	f.Add([]byte{77, 1, 0, 0, 7, 2, 2, 7, 4, 5, 6, 7, 2, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		runOverlayOps(t, data, true)
	})
}

// TestOverlayOpsDeterministic replays the fuzz corpus shapes as ordinary
// tests (the fuzz engine only runs them under -fuzz).
func TestOverlayOpsDeterministic(t *testing.T) {
	seeds := [][]byte{
		{1, 2, 0, 2, 4, 2, 0, 0, 2, 2, 2},
		{9, 0, 2, 2, 2, 3, 3, 1, 0, 5, 4, 6, 2, 2},
		{200, 17, 0, 4, 1, 1, 2, 5, 4, 3, 2, 2, 2, 2, 0},
		{3, 4, 2, 2, 7, 2, 0, 7, 2, 5, 7},
		{77, 1, 0, 0, 7, 2, 2, 7, 4, 5, 6, 7, 2, 7},
		{42, 42, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 7, 0, 0, 0, 7, 5, 5, 5},
	}
	for i, s := range seeds {
		s := s
		t.Run(string(rune('a'+i)), func(t *testing.T) {
			runOverlayOps(t, s, true)
		})
	}
	// Longer pseudo-random streams for coverage breadth.
	rng := stats.NewRNG(1234)
	for i := 0; i < 20; i++ {
		data := make([]byte, 40+rng.Intn(120))
		for j := range data {
			data[j] = byte(rng.Intn(256))
		}
		runOverlayOps(t, data, true)
	}
}

// TestOverlayViewsMatchBase: a fresh overlay must serve exactly the base
// runs, and overlay bookkeeping must start at the base totals.
func TestOverlayViewsMatchBase(t *testing.T) {
	g, retained := fuzzBase(7, 12, 20)
	o := NewOverlay(g, retained)
	if o.NumProfiles() != g.NumProfiles || o.NumEdges() != g.NumEdges() {
		t.Fatalf("overlay totals (%d,%d) != base (%d,%d)", o.NumProfiles(), o.NumEdges(), g.NumProfiles, g.NumEdges())
	}
	if o.TotalBlocks() != g.TotalBlocks || o.TotalComparisons() != g.TotalComparisons {
		t.Fatal("collection totals not copied")
	}
	if o.OverlayEntries() != 0 || o.OverlayLoad() != 0 {
		t.Fatal("fresh overlay reports materialized rows")
	}
	checkOverlayMatchesModel(t, o, modelFromCSR(g, retained), g.NumProfiles)
	// Canonical iteration covers each edge exactly once with u < v.
	seen := 0
	err := o.ForEachCanonical(context.Background(), func(u, v int32, w float64, ret bool) {
		if u >= v {
			t.Fatalf("non-canonical visit (%d,%d)", u, v)
		}
		seen++
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != g.NumEdges() {
		t.Fatalf("canonical visits %d, want %d", seen, g.NumEdges())
	}
}

// TestOverlayReplaceStats validates the length contract and value
// replacement of ReplaceStats.
func TestOverlayReplaceStats(t *testing.T) {
	g, retained := fuzzBase(11, 8, 14)
	o := NewOverlay(g, retained)
	var n int32 = -1
	for i := 0; i < g.NumProfiles; i++ {
		if g.Degree(i) > 0 {
			n = int32(i)
			break
		}
	}
	if n < 0 {
		t.Skip("no edges in base")
	}
	deg := o.Degree(n)
	if err := o.ReplaceStats(n, make([]int32, deg+1), make([]float64, deg+1), make([]float64, deg+1)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	common := make([]int32, deg)
	arcs := make([]float64, deg)
	h := make([]float64, deg)
	for i := range common {
		common[i] = int32(i + 1)
		arcs[i] = float64(i) * 0.5
		h[i] = float64(i) * 0.25
	}
	oldW := append([]float64(nil), o.Run(n).Weights...)
	if err := o.ReplaceStats(n, common, arcs, h); err != nil {
		t.Fatal(err)
	}
	run := o.Run(n)
	for i := range common {
		if run.Common[i] != common[i] || run.ARCS[i] != arcs[i] || run.EntropySum[i] != h[i] {
			t.Fatalf("stats not replaced at %d", i)
		}
		if run.Weights[i] != oldW[i] {
			t.Fatal("ReplaceStats disturbed weights")
		}
	}
}

// TestOverlayCompactReleasedStats: a base whose co-occurrence stats were
// released cannot compact (the mutable index never releases them).
func TestOverlayCompactReleasedStats(t *testing.T) {
	g, retained := fuzzBase(13, 10, 16)
	if g.NumEdges() == 0 {
		t.Skip("no edges")
	}
	g.ReleaseStats()
	o := NewOverlay(g, retained)
	if _, _, err := o.Compact(context.Background()); err == nil {
		t.Fatal("Compact over released stats should error")
	}
}

// TestOverlayCompactCancellation: a cancelled context aborts compaction.
func TestOverlayCompactCancellation(t *testing.T) {
	g, retained := fuzzBase(17, 2100, 300)
	o := NewOverlay(g, retained)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := o.Compact(ctx); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// The per-row passes behind Decide. Each runs over the rows whose runs
// the CSR holds — every row of a whole graph, the owned rows of a
// partitioned shard's owned-rows CSR (graph.BuildCSR with owns: full-
// length Offsets, adjacency runs only for owned rows) — and yields
// per-row values an Aggregator merges by ownership, or histograms it
// folds commutatively. Because an owned row's run is its node's complete
// adjacency, every node-local input (a threshold, a top-k mark list) is
// computed whole by the row's one owner, and the merged aggregates
// reproduce the exact reduction shapes of a whole-graph pass:
//
//   - WEP:  per-row weight sums and counts (rowWeightSums), refolded
//     row-within-chunk, chunk order (FoldRowSums) → the mean.
//   - CEP:  counting histograms (countCutHist, select.go), one cutScan
//     step per fold; a partial tie budget settles by the crossing row
//     of the per-row tie counts (rowTieCounts, see crossingRow).
//   - WNP / BlastWNP: per-node thresholds (rowThresholds).
//   - CNP:  per-row top-k marked-neighbor lists (rowTopKMarks); an edge
//     consults both endpoints' lists by binary search.
//
// The retention mask of the held rows is MarkOwned's: every entry, in
// both orientations, decided by the merged decision's Keep, so each
// party decides every entry it holds without any per-edge exchange.
package prune

import (
	"context"
	"slices"

	"blast/internal/graph"
)

// rowWeightSums computes, per row, the left-to-right weight sum and
// count of the canonical entries whose smaller endpoint is the row.
// Over an owned-rows CSR only owned rows are populated; the per-shard
// vectors of a partitioned server are disjoint, so scattering them by
// ownership (in any shard order) yields the whole graph's row vectors.
func rowWeightSums(ctx context.Context, g *graph.CSR, workers int) (sums []float64, counts []int64, err error) {
	sums = make([]float64, g.NumProfiles)
	counts = make([]int64, g.NumProfiles)
	err = runChunks(ctx, workers, numChunks(g.NumProfiles), func(w *pruneWorker, chunk int) error {
		// Chunks own disjoint row ranges, so these writes never race.
		return forChunkCanonical(g, w, chunk, func(u int32, _ []int32, wts []float64) {
			for _, wt := range wts {
				sums[u] += wt
			}
			counts[u] += int64(len(wts))
		})
	})
	if err != nil {
		return nil, nil, err
	}
	return sums, counts, nil
}

// FoldRowSums folds whole-graph per-row weight sums with a fixed
// reduction shape: rows with at least one canonical entry fold in
// ascending row order into per-chunk partials (chunks of chunkNodes
// rows), and the chunk partials combine in chunk order. The shape
// depends only on the rows, never on the worker or shard count, so the
// total is bit-identical however the row sums were produced; edges is
// the graph's canonical edge count.
func FoldRowSums(sums []float64, counts []int64) (total float64, edges int64) {
	chunk := -1
	partial := 0.0
	for u := range sums {
		if counts[u] == 0 {
			// Rows without canonical entries never contribute a fold —
			// skipping them (rather than adding their 0) is what keeps
			// the reduction exact even for signed zeros.
			continue
		}
		edges += counts[u]
		if c := u / chunkNodes; c != chunk {
			if chunk >= 0 {
				total += partial
			}
			partial, chunk = 0, c
		}
		partial += sums[u]
	}
	if chunk >= 0 {
		total += partial
	}
	return total, edges
}

// rowTieCounts computes, per row, how many of the row's canonical
// entries carry exactly the cut weight. Prefix sums over the merged
// vector rank every tie in canonical order.
func rowTieCounts(ctx context.Context, g *graph.CSR, workers int, cut float64) ([]int64, error) {
	ties := make([]int64, g.NumProfiles)
	err := runChunks(ctx, workers, numChunks(g.NumProfiles), func(w *pruneWorker, chunk int) error {
		return forChunkCanonical(g, w, chunk, func(u int32, _ []int32, wts []float64) {
			for _, wt := range wts {
				if wt == cut {
					ties[u]++
				}
			}
		})
	})
	if err != nil {
		return nil, err
	}
	return ties, nil
}

// MarkOwned runs the retention mark pass over every entry of the
// graph's populated rows: each positive-weight entry (u, v) — u the row,
// v the neighbor, in BOTH orientations of every edge the row holds — is
// decided by keep (nil marks nothing), and marks counts the entries
// marked. Over an owned-rows CSR the populated rows are exactly the
// owned ones, and since each shard's rows are disjoint, summing the
// per-shard marks counts every retained edge exactly twice (once per
// endpoint, whoever owns it): the global retained-pair count is the
// exchanged sum over two.
func MarkOwned(ctx context.Context, g *graph.CSR, workers int, keep Keep) (retained []bool, marks int64, err error) {
	retained = make([]bool, g.NumEntries())
	if keep == nil {
		return retained, 0, ctx.Err()
	}
	nch := numChunks(g.NumProfiles)
	perChunk := make([]int64, nch)
	err = runChunks(ctx, workers, nch, func(w *pruneWorker, chunk int) error {
		lo, hi := chunkBounds(chunk, g.NumProfiles)
		n := int64(0)
		for u := lo; u < hi; u++ {
			base, end := g.Offsets[u], g.Offsets[u+1]
			if base == end {
				continue
			}
			nbr, wts := g.Run(u)
			for p := base; p < end; {
				seg := end - p
				if seg > streamCancelCheckEdges {
					seg = streamCancelCheckEdges
				}
				for stop := p + seg; p < stop; p++ {
					if wt := wts[p-base]; wt > 0 && keep(int32(u), nbr[p-base], wt) {
						retained[p] = true
						n++
					}
				}
				if err := w.tick(int(seg)); err != nil {
					return err
				}
			}
		}
		perChunk[chunk] = n
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	for _, n := range perChunk {
		marks += n
	}
	return retained, marks, nil
}

// rowTopKMarks runs CNP's mark pass over the populated rows — each row
// marks its top-k adjacent entries by weight, stable on the adjacency
// order (k >= 1) — and returns the marks as per-row neighbor-id lists:
// ids[offsets[u]:offsets[u+1]] are row u's marked neighbors, ascending
// (adjacency runs are sorted). A row marks min(k, its run length)
// entries, so the offsets are known before the pass and chunks fill
// disjoint ranges of ids.
func rowTopKMarks(ctx context.Context, g *graph.CSR, k, workers int) (offsets []int64, ids []int32, err error) {
	offsets = make([]int64, g.NumProfiles+1)
	for n := 0; n < g.NumProfiles; n++ {
		offsets[n+1] = offsets[n] + min(int64(k), g.Offsets[n+1]-g.Offsets[n])
	}
	ids = make([]int32, offsets[g.NumProfiles])
	err = runChunks(ctx, workers, numChunks(g.NumProfiles), func(w *pruneWorker, chunk int) error {
		lo, hi := chunkBounds(chunk, g.NumProfiles)
		for n := lo; n < hi; n++ {
			rlo, rhi := g.Offsets[n], g.Offsets[n+1]
			if rlo == rhi {
				continue
			}
			nbr, ws := g.Run(n)
			order := w.order[:0]
			for p := rlo; p < rhi; {
				seg := rhi - p
				if seg > streamCancelCheckEdges {
					seg = streamCancelCheckEdges
				}
				for stop := p + seg; p < stop; p++ {
					order = append(order, p-rlo)
				}
				w.order = order
				if err := w.tick(int(seg)); err != nil {
					return err
				}
			}
			slices.SortStableFunc(order, func(a, b int64) int {
				switch wa, wb := ws[a], ws[b]; {
				case wa > wb:
					return -1
				case wa < wb:
					return 1
				default:
					return 0
				}
			})
			top := order[:offsets[n+1]-offsets[n]]
			slices.Sort(top)
			for i, p := range top {
				ids[offsets[n]+int64(i)] = nbr[p]
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return offsets, ids, nil
}

// runReducer reduces one adjacency run to a per-node threshold, polling
// the worker's cancellation budget between edge segments. Segmentation
// pauses the loop, it never reorders the arithmetic, so a run reduces
// to the same bits whatever the segment stride.
type runReducer func(w *pruneWorker, ws []float64) (float64, error)

// meanReducer is WNP's reducer: the mean adjacent weight, summed in run
// order.
func meanReducer(w *pruneWorker, ws []float64) (float64, error) {
	n := len(ws)
	s := 0.0
	for len(ws) > 0 {
		seg := min(len(ws), streamCancelCheckEdges)
		for _, x := range ws[:seg] {
			s += x
		}
		ws = ws[seg:]
		if err := w.tick(seg); err != nil {
			return 0, err
		}
	}
	return s / float64(n), nil
}

// blastReducer is BLAST's reducer theta_i = M_i/c (c > 0).
func blastReducer(c float64) runReducer {
	return func(w *pruneWorker, ws []float64) (float64, error) {
		m := ws[0]
		for len(ws) > 0 {
			seg := min(len(ws), streamCancelCheckEdges)
			for _, x := range ws[:seg] {
				if x > m {
					m = x
				}
			}
			ws = ws[seg:]
			if err := w.tick(seg); err != nil {
				return 0, err
			}
		}
		return m / c, nil
	}
}

// wholeRun adapts a reducer to one run read outside any pass (an
// incremental writer's re-reduction of a spliced run): it never
// cancels, and an empty run yields 0 exactly as in rowThresholds.
func wholeRun(reduce runReducer) func(ws []float64) float64 {
	return func(ws []float64) float64 {
		if len(ws) == 0 {
			return 0
		}
		th, _ := reduce(&pruneWorker{ctx: context.Background(), budget: streamCancelCheckEdges}, ws)
		return th
	}
}

// rowThresholds reduces each populated row's run, in adjacency
// (ascending neighbor) order, to its node's threshold; nodes without
// edges get 0. Chunks write disjoint index ranges and the values are
// per-node, so the worker count cannot change a single bit.
func rowThresholds(ctx context.Context, g *graph.CSR, workers int, reduce runReducer) ([]float64, error) {
	th := make([]float64, g.NumProfiles)
	err := runChunks(ctx, workers, numChunks(g.NumProfiles), func(w *pruneWorker, chunk int) error {
		lo, hi := chunkBounds(chunk, g.NumProfiles)
		for n := lo; n < hi; n++ {
			if g.Offsets[n] == g.Offsets[n+1] {
				continue
			}
			_, ws := g.Run(n)
			v, err := reduce(w, ws)
			if err != nil {
				return err
			}
			th[n] = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return th, nil
}

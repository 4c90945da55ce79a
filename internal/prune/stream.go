// Streaming (node-centric) implementations of the pruning schemes over
// the CSR blocking graph. They consume graph.CSR — where no edge list
// exists — and emit the retained pairs directly, in canonical (u, v)
// order.
//
// Every streaming scheme runs its passes — per-node thresholds, top-k
// marking, histogram counting, retention emission — over the fixed node
// chunks of parallel.go on `workers` goroutines (0 selects GOMAXPROCS),
// and the output is byte-identical for every worker count: chunk
// boundaries are a pure function of the node count, per-chunk float
// partials are combined in chunk order, and per-chunk output buffers
// are stitched in canonical order. Even the global schemes WEP/CEP now
// run in O(adjacency-run) scratch: WEP's mean is a chunked sum and
// CEP's cut comes from the bounded histogram selection of select.go
// instead of a flat O(|E|) weight sort.
//
// Every streaming scheme takes a context and supports cooperative
// cancellation: each pass polls ctx at edge-segment granularity — even
// inside a single hub node's adjacency run — and returns ctx.Err() as
// soon as cancellation is observed, discarding partial output.
package prune

import (
	"context"
	"slices"

	"blast/internal/graph"
	"blast/internal/model"
)

// WEPStream is WEP over the CSR graph: discard every edge whose weight
// is below the mean edge weight. The mean's numerator is the chunked
// canonical weight sum (combined in chunk order), which a partitioned
// server refolds bit for bit from exchanged row sums.
func WEPStream(ctx context.Context, g *graph.CSR, workers int) ([]model.IDPair, error) {
	if g.NumEdges() == 0 {
		return nil, ctx.Err()
	}
	sums, counts, err := chunkPartialSums(ctx, g, workers)
	if err != nil {
		return nil, err
	}
	theta := combinePartials(sums, counts) / float64(g.NumEdges())
	return emitChunked(ctx, g, workers, func(_, _ int32, _ int64, wt float64) bool {
		return wt >= theta
	})
}

// CEPStream is CEP over the CSR graph: retain the globally top-k edges
// by weight (k <= 0 uses the block-membership budget), breaking ties at
// the cut in favor of canonically smaller pairs — the tie rule of a
// stable descending sort over canonical order. The cut is located by the
// bounded histogram selection of select.go; no O(|E|) weight scratch is
// ever allocated.
func CEPStream(ctx context.Context, g *graph.CSR, k, workers int) ([]model.IDPair, error) {
	ne := g.NumEdges()
	if ne == 0 {
		return nil, ctx.Err()
	}
	if k <= 0 {
		k = cepBudget(g.BlockCounts)
	}
	if k > ne {
		k = ne
	}
	if k <= 0 {
		return nil, ctx.Err()
	}
	cut, greater, ties, err := selectCut(ctx, g, workers, k)
	if err != nil {
		return nil, err
	}
	// How many budget slots remain for edges that tie with the cut;
	// edges strictly above it are always in. Ties consume their slots in
	// canonical order (and even when zero-filtered below). When the
	// budget covers every tie — the common case of distinct weights,
	// where the single tie IS the k-th edge — or covers none, no
	// per-edge tie ordinal is needed and one emission pass suffices.
	rem := int64(k - greater)
	if rem >= int64(ties) {
		return emitChunked(ctx, g, workers, func(_, _ int32, _ int64, wt float64) bool {
			return wt >= cut
		})
	}
	if rem <= 0 {
		return emitChunked(ctx, g, workers, func(_, _ int32, _ int64, wt float64) bool {
			return wt > cut
		})
	}
	// Partial tie budget: count ties per chunk, prefix-sum the counts in
	// chunk order to give every chunk its starting tie ordinal, then
	// emit.
	nch := numChunks(g.NumProfiles)
	tiesPerChunk := make([]int64, nch)
	err = runChunks(ctx, workers, nch, func(w *pruneWorker, chunk int) error {
		n := int64(0)
		err := forChunkCanonical(g, w, chunk, func(_, _ int32, _ int64, wt float64) {
			if wt == cut {
				n++
			}
		})
		tiesPerChunk[chunk] = n
		return err
	})
	if err != nil {
		return nil, err
	}
	tieBase := make([]int64, nch)
	base := int64(0)
	for i, n := range tiesPerChunk {
		tieBase[i] = base
		base += n
	}
	bufs := make([][]model.IDPair, nch)
	err = runChunks(ctx, workers, nch, func(w *pruneWorker, chunk int) error {
		tie := tieBase[chunk]
		var out []model.IDPair
		err := forChunkCanonical(g, w, chunk, func(u, v int32, _ int64, wt float64) {
			take := wt > cut
			if !take && wt == cut {
				take = tie < rem
				tie++
			}
			if take && wt > 0 {
				out = append(out, model.IDPair{U: u, V: v})
			}
		})
		bufs[chunk] = out
		return err
	})
	if err != nil {
		return nil, err
	}
	return stitchPairs(bufs), nil
}

// runReducer reduces one adjacency run to a per-node threshold, polling
// the worker's cancellation budget between edge segments. Implementations
// must be bit-identical to their whole-run counterparts (MeanThresholdOf,
// BlastThresholdOf): segmentation pauses the loop, it never reorders the
// arithmetic.
type runReducer func(w *pruneWorker, ws []float64) (float64, error)

// meanReducer is MeanThresholdOf with in-run cancellation polls.
func meanReducer(w *pruneWorker, ws []float64) (float64, error) {
	n := len(ws)
	s := 0.0
	for len(ws) > 0 {
		seg := len(ws)
		if seg > streamCancelCheckEdges {
			seg = streamCancelCheckEdges
		}
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

// blastReducer is BlastThresholdOf with in-run cancellation polls.
func blastReducer(c float64) runReducer {
	if c <= 0 {
		c = 2
	}
	return func(w *pruneWorker, ws []float64) (float64, error) {
		m := ws[0]
		for len(ws) > 0 {
			seg := len(ws)
			if seg > streamCancelCheckEdges {
				seg = streamCancelCheckEdges
			}
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

// nodeThresholdsCSR computes a per-node threshold by reducing each
// node's adjacent weights; nodes without edges get 0. Each run is
// reduced in adjacency (ascending neighbor) order.
// Chunks run on `workers` goroutines, writing disjoint index ranges of
// the result; the values are per-node, so the worker count cannot
// change a single bit.
func nodeThresholdsCSR(ctx context.Context, g *graph.CSR, workers int, reduce runReducer) ([]float64, error) {
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

// MeanThresholdOf is WNP's per-node reducer over one adjacency run: the
// mean adjacent weight, summed in run order so the value is bit-identical
// whether computed by a full pass (MeanThresholds) or by an incremental
// re-reduction of a single spliced run. Empty runs yield 0.
func MeanThresholdOf(ws []float64) float64 {
	if len(ws) == 0 {
		return 0
	}
	s := 0.0
	for _, w := range ws {
		s += w
	}
	return s / float64(len(ws))
}

// BlastThresholdOf is BLAST's per-node reducer over one adjacency run:
// theta_i = M_i/c (c <= 0 defaults to 2). Empty runs yield 0.
func BlastThresholdOf(ws []float64, c float64) float64 {
	if len(ws) == 0 {
		return 0
	}
	if c <= 0 {
		c = 2
	}
	m := ws[0]
	for _, w := range ws[1:] {
		if w > m {
			m = w
		}
	}
	return m / c
}

// MeanThresholds returns WNP's per-node thresholds over the CSR graph:
// the mean adjacent weight of every node (0 for edgeless nodes). It is
// the exact reducer WNPStream prunes with, exported so index consumers
// expose the same values the retention decision used. workers selects
// the goroutine count (0 = GOMAXPROCS); the values are identical either
// way.
func MeanThresholds(ctx context.Context, g *graph.CSR, workers int) ([]float64, error) {
	return nodeThresholdsCSR(ctx, g, workers, meanReducer)
}

// BlastThresholds returns BLAST's per-node thresholds theta_i = M_i/c
// over the CSR graph (0 for edgeless nodes; c <= 0 defaults to 2). It is
// the exact reducer BlastWNPStream prunes with, exported so index
// consumers expose the same values the retention decision used. workers
// selects the goroutine count (0 = GOMAXPROCS); the values are identical
// either way.
func BlastThresholds(ctx context.Context, g *graph.CSR, c float64, workers int) ([]float64, error) {
	return nodeThresholdsCSR(ctx, g, workers, blastReducer(c))
}

// WNPStream is WNP over the CSR graph: per-node mean-weight thresholds,
// resolved per edge according to mode.
func WNPStream(ctx context.Context, g *graph.CSR, mode Mode, workers int) ([]model.IDPair, error) {
	th, err := MeanThresholds(ctx, g, workers)
	if err != nil {
		return nil, err
	}
	return emitByThreshold(ctx, g, workers, func(w, thU, thV float64) bool {
		overU := w >= thU
		overV := w >= thV
		if mode == Redefined {
			return overU || overV
		}
		return overU && overV
	}, th)
}

// BlastWNPStream is BLAST's pruning (Section 3.3.2) over the CSR graph:
// theta_i = M_i / c per node, retain iff w >= (theta_u + theta_v) / d.
func BlastWNPStream(ctx context.Context, g *graph.CSR, c, d float64, workers int) ([]model.IDPair, error) {
	if d <= 0 {
		d = 2
	}
	th, err := BlastThresholds(ctx, g, c, workers)
	if err != nil {
		return nil, err
	}
	return emitByThreshold(ctx, g, workers, func(w, thU, thV float64) bool {
		return w >= (thU+thV)/d
	}, th)
}

// emitByThreshold runs the retention pass shared by the weight-based
// node-centric schemes: every positive-weight canonical edge is tested
// against its endpoints' thresholds.
func emitByThreshold(ctx context.Context, g *graph.CSR, workers int, keep func(w, thU, thV float64) bool, th []float64) ([]model.IDPair, error) {
	return emitChunked(ctx, g, workers, func(u, v int32, _ int64, wt float64) bool {
		return keep(wt, th[u], th[v])
	})
}

// CNPStream is CNP over the CSR graph: each node marks its top-k
// adjacent edges by weight (stable on the adjacency order), and an edge is retained if the marks of its endpoints
// satisfy the mode. The mark pass writes only positions inside its
// chunk's runs, so chunks never race; the retention pass locates each
// edge's mirror entry by binary search instead of the serial cursor
// sweep, which lets chunks resolve marks independently.
func CNPStream(ctx context.Context, g *graph.CSR, k int, mode Mode, workers int) ([]model.IDPair, error) {
	if g.NumEdges() == 0 {
		return nil, ctx.Err()
	}
	if k <= 0 {
		k = cnpBudget(g.BlockCounts)
		if k == 0 {
			return nil, ctx.Err()
		}
	}
	mark := make([]bool, g.NumEntries())
	err := runChunks(ctx, workers, numChunks(g.NumProfiles), func(w *pruneWorker, chunk int) error {
		lo, hi := chunkBounds(chunk, g.NumProfiles)
		for n := lo; n < hi; n++ {
			rlo, rhi := g.Offsets[n], g.Offsets[n+1]
			if rlo == rhi {
				continue
			}
			_, ws := g.Run(n)
			order := w.order[:0]
			for p := rlo; p < rhi; {
				seg := rhi - p
				if seg > streamCancelCheckEdges {
					seg = streamCancelCheckEdges
				}
				for stop := p + seg; p < stop; p++ {
					order = append(order, p)
				}
				w.order = order
				if err := w.tick(int(seg)); err != nil {
					return err
				}
			}
			slices.SortStableFunc(order, func(a, b int64) int {
				switch wa, wb := ws[a-rlo], ws[b-rlo]; {
				case wa > wb:
					return -1
				case wa < wb:
					return 1
				default:
					return 0
				}
			})
			limit := k
			if limit > len(order) {
				limit = len(order)
			}
			for _, p := range order[:limit] {
				mark[p] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return emitChunked(ctx, g, workers, func(u, v int32, p int64, _ float64) bool {
		mp := g.MirrorEntry(u, v)
		if mode == Reciprocal {
			return mark[p] && mark[mp]
		}
		return mark[p] || mark[mp]
	})
}

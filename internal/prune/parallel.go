// Parallel execution substrate of the pruning passes.
//
// Every pass of a retention decision is node-local (per-node
// thresholds, per-node top-k marks, per-row sums and tie counts) or
// visits canonical edges grouped by their smaller endpoint (histogram
// counting, retention). Both shapes parallelize over node ranges — but
// determinism, not speed, is the contract here: the decision must be
// byte-identical for every worker count and GOMAXPROCS. Three rules
// enforce it, designed in rather than bolted on (the PR 4 entropy
// ordering bug is the precedent for what happens otherwise):
//
//  1. Chunk boundaries are a pure function of (NumProfiles, chunkNodes).
//     They never depend on the worker count, the weight distribution or
//     load balancing, so every execution — serial included — reduces
//     over exactly the same partition.
//  2. Floating-point values are produced per row, and any fold across
//     rows has a fixed shape (FoldRowSums). Workers race only for
//     *which* chunk they compute, never for the order results are
//     folded.
//  3. Integer accumulators (histogram counts, tie counts) commute and
//     may be merged in any worker order; min/max merges likewise.
//
// Output buffers are per-chunk and stitched in chunk order, which is
// canonical (u, v) order because chunks partition the node space in
// ascending ranges.
package prune

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"blast/internal/graph"
	"blast/internal/model"
)

const (
	// chunkNodes is the fixed node width of a pruning chunk. It is part
	// of the determinism contract: chunk boundaries derive only from
	// NumProfiles and this constant, so the chunked float reductions are
	// identical for every worker count.
	chunkNodes = 2048
	// streamCancelCheckEdges is the edge granularity at which every
	// pruning pass polls for cancellation — including *inside* a single
	// adjacency run, so one hub node with a multi-million-edge run
	// cannot delay cancellation arbitrarily.
	streamCancelCheckEdges = 8192
)

// numChunks returns the number of fixed node chunks of a graph.
func numChunks(nodes int) int {
	if nodes <= 0 {
		return 0
	}
	return (nodes + chunkNodes - 1) / chunkNodes
}

// chunkBounds returns the half-open node range [lo, hi) of a chunk.
func chunkBounds(chunk, nodes int) (lo, hi int) {
	lo = chunk * chunkNodes
	hi = lo + chunkNodes
	if hi > nodes {
		hi = nodes
	}
	return lo, hi
}

// resolvePruneWorkers maps the Workers contract onto a concrete count:
// 0 (or negative) means one worker per CPU.
func resolvePruneWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// pruneWorker is the per-goroutine state of a chunked pruning pass: the
// worker's stable id (for passes accumulating into per-worker state,
// like the CEP selection histograms), the cancellation budget, and
// reusable scratch. It is never shared between goroutines.
type pruneWorker struct {
	ctx    context.Context
	id     int
	budget int
	// order is the reusable per-node sort scratch of the CNP mark pass.
	order []int64
}

// tick spends n edges of the cancellation budget and polls ctx when the
// budget is exhausted. Passes call it between edge segments, so polling
// never perturbs the arithmetic order of a reduction.
func (w *pruneWorker) tick(n int) error {
	w.budget -= n
	if w.budget <= 0 {
		w.budget = streamCancelCheckEdges
		return w.ctx.Err()
	}
	return nil
}

// pruneWorkerCount resolves how many workers runChunks will actually
// use for a pass over `chunks` chunks.
func pruneWorkerCount(workers, chunks int) int {
	workers = resolvePruneWorkers(workers)
	if workers > chunks {
		workers = chunks
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// runChunks executes fn(worker, chunk) for every chunk using at most
// `workers` goroutines (<= 0 selects GOMAXPROCS). Which worker computes
// which chunk is racy by design; callers must write results into
// per-chunk (or per-node or per-worker) slots so the output is
// independent of the assignment. Returns the first error observed
// (cancellation is the only error source; every worker returns the same
// ctx.Err()).
func runChunks(ctx context.Context, workers, chunks int, fn func(w *pruneWorker, chunk int) error) error {
	// Poll before any work: graphs smaller than one tick budget would
	// otherwise never observe an already-cancelled context, and every
	// pass must fail fast on one (the contract the serial schemes always
	// honored by polling at loop entry).
	if err := ctx.Err(); err != nil {
		return err
	}
	if chunks == 0 {
		return nil
	}
	workers = pruneWorkerCount(workers, chunks)
	if workers <= 1 {
		w := &pruneWorker{ctx: ctx, budget: streamCancelCheckEdges}
		for c := 0; c < chunks; c++ {
			if err := fn(w, c); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &pruneWorker{ctx: ctx, id: i, budget: streamCancelCheckEdges}
			for !failed.Load() {
				c := int(next.Add(1)) - 1
				if c >= chunks {
					return
				}
				if err := fn(w, c); err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forChunkCanonical invokes fn on the canonical (u < v) entries whose
// smaller endpoint u lies in the chunk, in canonical order, one segment
// at a time: nbr and wts are a stretch of at most streamCancelCheckEdges
// entries of u's run, and ctx is polled between segments — even inside
// a single long run. Runs are sorted by neighbor, so u's canonical
// entries are the suffix of its run past u; a binary search finds it.
// Runs are read through the CSR's run accessor — the one seam both the
// resident and the spilled (paged) backings serve byte-identical data
// through — so passes never index a flat weight array that may not be
// resident.
func forChunkCanonical(g *graph.CSR, w *pruneWorker, chunk int, fn func(u int32, nbr []int32, wts []float64)) error {
	lo, hi := chunkBounds(chunk, g.NumProfiles)
	for u := lo; u < hi; u++ {
		if g.Offsets[u] == g.Offsets[u+1] {
			continue
		}
		nbr, wts := g.Run(u)
		i, _ := slices.BinarySearch(nbr, int32(u)+1)
		for i < len(nbr) {
			j := min(len(nbr), i+streamCancelCheckEdges)
			fn(int32(u), nbr[i:j], wts[i:j])
			if err := w.tick(j - i); err != nil {
				return err
			}
			i = j
		}
	}
	return nil
}

// stitchPairs concatenates per-chunk pair buffers in chunk order into an
// exactly sized slice (nil when nothing was retained).
func stitchPairs(bufs [][]model.IDPair) []model.IDPair {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	if total == 0 {
		return nil
	}
	out := make([]model.IDPair, 0, total)
	for _, b := range bufs {
		out = append(out, b...)
	}
	return out
}

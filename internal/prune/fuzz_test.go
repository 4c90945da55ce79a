package prune

// FuzzPruneParallel is the serial-vs-parallel-vs-sharded differential
// fuzzer of the retention decision: the fuzz input derives a random
// block collection, a weighting scheme, a pruning scheme with its
// knobs, a worker count and a shard count. The parallel one-graph
// output must be byte-identical to the serial one, and owned-rows
// parties deciding through the exchange must reproduce the one-graph
// decision (checkShards). Registered in CI's fuzz smoke matrix.

import (
	"context"
	"fmt"
	"testing"

	"blast/internal/blocking"
	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/stats"
	"blast/internal/weights"
)

func FuzzPruneParallel(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), uint8(3), uint8(1))
	f.Add(uint64(42), uint8(1), uint8(2), uint8(1), uint8(0), uint8(2))
	f.Add(uint64(7919), uint8(0), uint8(5), uint8(3), uint8(7), uint8(3))
	f.Add(uint64(2654435761), uint8(1), uint8(6), uint8(4), uint8(16), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, kindB, pruneB, schemeB, workersB, partsB uint8) {
		ctx := context.Background()
		rng := stats.NewRNG(seed | 1)
		kind := model.Dirty
		if kindB%2 == 1 {
			kind = model.CleanClean
		}
		c := blocking.RandomCollection(rng, kind, 20+rng.Intn(80), 15+rng.Intn(45))
		schemes := []weights.Scheme{
			{Kind: weights.CBS},
			{Kind: weights.ECBS},
			{Kind: weights.ARCS, Entropy: true},
			{Kind: weights.JS},
			{Kind: weights.EJS},
			{Kind: weights.ChiSquared, Entropy: true},
		}
		s := schemes[int(schemeB)%len(schemes)]
		csr := weighted(c, s)
		// Workers spans serial, small counts, and counts far beyond the
		// chunk count of these small graphs.
		workers := 2 + int(workersB)%15
		parts := 1 + int(partsB)%4
		p := allParams[int(pruneB)%len(allParams)]
		p.K = int(seed % 11) // 0 selects the scheme budgets

		p.Workers = 1
		want, err := prunePairs(ctx, csr, p)
		if err != nil {
			t.Fatalf("%v serial: %v", p.Pruning, err)
		}
		p.Workers = workers
		got, err := prunePairs(ctx, csr, p)
		if err != nil {
			t.Fatalf("%v workers=%d: %v", p.Pruning, workers, err)
		}
		comparePairs(t, fmt.Sprintf("%v workers=%d", p.Pruning, workers), want, got)

		checkShards(t, p.Pruning.String(), csr, p, parts, func(owns func(int32) bool) *graph.CSR {
			g, err := graph.BuildCSR(ctx, c, owns, 1)
			if err != nil {
				panic(err) // background context never cancels
			}
			s.ApplyCSR(g, csr.Degrees(), csr.NumEdges(), 1)
			return g
		})
	})
}

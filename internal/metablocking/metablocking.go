// Package metablocking orchestrates graph-based meta-blocking: it builds
// the blocking graph of a block collection, applies a weighting scheme,
// prunes edges, and materializes the restructured block collection (each
// retained edge becomes a block of two profiles, so redundant comparisons
// are impossible by construction — Definition 2 of the paper).
//
// The blocking graph is a node-centric CSR adjacency (graph.BuildCSR):
// no global edge accumulator or edge list is ever allocated, so peak
// memory stays proportional to the adjacency itself. Pruning is
// prune.Decide over the whole graph followed by one chunked emission
// pass over the adjacency runs (PruneCSR).
package metablocking

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"blast/internal/blocking"
	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/prune"
	"blast/internal/weights"
)

// Pruning enumerates the pruning algorithms; it is prune.Pruning, so
// every package names one enum.
type Pruning = prune.Pruning

// The pruning algorithms (see prune.Pruning).
const (
	WEP      = prune.WEP
	CEP      = prune.CEP
	WNP1     = prune.WNP1
	WNP2     = prune.WNP2
	CNP1     = prune.CNP1
	CNP2     = prune.CNP2
	BlastWNP = prune.BlastWNP
)

// Config selects the weighting scheme and pruning algorithm.
type Config struct {
	// Scheme is the edge weighting (default: BLAST chi2*h).
	Scheme weights.Scheme
	// Pruning is the pruning algorithm (default BlastWNP).
	Pruning Pruning
	// C is BLAST's local threshold divisor theta_i = M_i / C (default 2).
	C float64
	// D is BLAST's threshold combiner (theta_u + theta_v) / D (default 2).
	D float64
	// K overrides the cardinality of CEP/CNP; <= 0 uses their defaults.
	K int
	// Workers parallelizes blocking-graph construction, weighting and
	// the pruning passes (see PruneCSR): 0 uses one worker per
	// CPU (GOMAXPROCS), 1 runs serially, >1 uses exactly that many
	// goroutines. Output is byte-identical either way.
	Workers int
	// OnStage, when non-nil, is invoked synchronously as each internal
	// stage of a run completes ("graph", "weight", "prune") with the
	// stage's wall-clock duration. It must be fast and must not retain
	// the run's structures.
	OnStage func(stage string, d time.Duration)
	// Spill, when non-nil, selects the beyond-RAM path: the blocking
	// graph is built through graph.BuildCSRSpillCtx, spilling its
	// adjacency to segment files under Spill.Dir once the resident
	// footprint exceeds Spill.MemoryBudget. The retained pairs are
	// byte-identical to the resident build; the Result carries no CSR
	// (the spilled graph is closed, its segments deleted).
	Spill *graph.SpillOptions
}

// stage reports a completed stage to the OnStage observer, if any.
func (c *Config) stage(name string, d time.Duration) {
	if c.OnStage != nil {
		c.OnStage(name, d)
	}
}

// DefaultConfig returns BLAST's meta-blocking configuration.
func DefaultConfig() Config {
	return Config{Scheme: weights.Blast(), Pruning: BlastWNP, C: 2, D: 2}
}

// resolveWorkers maps the Config.Workers contract to a concrete worker
// count: 0 (or negative) means one worker per CPU.
func resolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// Result is the outcome of a meta-blocking run.
type Result struct {
	// Pairs are the retained comparisons in canonical order; each is a
	// block of two profiles in the restructured collection.
	Pairs []model.IDPair
	// CSR is the weighted blocking graph (nil for spilled runs). Its
	// co-occurrence stat arrays are released after weighting; Weights
	// remain valid.
	CSR *graph.CSR
	// Workers is the resolved worker count requested of the graph
	// builder (0 and negatives resolve to GOMAXPROCS). The builder may
	// still fall back to a serial build on collections too small to
	// shard.
	Workers int
	// GraphTime, WeightTime and PruneTime decompose the overhead time to.
	GraphTime  time.Duration
	WeightTime time.Duration
	PruneTime  time.Duration
}

// Overhead returns the total meta-blocking overhead time (the paper's
// t_o, excluding the underlying blocking).
func (r *Result) Overhead() time.Duration {
	return r.GraphTime + r.WeightTime + r.PruneTime
}

// Comparisons returns the aggregate cardinality of the restructured
// collection, which equals the number of retained pairs.
func (r *Result) Comparisons() int64 { return int64(len(r.Pairs)) }

// PairSet returns the retained pairs keyed by IDPair.Key.
func (r *Result) PairSet() map[uint64]struct{} {
	set := make(map[uint64]struct{}, len(r.Pairs))
	for _, p := range r.Pairs {
		set[p.Key()] = struct{}{}
	}
	return set
}

// PruneCSR makes the configured pruning decision over a weighted CSR
// graph that holds the whole graph and emits the retained pairs in
// canonical order. It is exported for consumers that weight a CSR
// themselves and only need the retention decision. Cfg.Workers selects
// the pruning parallelism (0 = GOMAXPROCS, 1 = serial); the retained
// pairs are byte-identical at every worker count. Cancellation is
// observed at edge-segment granularity.
func PruneCSR(ctx context.Context, g *graph.CSR, cfg Config) ([]model.IDPair, error) {
	p := prune.Params{Pruning: cfg.Pruning, C: cfg.C, D: cfg.D, K: cfg.K, Workers: cfg.Workers}
	dec, err := prune.Decide(ctx, g, p, g.NumEdges(), prune.OneGraph{})
	if err != nil {
		return nil, err
	}
	return prune.Emit(ctx, g, cfg.Workers, dec.Keep)
}

// Run executes meta-blocking over the block collection.
func Run(c *blocking.Collection, cfg Config) *Result {
	res, err := RunCtx(context.Background(), c, cfg)
	if err != nil {
		// The background context never cancels and cancellation is the
		// only error source of the staged path.
		panic(fmt.Sprintf("metablocking: unexpected error without cancellation: %v", err))
	}
	return res
}

// RunCtx is Run with cooperative cancellation: graph construction polls
// ctx at worker-chunk granularity, pruning at node-chunk granularity, and
// the run returns ctx.Err() at the first stage boundary (or chunk) that
// observes cancellation. The retained pairs are identical to Run's.
func RunCtx(ctx context.Context, c *blocking.Collection, cfg Config) (*Result, error) {
	workers := resolveWorkers(cfg.Workers)
	t0 := telemetryNow()
	var g *graph.CSR
	var err error
	if cfg.Spill != nil {
		g, err = graph.BuildCSRSpillCtx(ctx, c, *cfg.Spill)
	} else {
		g, err = graph.BuildCSR(ctx, c, nil, workers)
	}
	if err != nil {
		return nil, err
	}
	// A spilled graph is temporary to the run: its segments are deleted
	// on every exit path, and the Result carries no CSR.
	spilled := g.Spilled()
	if spilled {
		defer g.Close()
	}
	t1 := telemetryNow()
	cfg.stage("graph", t1.Sub(t0))
	cfg.Scheme.ApplyCSR(g, g.Degrees(), g.NumEdges(), workers)
	g.ReleaseStats()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t2 := telemetryNow()
	cfg.stage("weight", t2.Sub(t1))
	pairs, err := PruneCSR(ctx, g, cfg)
	if err != nil {
		return nil, err
	}
	// Spilled reads fail closed through the graph's sticky error: a
	// pruning pass over corrupt or truncated segments produced zeroed
	// runs, not silent wrong answers — reject the run.
	if err := g.Err(); err != nil {
		return nil, err
	}
	t3 := telemetryNow()
	cfg.stage("prune", t3.Sub(t2))
	if pairs == nil {
		pairs = make([]model.IDPair, 0)
	}
	res := &Result{
		Pairs:      pairs,
		Workers:    workers,
		GraphTime:  t1.Sub(t0),
		WeightTime: t2.Sub(t1),
		PruneTime:  t3.Sub(t2),
	}
	if !spilled {
		res.CSR = g
	}
	return res, nil
}

// telemetryNow reads the wall clock for the per-stage timing telemetry
// (Result.GraphTime/WeightTime/PruneTime and the stage progress hook).
// It is the package's single audited wall-clock read: stage durations
// are reported to callers, never folded into any computed pair set, so
// the determinism contract is untouched.
func telemetryNow() time.Time {
	//blast:allow wallclock -- telemetry clock: stage durations are reported, never feed a pinned computation
	return time.Now()
}

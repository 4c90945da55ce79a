// Package prune implements the edge-pruning schemes of graph-based
// meta-blocking (Section 2.2 of the paper): the four classic schemes —
// WEP, CEP, WNP and CNP, the node-centric ones in both their redefined
// (retain if either endpoint keeps the edge) and reciprocal (both
// endpoints) variants (Papadakis et al., EDBT'16) — plus BLAST's
// weight-based node pruning with its edge-count-independent threshold
// theta_i = M_i / c and unique per-edge threshold (theta_u + theta_v) / d
// (Section 3.3.2).
//
// Every scheme is one retention decision, made by Decide: a per-entry
// rule over node-local inputs (a node's threshold, its top-k marks) and
// at most a few graph-global aggregates (WEP's mean, CEP's cut). Decide
// resolves those aggregates through an Aggregator: OneGraph when the CSR
// holds the whole graph (the batch pipeline and the Index), the shard
// exchange when each party holds only the rows it owns (the partitioned
// Server). The per-row passes that feed the aggregates are in
// partition.go, the chunked execution substrate in parallel.go, and
// CEP's histogram cut selection in select.go. Zero- and negative-weight
// edges are never retained: a zero weight means the weighting scheme
// found no evidence for the pair.
package prune

import (
	"context"
	"fmt"
	"slices"

	"blast/internal/graph"
	"blast/internal/model"
)

// Pruning enumerates the pruning schemes.
type Pruning int

const (
	// WEP discards edges below the global mean weight.
	WEP Pruning = iota
	// CEP keeps the globally top-K edges.
	CEP
	// WNP1 is redefined weight node pruning (either endpoint).
	WNP1
	// WNP2 is reciprocal weight node pruning (both endpoints).
	WNP2
	// CNP1 is redefined cardinality node pruning.
	CNP1
	// CNP2 is reciprocal cardinality node pruning.
	CNP2
	// BlastWNP is the paper's pruning: theta_i = M_i/c, edge threshold
	// (theta_u + theta_v)/d.
	BlastWNP
)

// String implements fmt.Stringer.
func (p Pruning) String() string {
	switch p {
	case WEP:
		return "wep"
	case CEP:
		return "cep"
	case WNP1:
		return "wnp1"
	case WNP2:
		return "wnp2"
	case CNP1:
		return "cnp1"
	case CNP2:
		return "cnp2"
	case BlastWNP:
		return "blast-wnp"
	default:
		return fmt.Sprintf("Pruning(%d)", int(p))
	}
}

// NodeLocal reports whether the scheme's retention decision for an edge
// depends only on the edge's weight and its two endpoints' node-local
// thresholds (theta_i), with no collection-size-derived budget: BlastWNP
// and the two WNP variants. For these schemes an insertion re-evaluates
// only the runs whose weights or thresholds actually changed; the global
// and cardinality schemes (WEP, CEP, CNP — whose default budgets shift
// with every profile) require a full re-evaluation instead.
func (p Pruning) NodeLocal() bool {
	switch p {
	case WNP1, WNP2, BlastWNP:
		return true
	default:
		return false
	}
}

// Params are the knobs of one retention decision.
type Params struct {
	// Pruning is the scheme.
	Pruning Pruning
	// C and D are BLAST's divisors: theta_i = M_i/C and the edge
	// threshold (theta_u + theta_v)/D. Values <= 0 select 2.
	C, D float64
	// K overrides the CEP/CNP budgets; <= 0 selects their defaults.
	K int
	// Workers is the goroutine count of every pass (0 = GOMAXPROCS).
	// The decision is bit-identical at every value.
	Workers int
}

// Keep decides one adjacency entry: u is the entry's row, v its
// neighbor, w > 0 its weight. It is symmetric in u and v, so both
// entries of an edge — whichever parties hold them — decide alike.
type Keep func(u, v int32, w float64) bool

// NodeRule is the retention rule of a node-local scheme, exposed so an
// incremental writer re-decides single runs with exactly the reducer
// and test the full decision used.
type NodeRule struct {
	// Theta reduces one adjacency run — its weights in adjacency order —
	// to the node's threshold; an empty run yields 0.
	Theta func(ws []float64) float64
	// Keep decides a positive-weight edge between nodes whose
	// thresholds are thU and thV.
	Keep func(w, thU, thV float64) bool
}

// Decision is the outcome of Decide.
type Decision struct {
	// Keep decides every positive-weight entry; nil when the scheme
	// retains nothing at this state.
	Keep Keep
	// Theta is the whole graph's per-node threshold vector for the
	// node-local schemes (0 for edgeless nodes); nil otherwise.
	Theta []float64
	// Node is the rule behind Keep for the node-local schemes; nil
	// otherwise.
	Node *NodeRule
}

// Aggregator is the seam through which Decide merges the graph-global
// inputs of a decision. Each party of a decision holds the runs of a
// disjoint set of rows (one party holding every row is the single-graph
// case), computes its per-row contributions over those rows, and every
// party must call the same methods in the same order — Decide's branches
// depend only on merged values, so they do. Methods may return their
// inputs, overwritten in place.
type Aggregator interface {
	// Rows merges per-row vectors, each row's value taken from the
	// party holding the row. Either vector may be nil.
	Rows(f []float64, i []int64) ([]float64, []int64, error)
	// Hist folds CEP counting histograms (see countCutHist): counts add,
	// key minima and maxima of occupied buckets tighten (an empty
	// bucket's are undefined).
	Hist(counts []int64, kmin, kmax []uint64) ([]int64, []uint64, []uint64, error)
	// Marks merges per-row CNP mark lists (see rowTopKMarks), each row's
	// list taken from the party holding the row.
	Marks(offsets []int64, ids []int32) ([]int64, []int32, error)
	// IDs concatenates one short id list from every party, in party
	// order.
	IDs(ids []int32) ([]int32, error)
}

// OneGraph is the Aggregator of a CSR that holds the whole graph: every
// aggregate is already complete, so each method returns its inputs
// unchanged — no encoding, no copies.
type OneGraph struct{}

// Rows implements Aggregator.
func (OneGraph) Rows(f []float64, i []int64) ([]float64, []int64, error) { return f, i, nil }

// Hist implements Aggregator.
func (OneGraph) Hist(counts []int64, kmin, kmax []uint64) ([]int64, []uint64, []uint64, error) {
	return counts, kmin, kmax, nil
}

// Marks implements Aggregator.
func (OneGraph) Marks(offsets []int64, ids []int32) ([]int64, []int32, error) {
	return offsets, ids, nil
}

// IDs implements Aggregator.
func (OneGraph) IDs(ids []int32) ([]int32, error) { return ids, nil }

// Decide makes the retention decision of scheme p over the weighted
// graph g: numEdges is the whole graph's edge count, and agg merges the
// parties' aggregates. It is the one place the pruning kind is branched
// on. Cancellation is observed at edge-segment granularity; a cancelled
// decision returns ctx.Err().
func Decide(ctx context.Context, g *graph.CSR, p Params, numEdges int, agg Aggregator) (Decision, error) {
	switch p.Pruning {
	case WEP:
		if numEdges == 0 {
			return Decision{}, ctx.Err()
		}
		sums, counts, err := rowWeightSums(ctx, g, p.Workers)
		if err != nil {
			return Decision{}, err
		}
		if sums, counts, err = agg.Rows(sums, counts); err != nil {
			return Decision{}, err
		}
		total, _ := FoldRowSums(sums, counts)
		mean := total / float64(numEdges)
		return Decision{Keep: func(_, _ int32, w float64) bool { return w >= mean }}, nil

	case CEP:
		k := p.K
		if k <= 0 {
			k = CEPBudget(g.BlockCounts)
		}
		if k = min(k, numEdges); k <= 0 {
			return Decision{}, ctx.Err()
		}
		keep, err := cepKeep(ctx, g, p.Workers, k, agg)
		return Decision{Keep: keep}, err

	case WNP1:
		return decideNodeLocal(ctx, g, p.Workers, agg, meanReducer, func(w, thU, thV float64) bool {
			return w >= thU || w >= thV
		})
	case WNP2:
		return decideNodeLocal(ctx, g, p.Workers, agg, meanReducer, func(w, thU, thV float64) bool {
			return w >= thU && w >= thV
		})
	case BlastWNP:
		c, d := p.C, p.D
		if c <= 0 {
			c = 2
		}
		if d <= 0 {
			d = 2
		}
		return decideNodeLocal(ctx, g, p.Workers, agg, blastReducer(c), func(w, thU, thV float64) bool {
			return w >= (thU+thV)/d
		})

	case CNP1, CNP2:
		k := p.K
		if k <= 0 {
			k = CNPBudget(g.BlockCounts)
		}
		if numEdges == 0 || k == 0 {
			return Decision{}, ctx.Err()
		}
		offsets, ids, err := rowTopKMarks(ctx, g, k, p.Workers)
		if err != nil {
			return Decision{}, err
		}
		if offsets, ids, err = agg.Marks(offsets, ids); err != nil {
			return Decision{}, err
		}
		marked := func(u, v int32) bool {
			_, ok := slices.BinarySearch(ids[offsets[u]:offsets[u+1]], v)
			return ok
		}
		if p.Pruning == CNP1 {
			return Decision{Keep: func(u, v int32, _ float64) bool { return marked(u, v) || marked(v, u) }}, nil
		}
		return Decision{Keep: func(u, v int32, _ float64) bool { return marked(u, v) && marked(v, u) }}, nil

	default:
		return Decision{}, fmt.Errorf("prune: unknown pruning %d", int(p.Pruning))
	}
}

// decideNodeLocal reduces every held run to its node's threshold,
// merges the threshold vector, and decides each edge by rule over its
// endpoints' thresholds.
func decideNodeLocal(ctx context.Context, g *graph.CSR, workers int, agg Aggregator, reduce runReducer, rule func(w, thU, thV float64) bool) (Decision, error) {
	th, err := rowThresholds(ctx, g, workers, reduce)
	if err != nil {
		return Decision{}, err
	}
	if th, _, err = agg.Rows(th, nil); err != nil {
		return Decision{}, err
	}
	return Decision{
		Keep:  func(u, v int32, w float64) bool { return rule(w, th[u], th[v]) },
		Theta: th,
		Node:  &NodeRule{Theta: wholeRun(reduce), Keep: rule},
	}, nil
}

// cepKeep decides CEP's global top-k (1 <= k <= the edge count): the
// k-th largest canonical weight is located by the histogram selection
// of select.go over folded histograms, edges above it are in, and the
// edges tying exactly at it take the remaining budget in canonical
// (u, v) order — the tie rule of a stable descending sort over
// canonical order.
func cepKeep(ctx context.Context, g *graph.CSR, workers, k int, agg Aggregator) (Keep, error) {
	cs := newCutScan(k)
	for {
		counts, kmin, kmax, err := countCutHist(ctx, g, workers, cs.prefix, cs.shift)
		if err != nil {
			return nil, err
		}
		if counts, kmin, kmax, err = agg.Hist(counts, kmin, kmax); err != nil {
			return nil, err
		}
		if cs.step(counts, kmin, kmax) {
			break
		}
	}
	cut := cs.cut
	// The budget left for ties once every edge above the cut is in.
	// Ties consume their slots even when zero-filtered by the caller.
	switch rem := int64(k - cs.greater); {
	case rem >= int64(cs.ties):
		return func(_, _ int32, w float64) bool { return w >= cut }, nil
	case rem <= 0:
		return func(_, _ int32, w float64) bool { return w > cut }, nil
	default:
		row, taken, err := crossingRow(ctx, g, workers, cut, rem, agg)
		if err != nil {
			return nil, err
		}
		return func(u, v int32, w float64) bool {
			if w != cut {
				return w > cut
			}
			lo, hi := min(u, v), max(u, v)
			if lo != row {
				return lo < row
			}
			_, ok := slices.BinarySearch(taken, hi)
			return ok
		}, nil
	}
}

// crossingRow settles a partial tie budget: of the canonical entries
// tying at the cut, ranked in canonical (u, v) order, the first rem are
// taken. Prefix sums of the merged per-row tie counts find the crossing
// row — the row holding the rem-th tie. Every tie in a row before it is
// taken and none after it; within it, the first rem-base ties (base the
// ties of the earlier rows) are, and the party holding the row lists
// their neighbors with one scan of that run. The list, ascending, is
// shared through the aggregator.
func crossingRow(ctx context.Context, g *graph.CSR, workers int, cut float64, rem int64, agg Aggregator) (int32, []int32, error) {
	ties, err := rowTieCounts(ctx, g, workers, cut)
	if err != nil {
		return 0, nil, err
	}
	if _, ties, err = agg.Rows(nil, ties); err != nil {
		return 0, nil, err
	}
	row, base := 0, int64(0)
	for row < len(ties) && base+ties[row] < rem {
		base += ties[row]
		row++
	}
	var own []int32
	if row < g.NumProfiles {
		nbr, wts := g.Run(row)
		for i, v := range nbr {
			if int64(len(own)) == rem-base {
				break
			}
			if int(v) > row && wts[i] == cut {
				own = append(own, v)
			}
		}
	}
	taken, err := agg.IDs(own)
	return int32(row), taken, err
}

// Emit returns the retained pairs of a whole graph in canonical (u, v)
// order: every positive-weight canonical entry keep accepts (nil keep
// retains nothing). It runs over the fixed node chunks of parallel.go,
// so the output is byte-identical for every worker count.
func Emit(ctx context.Context, g *graph.CSR, workers int, keep Keep) ([]model.IDPair, error) {
	if keep == nil {
		return nil, ctx.Err()
	}
	nch := numChunks(g.NumProfiles)
	bufs := make([][]model.IDPair, nch)
	err := runChunks(ctx, workers, nch, func(w *pruneWorker, chunk int) error {
		var out []model.IDPair
		err := forChunkCanonical(g, w, chunk, func(u int32, nbr []int32, wts []float64) {
			for i, v := range nbr {
				if wt := wts[i]; wt > 0 && keep(u, v, wt) {
					out = append(out, model.IDPair{U: u, V: v})
				}
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

// CEPBudget is CEP's default comparison budget: half the total number
// of block memberships (sum |B_i| / 2), as in the meta-blocking
// literature.
func CEPBudget(blockCounts []int32) int {
	total := 0
	for _, c := range blockCounts {
		total += int(c)
	}
	return total / 2
}

// CNPBudget is CNP's default per-node budget: the average number of
// blocks per profile, max(1, round(sum |B_i| / |V|)) over the profiles
// that appear in at least one block. Returns 0 when no profile does.
func CNPBudget(blockCounts []int32) int {
	total := 0
	active := 0
	for _, c := range blockCounts {
		total += int(c)
		if c > 0 {
			active++
		}
	}
	if active == 0 {
		return 0
	}
	k := (total + active/2) / active
	if k < 1 {
		k = 1
	}
	return k
}

// Histogram-cut selection for CEP: find the k-th largest edge weight
// (the cut) and the count of edges strictly above it without ever
// materializing an O(|E|) weight array to sort.
//
// Weights are mapped onto order-preserving 64-bit keys and the cut key
// is located by MSB-first 16-bit histogram passes: a pass counts the
// candidate keys into 2^16 fixed-boundary buckets (tracking per-bucket
// key min/max), the bucket containing the k-th largest key becomes the
// new candidate prefix, and the refinement stops as soon as the cut
// bucket holds a single distinct key — immediately, in the common case
// of massive ties at the cut — or after at most four passes, when the
// full 64 bits are resolved. Scratch is O(2^16) per worker regardless
// of |E|.
//
// Counting passes parallelize over the fixed node chunks; histogram
// counts and key min/max merge commutatively, so the selected cut is
// byte-identical for every worker count (determinism rule 3 of
// parallel.go) and for every partition of the rows into parties whose
// histograms an Aggregator folds.
package prune

import (
	"context"
	"math"

	"blast/internal/graph"
)

const (
	selBucketBits = 16
	selBuckets    = 1 << selBucketBits
	selBucketMask = selBuckets - 1
)

// weightKey maps a float64 weight onto a uint64 whose unsigned order
// matches the float order. Both zeros collapse onto +0 so key equality
// matches float equality (the tie rule compares floats); NaNs map to
// the smallest key, mirroring their position under sort.Float64s.
func weightKey(w float64) uint64 {
	if math.IsNaN(w) {
		return 0
	}
	if w == 0 {
		w = 0 // collapse -0 onto +0
	}
	b := math.Float64bits(w)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// keyWeight inverts weightKey for keys produced from non-NaN weights.
func keyWeight(k uint64) float64 {
	if k&(1<<63) != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// selHist is one worker's histogram of a counting pass. A bucket's key
// minimum and maximum are meaningful only once its count is non-zero,
// so a fresh (zeroed) histogram needs no initialization.
type selHist struct {
	counts [selBuckets]int64
	kmin   [selBuckets]uint64
	kmax   [selBuckets]uint64
}

// countCutHist runs one counting pass of the histogram selection over
// the graph's canonical entries: every canonical weight key matching the
// candidate prefix (key>>(shift+16) == prefix) is counted into its
// 16-bit bucket, tracking per-bucket key min/max. The returned slices
// are the merged histogram of all workers (length 2^16 each).
func countCutHist(ctx context.Context, g *graph.CSR, workers int, prefix uint64, shift uint) (counts []int64, kmin, kmax []uint64, err error) {
	nch := numChunks(g.NumProfiles)
	nw := pruneWorkerCount(workers, nch)
	hists := make([]*selHist, nw)
	for i := range hists {
		hists[i] = &selHist{}
	}
	// hists[w.id] belongs to its goroutine alone; the merge below is
	// commutative, so the racy chunk assignment cannot influence the
	// outcome.
	err = runChunks(ctx, workers, nch, func(w *pruneWorker, chunk int) error {
		h := hists[w.id]
		return forChunkCanonical(g, w, chunk, func(_ int32, _ []int32, wts []float64) {
			for _, wt := range wts {
				key := weightKey(wt)
				if key>>(shift+selBucketBits) != prefix {
					continue
				}
				b := (key >> shift) & selBucketMask
				if h.counts[b] == 0 {
					h.kmin[b], h.kmax[b] = key, key
				} else if key < h.kmin[b] {
					h.kmin[b] = key
				} else if key > h.kmax[b] {
					h.kmax[b] = key
				}
				h.counts[b]++
			}
		})
	})
	if err != nil {
		return nil, nil, nil, err
	}
	merged := hists[0]
	for _, h := range hists[1:] {
		mergeCutHist(merged.counts[:], merged.kmin[:], merged.kmax[:],
			h.counts[:], h.kmin[:], h.kmax[:])
	}
	return merged.counts[:], merged.kmin[:], merged.kmax[:], nil
}

// mergeCutHist folds one counting histogram into another in place:
// counts add, the key minima/maxima of occupied buckets tighten. The
// merge is commutative and associative, so any fold order yields the
// identical merged histogram.
func mergeCutHist(counts []int64, kmin, kmax []uint64, ocounts []int64, okmin, okmax []uint64) {
	for b, c := range ocounts {
		if c == 0 {
			continue
		}
		if counts[b] == 0 {
			kmin[b], kmax[b] = okmin[b], okmax[b]
		} else {
			kmin[b] = min(kmin[b], okmin[b])
			kmax[b] = max(kmax[b], okmax[b])
		}
		counts[b] += c
	}
}

// cutScan is the refinement state of the histogram selection: it
// consumes one merged counting histogram per step and narrows the
// candidate prefix until the bucket holding the k-th largest key is a
// single distinct key — at most four steps. It carries no graph state,
// so the histograms it consumes may be folded from any number of
// parties.
type cutScan struct {
	rank    int64  // rank of the cut within the candidate set, from the top
	above   int64  // resolved count of keys strictly above the candidates
	prefix  uint64 // candidates satisfy key>>(shift+16) == prefix
	shift   uint
	cut     float64
	greater int
	ties    int
}

// newCutScan starts a scan for the k-th largest canonical weight
// (callers guarantee 1 <= k <= the number of canonical edges).
func newCutScan(k int) *cutScan {
	return &cutScan{rank: int64(k), shift: 48}
}

// step consumes the merged histogram of one counting pass at the
// scan's current prefix/shift and either resolves the cut (returning
// true; cut, greater and ties are then set) or narrows the prefix for
// the next pass.
func (cs *cutScan) step(counts []int64, kmin, kmax []uint64) bool {
	// Find the bucket holding the rank-th largest candidate key.
	cum := int64(0)
	b := selBuckets - 1
	for ; b > 0; b-- {
		if c := counts[b]; c > 0 {
			cum += c
			if cum >= cs.rank {
				break
			}
		}
	}
	if b == 0 {
		cum += counts[0]
	}
	cs.above += cum - counts[b]
	cs.rank -= cum - counts[b]
	if kmin[b] == kmax[b] || cs.shift == 0 {
		// Every remaining candidate in the cut bucket carries the same
		// key (always true at shift 0, where a bucket is one exact
		// key): it is the cut, nothing inside it ties above, and the
		// bucket's population is the global tie count.
		cs.cut = keyWeight(kmin[b])
		cs.greater = int(cs.above)
		cs.ties = int(counts[b])
		return true
	}
	cs.prefix = cs.prefix<<selBucketBits | uint64(b)
	cs.shift -= selBucketBits
	return false
}

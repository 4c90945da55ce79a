// Package shard is the machinery of sharded snapshot-swap Index serving:
// immutable epoch-tagged read snapshots, single-writer shard workers that
// absorb insert batches and publish fresh snapshots on a swap cadence,
// hash-based row ownership, the aggregate exchange partitioned writers
// resolve graph-global state through, and the ordered merge of
// per-shard candidate-pair streams.
//
// The package is deliberately ignorant of BLAST itself. The writable
// side of a shard is any Writer (blast's partitioned writer in
// production, a fake in tests); a Snapshot is just the flat per-profile
// serving arrays an export yields. The blast.Server composes shards into
// the public serving API.
//
// Concurrency model: one worker goroutine per shard owns all mutation of
// its Writer; readers only ever touch the shard's current Snapshot,
// obtained through an atomic pointer. A snapshot is immutable from the
// moment it is published, so readers never block on writers and writers
// never wait for readers — a swap simply retires the old snapshot to the
// garbage collector once the last reader drops it.
package shard

import (
	"context"
	"slices"

	"blast/internal/model"
)

// Candidate is one candidate comparison served by a snapshot (and by
// blast.Index / blast.Server, which alias this type): a co-candidate
// profile and the edge weight that retained it.
type Candidate struct {
	// ID is the global profile id of the co-candidate.
	ID int32
	// Weight is the edge weight under the index's weighting scheme.
	Weight float64
}

// CompareCandidates is THE serving order of candidate lists: descending
// weight, ties by ascending id. Every surface that emits candidates
// (snapshot lookups, blast.Index, blast.Server) sorts with this one
// comparator so their outputs stay byte-identical.
func CompareCandidates(a, b Candidate) int {
	switch {
	case a.Weight > b.Weight:
		return -1
	case a.Weight < b.Weight:
		return 1
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	default:
		return 0
	}
}

// Snapshot is an immutable serving view of a weighted, pruned blocking
// graph: the flat CSR adjacency with per-entry weights and retention
// marks, plus the per-node pruning thresholds. The structural arrays
// (Offsets, Neighbors) may be shared with the live index that exported
// the snapshot — they are never mutated in place after a compaction —
// while the value arrays are private copies. Everything here is
// read-only after publication; no method mutates the snapshot.
type Snapshot struct {
	// Epoch tags the publication: the initial snapshot of a shard is
	// epoch 0 and every swap increments it. Within one shard, a higher
	// epoch observes a superset (longer prefix) of the insert sequence.
	Epoch uint64
	// Batches is the snapshot's position in the globally sequenced
	// insert stream: the number of admitted insert batches it covers.
	// Every shard of a server applies the same batch sequence in the
	// same order, so two snapshots from different shards with equal
	// Batches were exported from identical collection states — the
	// cross-shard consistency token of multi-shard reads — and on disk
	// it is the WAL replay cursor: recovery restores the snapshot and
	// replays exactly the records past this count.
	Batches int64
	// NumProfiles is the number of profiles the snapshot covers.
	NumProfiles int
	// NumEdges is the number of distinct comparisons of the blocking
	// graph (before pruning).
	NumEdges int
	// RetainedPairs is the number of comparisons the pruning retained.
	RetainedPairs int
	// Offsets and Neighbors are the CSR adjacency: node i's run occupies
	// positions [Offsets[i], Offsets[i+1]) of the entry arrays.
	Offsets   []int64
	Neighbors []int32
	// Weights holds the final edge weight of every entry.
	Weights []float64
	// Retained holds the pruning decision of every entry.
	Retained []bool
	// Theta holds the node-local pruning threshold theta_i per profile;
	// nil for pruning schemes without per-node thresholds.
	Theta []float64
	// PartShards is the shard count of the server that exported the
	// snapshot: its adjacency runs are populated only for the rows Owner
	// hashes onto PartShard, every other row being an empty run (with
	// one shard, every row). NumProfiles, NumEdges and RetainedPairs are
	// GLOBAL: a snapshot answers point reads for its owned rows with
	// whole-graph semantics, its owners having resolved the cross-shard
	// aggregates at export time.
	PartShards int
	// PartShard is this snapshot's shard index in [0, PartShards).
	PartShard int
}

// Owns reports whether a profile's row is resident in this snapshot:
// whether Owner hashes it onto PartShard.
func (s *Snapshot) Owns(profile int32) bool {
	return Owner(profile, s.PartShards) == s.PartShard
}

// OwnedRows counts the resident (hash-owned) rows.
func (s *Snapshot) OwnedRows() int {
	n := 0
	for u := 0; u < s.NumProfiles; u++ {
		if Owner(int32(u), s.PartShards) == s.PartShard {
			n++
		}
	}
	return n
}

// ResidentBytes approximates the heap footprint of the snapshot's
// arrays — the quantity partitioning divides across shards
// (Offsets and Theta stay full-length; the entry arrays shrink with
// ownership).
func (s *Snapshot) ResidentBytes() int64 {
	return int64(len(s.Offsets))*8 + int64(len(s.Neighbors))*4 +
		int64(len(s.Weights))*8 + int64(len(s.Retained)) + int64(len(s.Theta))*8
}

// Threshold returns theta_i for the threshold-based pruning schemes; 0
// for out-of-range ids or schemes without per-node thresholds.
func (s *Snapshot) Threshold(profile int) float64 {
	if s.Theta == nil || profile < 0 || profile >= len(s.Theta) {
		return 0
	}
	return s.Theta[profile]
}

// AppendCandidates appends the retained candidate comparisons of one
// profile to buf and returns the extended slice, ordering the appended
// portion by descending weight (ties by ascending id) — byte-identical
// to blast.Index.AppendCandidates over the same state. Out-of-range
// profiles append nothing.
func (s *Snapshot) AppendCandidates(buf []Candidate, profile int) []Candidate {
	if profile < 0 || profile >= s.NumProfiles {
		return buf
	}
	start := len(buf)
	lo, hi := s.Offsets[profile], s.Offsets[profile+1]
	for p := lo; p < hi; p++ {
		if s.Retained[p] {
			buf = append(buf, Candidate{ID: s.Neighbors[p], Weight: s.Weights[p]})
		}
	}
	slices.SortFunc(buf[start:], CompareCandidates)
	return buf
}

// snapshotCancelCheckEvery is the row granularity at which the pair
// enumeration polls for cancellation; snapshotCancelCheckEdges bounds
// the entries scanned between polls inside one long row.
const (
	snapshotCancelCheckEvery = 1024
	snapshotCancelCheckEdges = 8192
)

// AppendOwnedPairs appends every retained canonical pair (u < v) whose
// smaller endpoint u the caller owns, in ascending (u, v) order — the
// canonical pair order of the batch pipeline restricted to owned rows.
// Partitioning pair emission by the owner of u makes the per-shard
// streams disjoint, so merging them restores exactly the global
// canonical pair list. Polls ctx at row-chunk and edge-segment
// granularity; on cancellation the partial result is discarded.
func (s *Snapshot) AppendOwnedPairs(ctx context.Context, dst []model.IDPair, owns func(profile int32) bool) ([]model.IDPair, error) {
	for u := 0; u < s.NumProfiles; u++ {
		if u%snapshotCancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if !owns(int32(u)) {
			continue
		}
		end := s.Offsets[u+1]
		for p := s.Offsets[u]; p < end; {
			seg := end - p
			if seg > snapshotCancelCheckEdges {
				seg = snapshotCancelCheckEdges
			}
			for stop := p + seg; p < stop; p++ {
				if v := s.Neighbors[p]; int(v) > u && s.Retained[p] {
					dst = append(dst, model.IDPair{U: int32(u), V: v})
				}
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
	}
	return dst, nil
}

// Owner maps a profile id onto one of n shards. The hash is a fixed
// multiplicative mix (SplitMix64's first round) so routing is stable
// across processes and uniform even for the dense sequential ids the
// pipeline assigns; plain modulo would stripe ids across shards in lock
// step with insertion order.
func Owner(profile int32, n int) int {
	if n <= 1 {
		return 0
	}
	h := uint64(uint32(profile)) + 0x9E3779B97F4A7C15
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	h ^= h >> 31
	return int(h % uint64(n))
}

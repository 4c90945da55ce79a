package blast

// Durable serving: persistence and crash recovery for the sharded
// snapshot-swap Server. Enabled by ServerOptions.Dir, which lays out:
//
//	Dir/MANIFEST.json          layout + seed fingerprint, written once
//	Dir/wal/shard-NNN.wal      per-shard write-ahead log (internal/wal)
//	Dir/snap/shard-NNN/        epoch-named snapshot files (internal/shard)
//
// Write path. Server.InsertAll journals the admitted batch on EVERY
// shard's WAL before ids are returned, each log taking only the
// profiles its shard owns by assigned id (wal.AppendOwnedBatch). Every
// shard journals every batch — an empty owned subset still records the
// batch length — so record counts stay aligned across the logs. Should
// an append fail on some log after succeeding on another, the batch is
// rolled back off the logs that took it; if even the rollback fails the
// server poisons itself (sticky error, no further admissions) rather
// than let logs diverge mid-sequence. Snapshot persistence piggybacks
// on the shard publish hook: every SnapshotEvery admitted batches, the
// freshly published owned-rows snapshot is written (atomically, via
// temp file + rename) under the shard's snapshot directory and old
// files are pruned.
//
// Recovery. ServeBlocks over an existing Dir rebuilds the pre-crash
// state from the seed Blocks artifact plus the disk state:
//
//	1. The manifest is checked first, before any log is touched: a
//	   directory written by the retired replicated topology (no
//	   "topology" field) fails with ErrReplicatedDir, any other
//	   mismatch with a descriptive error.
//	2. Every WAL is opened, its torn tail truncated (internal/wal), and
//	   the common cut — the minimum record count — taken: a batch was
//	   admitted only if its record landed on every log, and since
//	   appends run in shard order the counts are non-increasing across
//	   shards at any crash instant. Logs past the cut are truncated
//	   back.
//	3. The admitted batch sequence is reassembled from the per-shard
//	   owned subsets: per record, every subset must decode, the batch
//	   lengths must agree, each profile must come from the shard owning
//	   its assigned id, and every position must be covered. Any
//	   disagreement fails closed — recovery never invents or reorders
//	   admitted data.
//	4. Every shard replays all batches into its clone of the seed
//	   collection, then adopts its persisted snapshot at exactly the cut
//	   when every shard has a usable one (the state a drained Close
//	   leaves, making the common restart export-free), and otherwise
//	   runs one export over the aggregate exchange — the same code path
//	   every later publication takes.
//
// The recovered server then serves Pairs/Candidates/Threshold
// byte-identical to a cold IndexBlocks over seed + replayed inserts —
// the same contract Quiesce establishes, enforced by the differential
// matrices in durable_test.go and durable_partition_test.go and the
// SIGKILL harness in crash_test.go.

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"blast/internal/blocking"
	"blast/internal/model"
	"blast/internal/shard"
	"blast/internal/wal"
)

const durManifestVersion = 1

// ErrReplicatedDir reports a durable directory written by the retired
// replicated topology, whose WAL records hold full batches rather than
// per-shard owned subsets. This release cannot recover it and touches
// none of its files. To migrate, drain the directory under the previous
// release (start it, Quiesce, Close), then bootstrap a new directory
// from the exported collection (Server.Blocks of the drained server).
var ErrReplicatedDir = errors.New("blast: durable directory was written by the retired replicated topology; " +
	"drain it under the previous release, then bootstrap a new directory from the exported collection")

// durManifest pins the parameters a durable directory was created with.
// Reopening with a different layout or seed artifact would replay the
// logs against the wrong base state, so any mismatch fails closed.
type durManifest struct {
	Version      int    `json:"version"`
	Shards       int    `json:"shards"`
	Kind         string `json:"kind"`
	SeedProfiles int    `json:"seed_profiles"`
	SeedBlocks   uint64 `json:"seed_blocks_fnv"`
	// Topology is always "partitioned". The empty string marks a
	// directory of the retired replicated topology, whose WAL records
	// hold full batches; opening one fails with ErrReplicatedDir.
	Topology string `json:"topology,omitempty"`
	// Storage records the graph storage mode (Options.Storage) the
	// directory was created under; empty means memory, the zero value.
	// Pinning it keeps a reopen from silently flipping the configured
	// storage out from under an operator's capacity planning.
	Storage string `json:"storage,omitempty"`
}

// manifestStorage renders a Storage for the manifest, mapping the
// memory zero value onto the field's backward-compatible zero.
func manifestStorage(s Storage) string {
	if s == StorageMemory {
		return ""
	}
	return s.String()
}

func durWalPath(dir string, id int) string {
	return filepath.Join(dir, "wal", fmt.Sprintf("shard-%03d.wal", id))
}

func durSnapDir(dir string, id int) string {
	return filepath.Join(dir, "snap", fmt.Sprintf("shard-%03d", id))
}

func durSnapPath(sdir string, epoch uint64) string {
	return filepath.Join(sdir, fmt.Sprintf("epoch-%016d.snap", epoch))
}

// collectionFingerprint digests the structural identity of the seed
// block collection (kind, split, block keys and memberships) so the
// manifest can reject a reopen against a different artifact.
func collectionFingerprint(c *blocking.Collection) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	u64(uint64(c.Kind))
	u64(uint64(c.NumProfiles))
	u64(uint64(c.Split))
	u64(uint64(len(c.Blocks)))
	for i := range c.Blocks {
		b := &c.Blocks[i]
		h.Write([]byte(b.Key))
		u64(math.Float64bits(b.Entropy))
		u64(uint64(len(b.P1)))
		for _, p := range b.P1 {
			u64(uint64(uint32(p)))
		}
		u64(uint64(len(b.P2)))
		for _, p := range b.P2 {
			u64(uint64(uint32(p)))
		}
	}
	return h.Sum64()
}

// checkManifest verifies (or, on first open, records) the layout of a
// durable directory.
func checkManifest(dir string, want durManifest) error {
	path := filepath.Join(dir, "MANIFEST.json")
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		buf, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			return err
		}
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	}
	if err != nil {
		return err
	}
	var got durManifest
	if err := json.Unmarshal(data, &got); err != nil {
		return fmt.Errorf("blast: corrupt manifest %s: %w", path, err)
	}
	if got.Topology == "" {
		return fmt.Errorf("%w (%s)", ErrReplicatedDir, dir)
	}
	if got != want {
		return fmt.Errorf("blast: durable dir %s was created as %+v; reopened as %+v", dir, got, want)
	}
	return nil
}

// durability is the write-side durable state of a Server: the open WALs
// and the sticky error that poisons admission when the logs can no
// longer be kept in agreement.
type durability struct {
	mu      sync.Mutex
	wals    []*wal.Log
	scratch []byte
	sticky  error
	// base is the id the next batch's first profile will be assigned;
	// appendBatch runs under the server's admission lock, so it tracks
	// nextID exactly.
	base int
}

func (d *durability) err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sticky
}

// appendBatch journals one admitted batch on every shard's WAL, each
// log taking the profiles its shard owns. On a partial failure the
// batch is rolled back off the logs that took it; an unrollbackable
// partial append poisons the server, because logs that disagree
// mid-sequence would make the next recovery fail closed.
func (d *durability) appendBatch(batch []model.Profile) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sticky != nil {
		return d.sticky
	}
	n := len(d.wals)
	for i, l := range d.wals {
		d.scratch = wal.AppendOwnedBatch(d.scratch[:0], batch, func(k int) bool {
			return shard.Owner(int32(d.base+k), n) == i
		})
		if err := l.Append(d.scratch); err != nil {
			for j := 0; j < i; j++ {
				if rbErr := d.wals[j].Truncate(d.wals[j].Records() - 1); rbErr != nil {
					d.sticky = fmt.Errorf("blast: wal rollback after append failure (%v): %w", err, rbErr)
					return d.sticky
				}
			}
			return fmt.Errorf("blast: wal append (shard %d): %w", i, err)
		}
	}
	d.base += len(batch)
	return nil
}

// close syncs and releases every WAL, reporting the first failure.
func (d *durability) close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for _, l := range d.wals {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// snapPersister persists published snapshots for one shard on the
// SnapshotEvery cadence and prunes old files. It runs on the shard's
// worker goroutine only (plus once during recovery, before the worker
// starts), so it needs no locking.
type snapPersister struct {
	dir   string
	every int64
	keep  int
	last  int64 // Batches position of the last persisted snapshot
}

func (sp *snapPersister) persist(snap *shard.Snapshot) error {
	if snap.Batches-sp.last < sp.every {
		return nil
	}
	return sp.persistNow(snap)
}

func (sp *snapPersister) persistNow(snap *shard.Snapshot) error {
	if err := shard.WriteSnapshotFile(durSnapPath(sp.dir, snap.Epoch), snap); err != nil {
		return err
	}
	sp.last = snap.Batches
	sp.prune()
	return nil
}

// prune removes all but the newest keep snapshot files. Keeping more
// than one gives recovery a fallback should the newest file turn out
// torn or corrupt. Removal failures are ignored: stale files cost disk,
// never correctness.
func (sp *snapPersister) prune() {
	names := snapFileNames(sp.dir)
	for len(names) > sp.keep {
		os.Remove(filepath.Join(sp.dir, names[0]))
		names = names[1:]
	}
}

// snapFileNames lists a shard's snapshot files, oldest first. The
// zero-padded decimal epoch makes lexical order numeric.
func snapFileNames(sdir string) []string {
	entries, err := os.ReadDir(sdir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, "epoch-") && strings.HasSuffix(name, ".snap") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// snapFileEpoch parses the epoch out of a snapshot file name.
func snapFileEpoch(name string) uint64 {
	var epoch uint64
	fmt.Sscanf(name, "epoch-%d.snap", &epoch)
	return epoch
}

// recovery is what a durable open hands the server constructor: the
// open logs truncated to the common cut, the admitted batch sequence,
// the at-cut snapshot set when every shard has one, and each shard's
// highest snapshot epoch on disk. The zero value is a fresh in-memory
// start.
type recovery struct {
	logs     []*wal.Log
	batches  [][]model.Profile
	adopted  []*shard.Snapshot
	maxEpoch []uint64
}

// closeLogs releases the logs of a failed construction.
func (r *recovery) closeLogs() {
	for _, l := range r.logs {
		if l != nil {
			//blast:allow syncerr -- construction is already failing with a primary error; this close is a best-effort descriptor release and must not mask it (nothing was admitted on these logs)
			l.Close()
		}
	}
}

// openDurable checks (or writes) the manifest of a durable directory,
// opens every shard's WAL, truncates the logs to their common cut,
// reassembles the admitted batch sequence, and looks for an adoptable
// at-cut snapshot set. The manifest is checked before any log is
// opened, so a foreign or retired directory fails with its files
// untouched.
func openDurable(blocks *Blocks, storage Storage, sopt ServerOptions) (*recovery, error) {
	n := sopt.shards()
	dir := sopt.Dir
	c := blocks.Collection
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := checkManifest(dir, durManifest{
		Version:      durManifestVersion,
		Shards:       n,
		Kind:         c.Kind.String(),
		SeedProfiles: c.NumProfiles,
		SeedBlocks:   collectionFingerprint(c),
		Topology:     "partitioned",
		Storage:      manifestStorage(storage),
	}); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "wal"), 0o755); err != nil {
		return nil, err
	}
	rec := &recovery{logs: make([]*wal.Log, n), maxEpoch: make([]uint64, n)}
	recs := make([][][]byte, n)
	for i := 0; i < n; i++ {
		if err := os.MkdirAll(durSnapDir(dir, i), 0o755); err != nil {
			rec.closeLogs()
			return nil, err
		}
		l, payloads, err := wal.Open(durWalPath(dir, i), sopt.walSyncEvery())
		if err != nil {
			rec.closeLogs()
			return nil, err
		}
		rec.logs[i] = l
		recs[i] = payloads
		for _, name := range snapFileNames(durSnapDir(dir, i)) {
			rec.maxEpoch[i] = max(rec.maxEpoch[i], snapFileEpoch(name))
		}
	}
	cut := len(recs[0])
	for _, r := range recs[1:] {
		cut = min(cut, len(r))
	}
	for _, l := range rec.logs {
		if err := l.Truncate(cut); err != nil {
			rec.closeLogs()
			return nil, err
		}
	}
	batches, err := reassembleOwnedBatches(recs, cut, c.NumProfiles, n)
	if err != nil {
		rec.closeLogs()
		return nil, err
	}
	rec.batches = batches
	total := c.NumProfiles
	for _, b := range batches {
		total += len(b)
	}
	rec.adopted = adoptOwnedSnapshots(dir, n, cut, total)
	return rec, nil
}

// reassembleOwnedBatches rebuilds the admitted batch sequence from the
// per-shard owned-subset records, failing closed on any disagreement:
// diverging batch lengths, a profile journaled by a shard that does not
// own its assigned id, or a position no shard covers. seed is the
// profile count ids start from; within one shard the decoder already
// rejects duplicate positions, and ownership makes cross-shard overlap
// impossible, so covering every position exactly once reduces to a
// count check.
func reassembleOwnedBatches(recs [][][]byte, cut, seed, n int) ([][]model.Profile, error) {
	batches := make([][]model.Profile, cut)
	base := seed
	for k := 0; k < cut; k++ {
		var batch []model.Profile
		var have []bool
		blen, filled := -1, 0
		for i := 0; i < n; i++ {
			bl, entries, err := wal.DecodeOwnedBatch(recs[i][k])
			if err != nil {
				return nil, fmt.Errorf("blast: wal record %d (shard %d): %w", k, i, err)
			}
			if blen < 0 {
				blen = bl
				batch = make([]model.Profile, bl)
				have = make([]bool, bl)
			} else if bl != blen {
				return nil, fmt.Errorf("blast: wal record %d: batch length differs between shards 0 (%d) and %d (%d); refusing to replay", k, blen, i, bl)
			}
			for _, e := range entries {
				if shard.Owner(int32(base+e.Index), n) != i {
					return nil, fmt.Errorf("blast: wal record %d: shard %d journaled profile %d it does not own; refusing to replay", k, i, e.Index)
				}
				batch[e.Index] = e.Profile
				have[e.Index] = true
				filled++
			}
		}
		if filled != blen {
			for j, ok := range have {
				if !ok {
					return nil, fmt.Errorf("blast: wal record %d: no shard journaled profile %d of %d; refusing to replay", k, j, blen)
				}
			}
		}
		batches[k] = batch
		base += blen
	}
	return batches, nil
}

// adoptOwnedSnapshots tries to restore the initial published snapshots
// directly from disk: usable only when EVERY shard has a snapshot file
// that decodes, validates, and sits at exactly the WAL cut with the
// right partition geometry and profile count. Partitioned snapshots
// cannot be rolled forward (the writable side holds no decision state),
// so a stale or missing file on any one shard sends the whole set
// through a fresh export — adopting a mixed set would publish shards at
// different stream positions.
func adoptOwnedSnapshots(dir string, n, cut, numProfiles int) []*shard.Snapshot {
	snaps := make([]*shard.Snapshot, n)
	for i := 0; i < n; i++ {
		sdir := durSnapDir(dir, i)
		names := snapFileNames(sdir)
		for k := len(names) - 1; k >= 0; k-- {
			snap, err := shard.ReadSnapshotFile(filepath.Join(sdir, names[k]))
			if err != nil || snap.Batches != int64(cut) || snap.NumProfiles != numProfiles ||
				snap.PartShards != n || snap.PartShard != i {
				continue
			}
			snaps[i] = snap
			break
		}
		if snaps[i] == nil {
			return nil
		}
	}
	return snaps
}

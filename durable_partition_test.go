package blast

// Durable serving with owned-subset journaling: per-shard WALs hold only
// owned subsets and snapshots only owned rows, yet recovery must land
// on exactly the state an independent Index (and a cold rebuild) would
// serve, every reassembly disagreement must fail closed, and a
// directory of the retired replicated topology must be refused without
// touching a byte of it.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blast/internal/model"
	"blast/internal/shard"
	"blast/internal/stats"
	"blast/internal/wal"
)

// TestDurablePartitionedReopenMatrix extends TestDurableReopenMatrix
// to four shards: open → stream → close → reopen, two generations deep,
// across shard counts and snapshot policies. SnapshotEvery 1 lands
// reopens on the adoption path (a drained Close leaves every shard an
// at-cut owned snapshot); -1 forces the export path. The reference
// pairs come from an independent Index fed the same batches.
func TestDurablePartitionedReopenMatrix(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		shards, snapEvery, syncEvery int
	}{
		{1, 1, 1},
		{2, -1, 1},
		{3, 1, -1},
		{2, 0, 0},
		{4, 1, 1},
	}
	for _, tc := range cases {
		label := fmt.Sprintf("part/shards=%d/snap=%d/sync=%d", tc.shards, tc.snapEvery, tc.syncEvery)
		t.Run(label, func(t *testing.T) {
			dir := t.TempDir()
			p, err := NewPipeline(DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			sopt := ServerOptions{
				Shards: tc.shards, SwapOps: 2,
				Dir: dir, SnapshotEvery: tc.snapEvery, SyncEvery: tc.syncEvery,
			}
			srv, err := p.Serve(ctx, durDataset(), sopt)
			if err != nil {
				t.Fatal(err)
			}
			checkRecovered(t, label+"/fresh", p, srv, 0)
			durInsert(t, srv, 0, 3)
			checkServerEquivalence(t, label+"/streamed", p, srv)
			if err := srv.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if _, err := srv.Pairs(ctx); err != nil {
				t.Fatalf("Pairs after Close: %v", err)
			}

			srv2, err := p.Serve(ctx, durDataset(), sopt)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			checkRecovered(t, label+"/gen1", p, srv2, 3)
			durInsert(t, srv2, 3, 5)
			checkServerEquivalence(t, label+"/gen1-streamed", p, srv2)
			if err := srv2.Close(); err != nil {
				t.Fatalf("close gen1: %v", err)
			}

			srv3, err := p.Serve(ctx, durDataset(), sopt)
			if err != nil {
				t.Fatalf("reopen gen2: %v", err)
			}
			checkRecovered(t, label+"/gen2", p, srv3, 5)
			if err := srv3.Close(); err != nil {
				t.Fatalf("close gen2: %v", err)
			}
		})
	}
}

// TestDurablePartitionedTornWAL tears one shard's log tail: the common
// cut must pull every shard back to the surviving prefix — a lost owned
// subset makes the whole batch unrecoverable, never a partial one.
func TestDurablePartitionedTornWAL(t *testing.T) {
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const shards, batches = 2, 4
	for _, damaged := range []int{0, shards - 1} {
		t.Run(fmt.Sprintf("shard%d", damaged), func(t *testing.T) {
			dir := t.TempDir()
			srv, err := durOpen(t, p, dir, shards, -1)
			if err != nil {
				t.Fatal(err)
			}
			durInsert(t, srv, 0, batches)
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "wal", fmt.Sprintf("shard-%03d.wal", damaged))
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
				t.Fatal(err)
			}
			srv2, err := durOpen(t, p, dir, shards, -1)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			checkRecovered(t, "torn", p, srv2, batches-1)
			if err := srv2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDurableTopologyMismatch builds a directory as the retired
// replicated topology left it — a manifest without the topology field,
// plus logs and snapshots — and checks that opening it fails with
// ErrReplicatedDir and a migration message before anything is opened:
// every file, including a torn WAL tail an open would truncate, stays
// byte-identical, and no file or directory is added.
func TestDurableTopologyMismatch(t *testing.T) {
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const shards = 2
	dir := durSeedDir(t, p, shards, 1, 2)
	// The legacy manifest: every field a current one pins, no topology.
	legacy := map[string]any{}
	path := filepath.Join(dir, "MANIFEST.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &legacy); err != nil {
		t.Fatal(err)
	}
	if legacy["topology"] != "partitioned" {
		t.Fatalf("new manifests must record the topology: %s", raw)
	}
	delete(legacy, "topology")
	raw, err = json.MarshalIndent(legacy, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// A torn tail: any open of this log would truncate it.
	walPath := filepath.Join(dir, "wal", "shard-001.wal")
	tail, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, append(tail, 0xde, 0xad, 0xbe), 0o644); err != nil {
		t.Fatal(err)
	}

	before := treeBytes(t, dir)
	_, err = durOpen(t, p, dir, shards, 1)
	if !errors.Is(err, ErrReplicatedDir) {
		t.Fatalf("open of a replicated dir = %v, want ErrReplicatedDir", err)
	}
	for _, want := range []string{"drain", "previous release", "bootstrap a new directory"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks migration hint %q", err, want)
		}
	}
	after := treeBytes(t, dir)
	if len(after) != len(before) {
		t.Fatalf("failed open changed the tree: %d entries before, %d after", len(before), len(after))
	}
	for name, b := range before {
		if a, ok := after[name]; !ok || !bytes.Equal(a, b) {
			t.Errorf("failed open modified %s", name)
		}
	}
}

// treeBytes snapshots every file and directory under root: directories
// map to nil, files to their bytes.
func treeBytes(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			out[path+"/"] = nil
			return nil
		}
		b, err := os.ReadFile(path)
		out[path] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReassembleOwnedBatches pins the fail-closed reassembly rules on
// hand-crafted per-shard records.
func TestReassembleOwnedBatches(t *testing.T) {
	const n, seed = 2, 0
	rng := stats.NewRNG(7)
	batch := make([]model.Profile, 4)
	for i := range batch {
		batch[i] = synthProfile(rng, fmt.Sprintf("r%d", i))
	}
	encode := func(owns func(int) bool) []byte {
		return wal.AppendOwnedBatch(nil, batch, owns)
	}
	ownedBy := func(sh int) func(int) bool {
		return func(i int) bool { return shard.Owner(int32(seed+i), n) == sh }
	}
	good := [][][]byte{
		{encode(ownedBy(0))},
		{encode(ownedBy(1))},
	}
	out, err := reassembleOwnedBatches(good, 1, seed, n)
	if err != nil {
		t.Fatalf("valid records rejected: %v", err)
	}
	if len(out) != 1 || len(out[0]) != len(batch) {
		t.Fatalf("reassembled %d batches / %d profiles", len(out), len(out[0]))
	}
	for i := range batch {
		if out[0][i].ID != batch[i].ID {
			t.Fatalf("profile %d reassembled as %q, want %q", i, out[0][i].ID, batch[i].ID)
		}
	}

	// Swapped shards: every journaled profile fails the ownership check.
	swapped := [][][]byte{good[1], good[0]}
	if _, err := reassembleOwnedBatches(swapped, 1, seed, n); err == nil {
		t.Error("ownership violation replayed")
	}
	// A shard journaling nothing it owns leaves positions uncovered.
	missing := [][][]byte{
		{encode(ownedBy(0))},
		{encode(func(int) bool { return false })},
	}
	if _, err := reassembleOwnedBatches(missing, 1, seed, n); err == nil {
		t.Error("uncovered batch positions replayed")
	}
	// Disagreeing batch lengths.
	short := wal.AppendOwnedBatch(nil, batch[:3], func(i int) bool { return shard.Owner(int32(seed+i), n) == 1 })
	if _, err := reassembleOwnedBatches([][][]byte{good[0], {short}}, 1, seed, n); err == nil {
		t.Error("diverging batch lengths replayed")
	}
}

package shard

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"blast/internal/model"
)

// fakeWriter is a model-backed Writer: it records every applied profile
// and exports snapshots whose NumProfiles reflects the applied count,
// with a tiny one-node graph so the lookup paths have something to walk.
type fakeWriter struct {
	mu        sync.Mutex
	applied   []model.Profile
	exports   int
	applyErr  error
	exportErr error
	slow      time.Duration
}

func (f *fakeWriter) InsertAll(ctx context.Context, ps []model.Profile) ([]int, error) {
	if f.slow > 0 {
		time.Sleep(f.slow)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.applyErr != nil {
		return nil, f.applyErr
	}
	ids := make([]int, len(ps))
	for i := range ps {
		ids[i] = len(f.applied)
		f.applied = append(f.applied, ps[i])
	}
	return ids, nil
}

func (f *fakeWriter) Export(ctx context.Context) (*Snapshot, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.exportErr != nil {
		return nil, f.exportErr
	}
	f.exports++
	return &Snapshot{
		NumProfiles: len(f.applied),
		Offsets:     []int64{0, 0},
	}, nil
}

func (f *fakeWriter) appliedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.applied)
}

func profiles(n int) []model.Profile {
	out := make([]model.Profile, n)
	for i := range out {
		out[i] = model.Profile{ID: fmt.Sprintf("p%d", i)}
	}
	return out
}

func TestShardAppliesInOrderAndBarrierPublishes(t *testing.T) {
	w := &fakeWriter{}
	s := New(0, w, &Snapshot{}, Options{SwapOps: 0}) // no automatic swaps
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.Enqueue(profiles(3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := w.appliedCount(); got != 15 {
		t.Fatalf("applied = %d, want 15", got)
	}
	snap := s.Snapshot()
	if snap.NumProfiles != 15 || snap.Epoch != 1 {
		t.Fatalf("snapshot = {profiles %d, epoch %d}, want {15, 1}", snap.NumProfiles, snap.Epoch)
	}
	st := s.Stats()
	if st.Applied != 15 || st.Swaps != 1 || st.Published != 15 {
		t.Fatalf("stats = %+v", st)
	}
	// An idle barrier re-publishes nothing.
	if err := s.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Epoch; got != 1 {
		t.Fatalf("idle barrier bumped epoch to %d", got)
	}
}

func TestShardSwapOpsTrigger(t *testing.T) {
	w := &fakeWriter{}
	s := New(0, w, &Snapshot{}, Options{SwapOps: 4})
	defer s.Close()
	for i := 0; i < 10; i++ {
		if err := s.Enqueue(profiles(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	// 10 single-profile batches with SwapOps 4: swaps after the 4th and
	// 8th, plus the barrier publishing the remainder.
	st := s.Stats()
	if st.Swaps < 3 {
		t.Fatalf("swaps = %d, want >= 3", st.Swaps)
	}
	if s.Snapshot().NumProfiles != 10 {
		t.Fatalf("published %d profiles, want 10", s.Snapshot().NumProfiles)
	}
}

func TestShardStickyApplyError(t *testing.T) {
	boom := errors.New("boom")
	w := &fakeWriter{applyErr: boom}
	s := New(0, w, &Snapshot{}, Options{})
	defer s.Close()
	if err := s.Enqueue(profiles(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Barrier(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("barrier err = %v, want %v", err, boom)
	}
	// Enqueue still accepts (broadcast atomicity: a failed shard must
	// not split a multi-shard broadcast) but the batch is dropped and
	// the failure stays observable.
	if err := s.Enqueue(profiles(1)); err != nil {
		t.Fatalf("enqueue after failure = %v, want accepted-and-dropped", err)
	}
	if err := s.Barrier(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("barrier after failed enqueue = %v, want sticky error", err)
	}
	if got := s.Stats().Applied; got != 1 {
		t.Fatalf("failed shard applied %d, want 1 (drops after failure)", got)
	}
	if err := s.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v", err)
	}
}

func TestShardExportError(t *testing.T) {
	boom := errors.New("export boom")
	w := &fakeWriter{exportErr: boom}
	s := New(0, w, &Snapshot{}, Options{})
	defer s.Close()
	if err := s.Enqueue(profiles(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Barrier(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("barrier err = %v, want %v", err, boom)
	}
}

func TestShardCloseDrainsAndStops(t *testing.T) {
	base := runtime.NumGoroutine()
	w := &fakeWriter{slow: time.Millisecond}
	s := New(0, w, &Snapshot{}, Options{})
	for i := 0; i < 8; i++ {
		if err := s.Enqueue(profiles(2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := w.appliedCount(); got != 16 {
		t.Fatalf("close did not drain: applied %d, want 16", got)
	}
	if err := s.Enqueue(profiles(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close = %v, want ErrClosed", err)
	}
	if err := s.Barrier(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("barrier after close = %v, want ErrClosed", err)
	}
	// Close is idempotent and the worker is gone.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > base {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines leaked after Close: %d > %d", n, base)
	}
}

// TestShardBatchesAndPersistHook pins the durability contract of the
// worker: published snapshots carry the batch cursor, the Persist hook
// sees every publication, a closing drain publishes the tail, and a
// persist failure is sticky.
func TestShardBatchesAndPersistHook(t *testing.T) {
	var persisted []int64
	w := &fakeWriter{}
	s := New(0, w, &Snapshot{}, Options{SwapOps: 2, Persist: func(sn *Snapshot) error {
		persisted = append(persisted, sn.Batches)
		return nil
	}})
	for i := 0; i < 5; i++ {
		if err := s.Enqueue(profiles(1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Batches != 5 {
		t.Fatalf("published Batches = %d, want 5", snap.Batches)
	}
	if st := s.Stats(); st.Batches != 5 {
		t.Fatalf("stats Batches = %d, want 5", st.Batches)
	}
	// SwapOps 2 over 5 single-profile batches: publications at 2, 4 and
	// the barrier's 5 — the hook observed each, in order.
	if len(persisted) != 3 || persisted[0] != 2 || persisted[1] != 4 || persisted[2] != 5 {
		t.Fatalf("persisted cursor sequence = %v", persisted)
	}
	// Close with unpublished tail: the drain publishes (and persists).
	if err := s.Enqueue(profiles(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Batches; got != 6 {
		t.Fatalf("post-Close Batches = %d, want 6 (close drain must publish)", got)
	}
	if persisted[len(persisted)-1] != 6 {
		t.Fatalf("close-drain publication not persisted: %v", persisted)
	}
}

func TestShardPersistErrorSticky(t *testing.T) {
	boom := errors.New("disk full")
	w := &fakeWriter{}
	s := New(0, w, &Snapshot{}, Options{Persist: func(*Snapshot) error { return boom }})
	defer s.Close()
	if err := s.Enqueue(profiles(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Barrier(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("barrier err = %v, want %v", err, boom)
	}
	if err := s.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want sticky persist error", err)
	}
}

func TestShardBarrierContext(t *testing.T) {
	w := &fakeWriter{slow: 50 * time.Millisecond}
	s := New(0, w, &Snapshot{}, Options{})
	defer s.Close()
	if err := s.Enqueue(profiles(4)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := s.Barrier(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("barrier err = %v, want deadline exceeded", err)
	}
	// The barrier still completes; the shard stays healthy.
	if err := s.Barrier(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := w.appliedCount(); got != 4 {
		t.Fatalf("applied = %d, want 4", got)
	}
}

func TestOwnerStableAndInRange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 16} {
		counts := make([]int, n)
		for id := int32(0); id < 4096; id++ {
			o := Owner(id, n)
			if o < 0 || o >= n {
				t.Fatalf("Owner(%d, %d) = %d out of range", id, n, o)
			}
			if o != Owner(id, n) {
				t.Fatalf("Owner(%d, %d) unstable", id, n)
			}
			counts[o]++
		}
		// The mix should spread dense ids roughly uniformly: no shard may
		// be starved below half its fair share.
		for i, c := range counts {
			if c < 4096/n/2 {
				t.Errorf("Owner(:, %d): shard %d got %d of 4096", n, i, c)
			}
		}
	}
	if Owner(123, 0) != 0 || Owner(123, 1) != 0 {
		t.Error("degenerate shard counts must map to 0")
	}
}

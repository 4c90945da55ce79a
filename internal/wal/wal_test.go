package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"blast/internal/model"
)

func testPayloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%d-%s", i, string(bytes.Repeat([]byte{'x'}, i*7))))
	}
	return out
}

// writeLog creates a log at path holding the payloads and returns the
// raw file bytes and the record end offsets.
func writeLog(t *testing.T, path string, payloads [][]byte) ([]byte, []int64) {
	t.Helper()
	l, recovered, err := Open(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh log recovered %d records", len(recovered))
	}
	for _, p := range payloads {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	ends := append([]int64(nil), l.ends...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data, ends
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	payloads := testPayloads(5)
	writeLog(t, path, payloads)

	l, recovered, err := Open(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recovered) != len(payloads) {
		t.Fatalf("recovered %d records, want %d", len(recovered), len(payloads))
	}
	for i := range payloads {
		if !bytes.Equal(recovered[i], payloads[i]) {
			t.Fatalf("record %d = %q, want %q", i, recovered[i], payloads[i])
		}
	}
	if l.Records() != 5 {
		t.Fatalf("Records = %d, want 5", l.Records())
	}
	// Appends continue the sequence across reopen.
	if err := l.Append([]byte("late")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recovered, err = openScan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 6 || !bytes.Equal(recovered[5], []byte("late")) {
		t.Fatalf("after reopen-append: %d records", len(recovered))
	}
}

func openScan(path string) (*Log, [][]byte, error) {
	l, p, err := Open(path, 0)
	if err == nil {
		l.Close()
	}
	return nil, p, err
}

// TestTornTailEveryByte truncates the log at every byte offset and
// checks the recovery invariant: exactly the fully-contained records
// survive, byte-identical, and the reopened log accepts appends.
func TestTornTailEveryByte(t *testing.T) {
	dir := t.TempDir()
	payloads := testPayloads(5)
	data, ends := writeLog(t, filepath.Join(dir, "full.wal"), payloads)

	for cut := 0; cut <= len(data); cut++ {
		path := filepath.Join(dir, "torn.wal")
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, e := range ends {
			if e <= int64(cut) {
				want++
			}
		}
		l, recovered, err := Open(path, 1)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recovered) != want {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(recovered), want)
		}
		for i := 0; i < want; i++ {
			if !bytes.Equal(recovered[i], payloads[i]) {
				t.Fatalf("cut %d: record %d mismatch", cut, i)
			}
		}
		if err := l.Append([]byte("resume")); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, recovered, err = openScan(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recovered) != want+1 || !bytes.Equal(recovered[want], []byte("resume")) {
			t.Fatalf("cut %d: resume lost (%d records)", cut, len(recovered))
		}
	}
}

// TestBitFlipEveryByte flips every byte of the log in turn: header
// corruption must fail closed, record corruption must yield a strict
// byte-identical prefix of the original records.
func TestBitFlipEveryByte(t *testing.T) {
	dir := t.TempDir()
	payloads := testPayloads(4)
	data, ends := writeLog(t, filepath.Join(dir, "full.wal"), payloads)

	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		recovered, _, err := Scan(mut)
		if i < headerSize {
			if err == nil {
				t.Fatalf("flip %d: corrupted magic accepted", i)
			}
			continue
		}
		if err != nil {
			t.Fatalf("flip %d: %v", i, err)
		}
		// The record containing byte i must not survive.
		hit := 0
		for _, e := range ends {
			if e <= int64(i) {
				hit++
			}
		}
		if len(recovered) > hit {
			t.Fatalf("flip %d: recovered %d records, corruption in record %d undetected", i, len(recovered), hit)
		}
		for k, p := range recovered {
			if !bytes.Equal(p, payloads[k]) {
				t.Fatalf("flip %d: surviving record %d not byte-identical", i, k)
			}
		}
	}
}

func TestForeignFileFailsClosed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "foreign.wal")
	if err := os.WriteFile(path, []byte("NOTAWAL!some bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, 1); err == nil {
		t.Fatal("foreign magic accepted")
	}
}

func TestTruncateRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	payloads := testPayloads(6)
	l, _, err := Open(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Truncate(7); err == nil {
		t.Fatal("truncate past the end accepted")
	}
	if err := l.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if l.Records() != 2 {
		t.Fatalf("Records = %d after truncate", l.Records())
	}
	// The log stays appendable at the cut.
	if err := l.Append([]byte("after-cut")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, recovered, err := openScan(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 3 || !bytes.Equal(recovered[2], []byte("after-cut")) {
		t.Fatalf("after truncate+append: %d records", len(recovered))
	}
	if !bytes.Equal(recovered[0], payloads[0]) || !bytes.Equal(recovered[1], payloads[1]) {
		t.Fatal("records before the cut changed")
	}
}

func TestSyncBatching(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _, err := Open(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 4; i++ {
		if err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if l.pending != 1 {
		t.Fatalf("pending = %d after 4 appends at syncEvery 3, want 1", l.pending)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.pending != 0 {
		t.Fatalf("pending = %d after Sync", l.pending)
	}
}

func TestClosedLogFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	l, _, err := Open(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
	if err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v", err)
	}
	if err := l.Truncate(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Truncate after Close = %v", err)
	}
}

// TestOversizedLengthFieldStopsScan forges a record whose length field
// exceeds MaxRecordSize: the scan must stop (and never allocate for it).
func TestOversizedLengthFieldStopsScan(t *testing.T) {
	data := append([]byte(nil), logMagic[:]...)
	data = appendRecord(data, []byte("ok"))
	forged := append([]byte(nil), data...)
	forged = append(forged, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0) // len = 2^32-1
	forged = append(forged, []byte("garbage")...)
	recovered, ends, err := Scan(forged)
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 1 || !bytes.Equal(recovered[0], []byte("ok")) {
		t.Fatalf("recovered %d records", len(recovered))
	}
	if ends[0] != int64(len(data)) {
		t.Fatalf("end = %d, want %d", ends[0], len(data))
	}
}

// ownsAll journals a whole batch through the owned-subset codec — the
// encoding a 1-shard server writes.
func ownsAll(int) bool { return true }

func TestBatchCodecRoundTrip(t *testing.T) {
	batches := [][]model.Profile{
		nil,
		{},
		{{ID: "a"}},
		{{ID: "", Pairs: []model.Pair{{Name: "", Value: ""}}}},
		{
			{ID: "p1", Pairs: []model.Pair{{Name: "name", Value: "ellen smith"}, {Name: "year", Value: "1985"}}},
			{ID: "p2", Pairs: []model.Pair{{Name: "addr", Value: "12 oak st"}}},
		},
	}
	for i, b := range batches {
		enc := AppendOwnedBatch(nil, b, ownsAll)
		n, dec, err := DecodeOwnedBatch(enc)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if n != len(b) || len(dec) != len(b) {
			t.Fatalf("batch %d: %d of %d profiles, want %d", i, len(dec), n, len(b))
		}
		for j := range b {
			if dec[j].Index != j || dec[j].Profile.ID != b[j].ID || len(dec[j].Profile.Pairs) != len(b[j].Pairs) {
				t.Fatalf("batch %d profile %d mismatch: %+v vs %+v", i, j, dec[j], b[j])
			}
			for k := range b[j].Pairs {
				if dec[j].Profile.Pairs[k] != b[j].Pairs[k] {
					t.Fatalf("batch %d profile %d pair %d mismatch", i, j, k)
				}
			}
		}
	}
}

func TestDecodeBatchCorruption(t *testing.T) {
	enc := AppendOwnedBatch(nil, []model.Profile{
		{ID: "p1", Pairs: []model.Pair{{Name: "name", Value: "ellen"}}},
	}, ownsAll)
	// Every strict prefix must fail (the encoding has no optional tail).
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeOwnedBatch(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, _, err := DecodeOwnedBatch(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Absurd counts must be rejected before allocation.
	if _, _, err := DecodeOwnedBatch([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0xff, 0xff, 0xff, 0xff, 0x0f}); err == nil {
		t.Fatal("absurd profile count accepted")
	}
}

package wal

// The WAL payload codec for insert batches. One record is one shard's
// owned subset of one admitted InsertAll batch; the encoding is a plain
// deterministic concatenation (uvarint counts, length-prefixed strings),
// so a batch always journals to the same bytes.

import (
	"encoding/binary"
	"errors"
	"fmt"

	"blast/internal/model"
)

// AppendOwnedBatch encodes one shard's owned subset of an admitted
// batch onto dst: the full batch length (so record counts and batch
// boundaries stay aligned across shards even when a shard owns nothing
// of a batch), then the owned profiles each prefixed with its position
// in the batch, in batch order. Every shard journals every batch through
// this encoding, and recovery
// reassembles the full batch from the per-shard subsets (see
// DecodeOwnedBatch).
func AppendOwnedBatch(dst []byte, batch []model.Profile, owns func(index int) bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	n := 0
	for i := range batch {
		if owns(i) {
			n++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(n))
	for i := range batch {
		if !owns(i) {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(i))
		dst = appendProfile(dst, &batch[i])
	}
	return dst
}

func appendProfile(dst []byte, p *model.Profile) []byte {
	dst = appendString(dst, p.ID)
	dst = binary.AppendUvarint(dst, uint64(len(p.Pairs)))
	for _, pr := range p.Pairs {
		dst = appendString(dst, pr.Name)
		dst = appendString(dst, pr.Value)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

var errTruncatedBatch = errors.New("wal: truncated batch encoding")

// OwnedEntry is one profile of an admitted batch as journaled by its
// owning shard: the profile plus its position in the batch.
type OwnedEntry struct {
	Index   int
	Profile model.Profile
}

// DecodeOwnedBatch decodes one owned-subset payload (AppendOwnedBatch):
// the full batch length and the shard's owned entries. Indices must be
// strictly increasing and inside the batch — the encoder emits them in
// batch order, so anything else is corruption. Every length is
// bounds-checked against the remaining bytes before any allocation, and
// trailing bytes are an error, so arbitrary (fuzzed or corrupted) input
// yields an error rather than a panic or an over-allocation.
func DecodeOwnedBatch(data []byte) (batchLen int, entries []OwnedEntry, err error) {
	bl, data, err := decodeUvarint(data)
	if err != nil {
		return 0, nil, err
	}
	n, data, err := decodeUvarint(data)
	if err != nil {
		return 0, nil, err
	}
	if n > bl {
		return 0, nil, fmt.Errorf("wal: owned batch claims %d of %d profiles", n, bl)
	}
	// An owned entry encodes to at least three bytes (index, empty id,
	// zero pairs).
	if n > uint64(len(data)/3)+1 {
		return 0, nil, fmt.Errorf("wal: owned batch claims %d entries in %d bytes", n, len(data))
	}
	entries = make([]OwnedEntry, 0, n)
	prev := -1
	for i := uint64(0); i < n; i++ {
		var idx uint64
		if idx, data, err = decodeUvarint(data); err != nil {
			return 0, nil, err
		}
		if idx >= bl || int(idx) <= prev {
			return 0, nil, fmt.Errorf("wal: owned batch index %d out of order (batch of %d)", idx, bl)
		}
		prev = int(idx)
		var p model.Profile
		if p, data, err = decodeProfile(data); err != nil {
			return 0, nil, err
		}
		entries = append(entries, OwnedEntry{Index: int(idx), Profile: p})
	}
	if len(data) != 0 {
		return 0, nil, fmt.Errorf("wal: %d trailing bytes after owned batch", len(data))
	}
	return int(bl), entries, nil
}

func decodeProfile(data []byte) (model.Profile, []byte, error) {
	var p model.Profile
	var err error
	if p.ID, data, err = decodeString(data); err != nil {
		return p, nil, err
	}
	var np uint64
	if np, data, err = decodeUvarint(data); err != nil {
		return p, nil, err
	}
	if np > uint64(len(data)/2)+1 {
		return p, nil, fmt.Errorf("wal: profile claims %d pairs in %d bytes", np, len(data))
	}
	p.Pairs = make([]model.Pair, 0, np)
	for j := uint64(0); j < np; j++ {
		var pr model.Pair
		if pr.Name, data, err = decodeString(data); err != nil {
			return p, nil, err
		}
		if pr.Value, data, err = decodeString(data); err != nil {
			return p, nil, err
		}
		p.Pairs = append(p.Pairs, pr)
	}
	return p, data, nil
}

func decodeUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, errTruncatedBatch
	}
	return v, data[n:], nil
}

func decodeString(data []byte) (string, []byte, error) {
	n, data, err := decodeUvarint(data)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(data)) {
		return "", nil, errTruncatedBatch
	}
	return string(data[:n]), data[n:], nil
}

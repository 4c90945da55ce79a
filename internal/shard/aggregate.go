package shard

// Aggregate is the pruning decision's aggregation seam over an
// Exchange (prune.Aggregator, which it satisfies structurally: this
// package imports only model). Every method is one all-gather round:
// the shard encodes its contribution into a frame, Gather returns all n
// frames in shard order, and the merge is either an ownership scatter
// (per-row values: each row has exactly one owner, so merged[u] =
// frames[owner(u)][u] — never an element-wise sum, which could disturb
// IEEE signed zeros) or a commutative fold (histograms, sums, the
// concatenation of lists only one shard fills).

import "fmt"

// Aggregate is one shard's view of the exchange for one export over a
// fixed profile count. Not safe for concurrent use; each shard of an
// export holds its own.
type Aggregate struct {
	ex     *Exchange
	slot   int
	owners []uint8 // profile → owning shard (at most 256 shards)
}

// NewAggregate binds slot of an nparts-shard exchange to an export over
// np profiles.
func NewAggregate(ex *Exchange, slot, nparts, np int) *Aggregate {
	owners := make([]uint8, np)
	for u := range owners {
		owners[u] = uint8(Owner(int32(u), nparts))
	}
	return &Aggregate{ex: ex, slot: slot, owners: owners}
}

// gather runs one exchange round: contribute this shard's frame, wait
// for all peers, wrap every frame in a reader.
func (a *Aggregate) gather(w *FrameWriter) ([]*FrameReader, error) {
	frames, err := a.ex.Gather(a.slot, w.Bytes())
	if err != nil {
		return nil, err
	}
	rs := make([]*FrameReader, len(frames))
	for i, f := range frames {
		rs[i] = NewFrameReader(f)
	}
	return rs, nil
}

// check folds a reader's sticky decode error together with a structural
// expectation into one failure.
func (a *Aggregate) check(r *FrameReader, ok bool) error {
	if err := r.Err(); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("shard: misshapen exchange frame on shard %d", a.slot)
	}
	return nil
}

// Rows merges per-row vectors by ownership scatter, overwriting the
// rows this shard does not own in place. Either vector may be nil; a
// non-nil one must hold one value per profile.
func (a *Aggregate) Rows(f []float64, i []int64) ([]float64, []int64, error) {
	var w FrameWriter
	w.Float64s(f)
	w.Int64s(i)
	rs, err := a.gather(&w)
	if err != nil {
		return nil, nil, err
	}
	fs := make([][]float64, len(rs))
	is := make([][]int64, len(rs))
	for s, r := range rs {
		fs[s], is[s] = r.Float64s(), r.Int64s()
		if err := a.check(r, len(fs[s]) == len(f) && len(is[s]) == len(i)); err != nil {
			return nil, nil, err
		}
	}
	a.scatter(len(f), func(u, s int) { f[u] = fs[s][u] })
	a.scatter(len(i), func(u, s int) { i[u] = is[s][u] })
	return f, i, nil
}

// scatter calls set(u, owner) for every row u < n another shard owns.
func (a *Aggregate) scatter(n int, set func(u, owner int)) {
	for u := 0; u < n; u++ {
		if s := int(a.owners[u]); s != a.slot {
			set(u, s)
		}
	}
}

// Hist folds every shard's counting histogram into this shard's, in
// place: counts add, key minima and maxima of occupied buckets tighten
// (an empty bucket's are undefined). The fold commutes,
// so every shard ends with the identical histogram. Frames carry only
// the occupied buckets — a refinement round's candidates crowd into few
// of the 2^16 — so a round costs what the shard counted, not the
// histogram's width.
func (a *Aggregate) Hist(counts []int64, kmin, kmax []uint64) ([]int64, []uint64, []uint64, error) {
	var idx []int32
	var oc []int64
	var omin, omax []uint64
	for b, c := range counts {
		if c != 0 {
			idx = append(idx, int32(b))
			oc = append(oc, c)
			omin = append(omin, kmin[b])
			omax = append(omax, kmax[b])
		}
	}
	var w FrameWriter
	w.Int32s(idx)
	w.Int64s(oc)
	w.Uint64s(omin)
	w.Uint64s(omax)
	rs, err := a.gather(&w)
	if err != nil {
		return nil, nil, nil, err
	}
	for s, r := range rs {
		if s == a.slot {
			continue
		}
		idx, oc, omin, omax := r.Int32s(), r.Int64s(), r.Uint64s(), r.Uint64s()
		ok := len(oc) == len(idx) && len(omin) == len(idx) && len(omax) == len(idx)
		for _, b := range idx {
			ok = ok && b >= 0 && int(b) < len(counts)
		}
		if err := a.check(r, ok); err != nil {
			return nil, nil, nil, err
		}
		for j, b := range idx {
			if counts[b] == 0 {
				kmin[b], kmax[b] = omin[j], omax[j]
			} else {
				kmin[b] = min(kmin[b], omin[j])
				kmax[b] = max(kmax[b], omax[j])
			}
			counts[b] += oc[j]
		}
	}
	return counts, kmin, kmax, nil
}

// Marks merges per-row mark lists — ids[offsets[u]:offsets[u+1]] are
// row u's — by ownership scatter into one whole-graph list table.
func (a *Aggregate) Marks(offsets []int64, ids []int32) ([]int64, []int32, error) {
	var w FrameWriter
	w.Int64s(offsets)
	w.Int32s(ids)
	rs, err := a.gather(&w)
	if err != nil {
		return nil, nil, err
	}
	np := len(a.owners)
	offs := make([][]int64, len(rs))
	idss := make([][]int32, len(rs))
	for s, r := range rs {
		offs[s], idss[s] = r.Int64s(), r.Int32s()
		if err := a.check(r, len(offs[s]) == np+1 && offs[s][np] == int64(len(idss[s]))); err != nil {
			return nil, nil, err
		}
	}
	goff := make([]int64, np+1)
	for u := 0; u < np; u++ {
		o := offs[a.owners[u]]
		goff[u+1] = goff[u] + (o[u+1] - o[u])
	}
	gids := make([]int32, goff[np])
	for u := 0; u < np; u++ {
		s := a.owners[u]
		copy(gids[goff[u]:goff[u+1]], idss[s][offs[s][u]:offs[s][u+1]])
	}
	return goff, gids, nil
}

// IDs concatenates every shard's id list in shard order.
func (a *Aggregate) IDs(ids []int32) ([]int32, error) {
	var w FrameWriter
	w.Int32s(ids)
	rs, err := a.gather(&w)
	if err != nil {
		return nil, err
	}
	var out []int32
	for _, r := range rs {
		v := r.Int32s()
		if err := a.check(r, true); err != nil {
			return nil, err
		}
		out = append(out, v...)
	}
	return out, nil
}

// Sum totals one value over every shard.
func (a *Aggregate) Sum(v int64) (int64, error) {
	var w FrameWriter
	w.Int64s([]int64{v})
	rs, err := a.gather(&w)
	if err != nil {
		return 0, err
	}
	total := int64(0)
	for _, r := range rs {
		x := r.Int64s()
		if err := a.check(r, len(x) == 1); err != nil {
			return 0, err
		}
		total += x[0]
	}
	return total, nil
}

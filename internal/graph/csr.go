// Package graph builds the blocking graph of graph-based meta-blocking
// (Section 2.2 of the paper): nodes are entity profiles, and an edge
// connects two profiles that co-occur in at least one block. Each edge
// carries the co-occurrence statistics every weighting scheme needs —
// |B_uv|, ARCS mass, and the entropy sum that BLAST's h(B_uv) term
// averages — while per-node block counts |B_i| and the block-collection
// totals live on the graph.
package graph

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"

	"blast/internal/blocking"
)

// CSR is the node-centric (compressed sparse row) representation of the
// blocking graph: for every profile, a neighbor-sorted adjacency run in
// flat parallel arrays. Each undirected edge (u, v) appears twice — once
// in u's run and once in v's — so node-local computations (the theta_i
// thresholds of Section 3.3.2, per-node top-k) never consult anything
// beyond a node's own run.
//
// BuildCSR builds each node's run independently from the block index
// with an O(|profiles|) scratch accumulator, so peak allocation stays
// proportional to the output adjacency rather than to a hash table over
// the edges. The pruning decision (package prune) consumes this form
// directly and never materializes an edge list.
type CSR struct {
	// NumProfiles is the number of nodes (profiles of the dataset,
	// whether or not they have edges).
	NumProfiles int
	// Offsets indexes the entry arrays: node i's adjacency run occupies
	// positions [Offsets[i], Offsets[i+1]).
	Offsets []int64
	// Neighbors holds the neighbor profile id of every entry. Within a
	// node's run entries are sorted by ascending neighbor id.
	Neighbors []int32
	// Common is |B_uv|, the number of blocks the entry's two profiles
	// share; ARCS accumulates sum over shared blocks of 1/||b||; and
	// EntropySum accumulates sum over shared blocks of h(b), the
	// block's cluster aggregate entropy (h(B_uv) = EntropySum/Common).
	// Both entries of an undirected edge carry identical values. They
	// are only needed to compute Weights; ReleaseStats drops them once
	// weighting is done.
	Common     []int32
	ARCS       []float64
	EntropySum []float64
	// Weights is filled in by a weighting scheme (weights.Scheme.ApplyCSR),
	// one value per entry, identical across the two entries of an edge.
	Weights []float64

	// BlockCounts is |B_i| per profile in the underlying collection.
	BlockCounts []int32
	// TotalBlocks is |B|, the number of blocks of the collection.
	TotalBlocks int
	// TotalComparisons is ||B||, the aggregate cardinality.
	TotalComparisons int64

	// pages, when non-nil, backs the per-entry arrays with file-backed
	// node-aligned pages instead of the resident slices above (which are
	// then nil); see paged.go. Offsets and BlockCounts stay resident in
	// both modes. All access to Neighbors/Weights must go through the
	// run accessors (Run, Canonical*, MirrorEntry) so both backings
	// serve the identical bytes.
	pages *pagedEntries
}

// NumEntries returns the number of adjacency entries (2x the edges).
func (g *CSR) NumEntries() int64 {
	if n := len(g.Offsets); n > 0 {
		return g.Offsets[n-1]
	}
	return int64(len(g.Neighbors))
}

// NumEdges returns the number of distinct comparisons the graph entails.
func (g *CSR) NumEdges() int { return int(g.NumEntries() / 2) }

// Degree returns |v_i|, the number of edges adjacent to node i.
func (g *CSR) Degree(i int) int { return int(g.Offsets[i+1] - g.Offsets[i]) }

// Run returns node u's adjacency run: its neighbor ids and, once a
// weighting scheme has run, the matching per-entry weights (nil
// before). Entry i of the run sits at global position Offsets[u]+i in
// the entry arrays. The slices alias the graph's backing store — a
// resident sub-slice or a cached page — and must not be mutated or
// retained across other graph operations. This is the one accessor
// every pruning and serving pass iterates runs through, so the resident
// and spilled backings serve byte-identical data.
func (g *CSR) Run(u int) (nbr []int32, wts []float64) {
	lo, hi := g.Offsets[u], g.Offsets[u+1]
	if g.pages != nil {
		return g.pages.run(u, lo, hi)
	}
	nbr = g.Neighbors[lo:hi]
	if g.Weights != nil {
		wts = g.Weights[lo:hi]
	}
	return nbr, wts
}

// Degrees returns |v_i| for every node, the degree vector the
// weighting schemes consume (package weights).
func (g *CSR) Degrees() []int32 {
	d := make([]int32, g.NumProfiles)
	for i := range d {
		d[i] = int32(g.Degree(i))
	}
	return d
}

// ForRowRanges cuts the nodes into `workers` contiguous ranges of
// roughly equal entry count (0 = GOMAXPROCS) and runs fn on each range
// concurrently, returning after every range is done. Passes whose
// per-row work is independent use it to parallelize without changing a
// single written value.
func (g *CSR) ForRowRanges(workers int, fn func(lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if g.NumProfiles < 2*workers {
		workers = 1
	}
	_ = forRanges(cutRanges(g.Offsets, workers), func(lo, hi int) error {
		fn(lo, hi)
		return nil
	})
}

// ReleaseStats drops the co-occurrence accumulators, keeping only the
// adjacency structure and Weights. Call after weighting when the graph
// will only be pruned: it returns roughly half the per-entry memory to
// the allocator before the pruning passes run. On a spilled graph the
// stat segment files are deleted.
func (g *CSR) ReleaseStats() {
	g.Common, g.ARCS, g.EntropySum = nil, nil, nil
	if g.pages != nil {
		g.pages.releaseStats()
	}
}

// ReleaseBlockCounts drops the per-profile block counts. They are
// weighting/budget inputs only — every serving read (Candidates,
// Pairs, thresholds) works without them — so a frozen query-only index
// releases them after its decisions are final; like the released
// co-occurrence stats, the first mutation re-derives them with a graph
// rebuild.
func (g *CSR) ReleaseBlockCounts() { g.BlockCounts = nil }

// csrCancelCheckEvery is the granularity at which the CSR builders and
// ctx-aware iterators poll for cancellation: every so many nodes on the
// outer walk AND every so many entries inside a single adjacency run,
// so one hub node with a multi-million-entry run cannot delay
// cancellation arbitrarily (the same edge-segment contract the chunked
// pruning passes honor).
const csrCancelCheckEvery = 1024

// Canonical invokes fn for every canonical (u < v) entry in ascending
// (u, v) order — each undirected edge exactly once — passing the
// entry's position p into the entry arrays.
func (g *CSR) Canonical(fn func(u, v int32, p int64)) {
	_ = g.CanonicalCtx(context.Background(), fn)
}

// CanonicalCtx is Canonical with cooperative cancellation: it polls ctx
// every few thousand nodes and at edge-segment granularity inside each
// adjacency run, stopping early with ctx.Err(). Entries already visited
// have been passed to fn; callers must discard partial results on
// error.
func (g *CSR) CanonicalCtx(ctx context.Context, fn func(u, v int32, p int64)) error {
	budget := int64(csrCancelCheckEvery)
	for u := 0; u < g.NumProfiles; u++ {
		if u%csrCancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		base, end := g.Offsets[u], g.Offsets[u+1]
		nbr, _ := g.Run(u)
		for p := base; p < end; {
			seg := end - p
			if seg > budget {
				seg = budget
			}
			for stop := p + seg; p < stop; p++ {
				if v := nbr[p-base]; int(v) > u {
					fn(int32(u), v, p)
				}
			}
			if budget -= seg; budget == 0 {
				budget = csrCancelCheckEvery
				if err := ctx.Err(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// MirrorEntry locates the reverse entry of edge (u, v) — the position
// of u in v's neighbor-sorted run — by binary search, O(log
// degree(v)). The edge must exist.
func (g *CSR) MirrorEntry(u, v int32) int64 {
	base := g.Offsets[v]
	nbr, _ := g.Run(int(v))
	lo, hi := 0, len(nbr)
	for lo < hi {
		mid := (lo + hi) / 2
		if nbr[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return base + int64(lo)
}

// newCSRHeader fills in the collection-level statistics shared by
// BuildCSR and the spill builder.
func newCSRHeader(c *blocking.Collection) *CSR {
	return &CSR{
		NumProfiles:      c.NumProfiles,
		Offsets:          make([]int64, c.NumProfiles+1),
		BlockCounts:      c.ProfileBlockCounts(),
		TotalBlocks:      c.Len(),
		TotalComparisons: c.AggregateCardinality(),
	}
}

// blockInverses precomputes 1/||b|| per block (0 for blocks that entail
// no comparisons, which accumulation then skips).
func blockInverses(c *blocking.Collection) []float64 {
	inv := make([]float64, len(c.Blocks))
	for i := range c.Blocks {
		if cmp := c.Blocks[i].Comparisons(); cmp > 0 {
			inv[i] = 1 / float64(cmp)
		}
	}
	return inv
}

// blockIndex is the exact-sized flat inverted index profile -> block ids
// (ascending): node i's blocks occupy blocks[offsets[i]:offsets[i+1]].
// Equivalent to Collection.BlocksOfProfiles but allocation-exact — two
// flat arrays instead of per-profile slices — because the builders
// exist to keep peak allocation tight.
type blockIndex struct {
	offsets []int64
	blocks  []int32
}

func (ix *blockIndex) of(node int32) []int32 {
	return ix.blocks[ix.offsets[node]:ix.offsets[node+1]]
}

func buildBlockIndex(c *blocking.Collection, counts []int32) blockIndex {
	n := len(counts)
	offsets := make([]int64, n+1)
	for i, ct := range counts {
		offsets[i+1] = offsets[i] + int64(ct)
	}
	blocks := make([]int32, offsets[n])
	cursor := make([]int64, n)
	add := func(ids []int32, bi int32) {
		for _, p := range ids {
			blocks[offsets[p]+cursor[p]] = bi
			cursor[p]++
		}
	}
	for i := range c.Blocks {
		add(c.Blocks[i].P1, int32(i))
		add(c.Blocks[i].P2, int32(i))
	}
	return blockIndex{offsets: offsets, blocks: blocks}
}

// forEachNeighbor enumerates node's co-occurrences: every (neighbor,
// 1/||b||, h(b)) of every comparison-entailing block the node belongs
// to, visiting the node's blocks in ascending block order so per-edge
// floating-point sums are reproducible. A neighbor shared through k
// blocks is visited k times. It is the single enumeration every builder
// pass goes through — the count pass and the fill pass of BuildCSR and
// the spill builder's loop — so they cannot disagree on a run.
func forEachNeighbor(c *blocking.Collection, inv []float64, ix *blockIndex, node int32, fn func(j int32, inv, entropy float64)) {
	for _, bi := range ix.of(node) {
		w := inv[bi]
		if w == 0 {
			continue
		}
		b := &c.Blocks[bi]
		if b.P2 != nil {
			// Clean-clean: only cross-source comparisons are valid.
			others := b.P2
			if int(node) >= c.Split {
				others = b.P1
			}
			for _, j := range others {
				fn(j, w, b.Entropy)
			}
			continue
		}
		for _, j := range b.P1 {
			if j != node {
				fn(j, w, b.Entropy)
			}
		}
	}
}

// nodeAcc is the reusable sparse accumulator of one node's adjacency:
// dense arrays indexed by neighbor id plus the list of touched ids. The
// arrays are O(NumProfiles) but are allocated once per builder worker
// and reset in O(degree) per node.
type nodeAcc struct {
	common  []int32
	arcs    []float64
	entropy []float64
	touched []int32
}

func newNodeAcc(n int) *nodeAcc {
	return &nodeAcc{
		common:  make([]int32, n),
		arcs:    make([]float64, n),
		entropy: make([]float64, n),
	}
}

func (a *nodeAcc) add(j int32, inv, entropy float64) {
	if a.common[j] == 0 {
		a.touched = append(a.touched, j)
	}
	a.common[j]++
	a.arcs[j] += inv
	a.entropy[j] += entropy
}

// accumulate fills the accumulator with node's co-occurrence
// statistics. Both entries of an edge see the same shared blocks in the
// same ascending order, so their sums are bit-identical. Touched
// neighbor ids end up sorted.
func (a *nodeAcc) accumulate(c *blocking.Collection, inv []float64, ix *blockIndex, node int32) {
	forEachNeighbor(c, inv, ix, node, a.add)
	slices.Sort(a.touched)
}

// reset clears the touched entries in O(degree).
func (a *nodeAcc) reset() {
	for _, j := range a.touched {
		a.common[j], a.arcs[j], a.entropy[j] = 0, 0, 0
	}
	a.touched = a.touched[:0]
}

// BuildCSR constructs the node-centric blocking graph of a block
// collection on workers goroutines (0 = GOMAXPROCS). It visits each
// block once per member profile, so the cost is proportional to
// 2*||B||, and no global edge map is ever allocated.
//
// owns selects the rows whose adjacency runs are materialized; nil
// selects every row. Offsets always spans every profile — unselected
// rows are empty runs — which is the build primitive of partitioned
// sharding: each shard materializes its owned rows from the shared
// block collection, and their per-entry statistics are bit-identical to
// the same rows of a full build, because per-node accumulation never
// consults anything beyond the collection and the node's own block
// list. The header statistics (BlockCounts, TotalBlocks,
// TotalComparisons) are global either way; NumEdges() of an owned-rows
// graph counts owned entries over two, NOT the global edge count.
//
// The build runs in two passes over contiguous node ranges of equal
// block-membership mass: the first counts each row's distinct
// neighbors into Offsets, the prefix sum sizes the entry arrays exactly
// once, and the second fills every run in place. Each run's content is
// a pure function of its node, so the result is byte-identical at every
// worker count. Cancellation is polled every few thousand nodes per
// worker; a cancelled build returns ctx.Err() and no graph.
func BuildCSR(ctx context.Context, c *blocking.Collection, owns func(int32) bool, workers int) (*CSR, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if c.NumProfiles < 2*workers {
		workers = 1
	}
	g := newCSRHeader(c)
	ix := buildBlockIndex(c, g.BlockCounts)
	inv := blockInverses(c)
	bounds := cutRanges(ix.offsets, workers)
	rows := func(lo, hi int, fn func(n int32)) error {
		for n := lo; n < hi; n++ {
			if (n-lo)%csrCancelCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			if owns == nil || owns(int32(n)) {
				fn(int32(n))
			}
		}
		return nil
	}

	// Pass 1: run lengths. seen[j] == n+1 marks j as already counted
	// for node n, so no per-node reset is needed.
	err := forRanges(bounds, func(lo, hi int) error {
		seen := make([]int32, c.NumProfiles)
		return rows(lo, hi, func(n int32) {
			deg := int64(0)
			forEachNeighbor(c, inv, &ix, n, func(j int32, _, _ float64) {
				if seen[j] != n+1 {
					seen[j] = n + 1
					deg++
				}
			})
			g.Offsets[n+1] = deg
		})
	})
	if err != nil {
		return nil, err
	}
	for n := 0; n < c.NumProfiles; n++ {
		g.Offsets[n+1] += g.Offsets[n]
	}
	total := g.Offsets[c.NumProfiles]
	g.Neighbors = make([]int32, total)
	g.Common = make([]int32, total)
	g.ARCS = make([]float64, total)
	g.EntropySum = make([]float64, total)
	g.Weights = make([]float64, total)

	// Pass 2: fill each run in place; ranges are disjoint, so workers
	// never write the same entry.
	err = forRanges(bounds, func(lo, hi int) error {
		acc := newNodeAcc(c.NumProfiles)
		return rows(lo, hi, func(n int32) {
			acc.accumulate(c, inv, &ix, n)
			p := g.Offsets[n]
			for i, j := range acc.touched {
				g.Neighbors[p+int64(i)] = j
				g.Common[p+int64(i)] = acc.common[j]
				g.ARCS[p+int64(i)] = acc.arcs[j]
				g.EntropySum[p+int64(i)] = acc.entropy[j]
			}
			acc.reset()
		})
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// forRanges runs fn on every [bounds[w], bounds[w+1]) range, one
// goroutine per range (inline when there is only one), and returns the
// first error by range order.
func forRanges(bounds []int, fn func(lo, hi int) error) error {
	n := len(bounds) - 1
	if n == 1 {
		return fn(bounds[0], bounds[1])
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = fn(bounds[w], bounds[w+1])
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// cutRanges splits the node space into `workers` contiguous ranges of
// roughly equal total block membership (the cost driver of per-node
// accumulation), using the block index's prefix sums. Returns workers+1
// boundaries with bounds[0] = 0 and bounds[workers] = the node count.
func cutRanges(offsets []int64, workers int) []int {
	n := len(offsets) - 1
	total := offsets[n]
	bounds := make([]int, workers+1)
	bounds[workers] = n
	for w := 1; w < workers; w++ {
		target := total * int64(w) / int64(workers)
		bounds[w] = sort.Search(n, func(i int) bool { return offsets[i+1] >= target })
		if bounds[w] < bounds[w-1] {
			bounds[w] = bounds[w-1]
		}
	}
	return bounds
}

package blast

// The Server's shard writer. A partIndex owns only the rows that hash
// onto its shard: it holds the (compact, fully replicated) block
// collection plus an appender, and materializes nothing else between
// exports. An export builds the owned-rows CSR from the collection and
// makes the pruning decision with prune.Decide — the same function a
// single-graph build uses — through a shard.Aggregate, which resolves
// every graph-global input by an all-gather of compact per-shard
// aggregates over the server's shard.Exchange:
//
//	degrees    owned run lengths        → global degrees, edge count
//	decision   the scheme's aggregates  → the decision (prune.Decide)
//	final      owned mark counts        → the global retained count
//
// Every branch a shard takes between rounds depends only on globally
// merged values, so all shards run the identical round sequence and the
// exchange's call-index round matching never misaligns.
//
// The correctness contract is the Index's, bit for bit: a row's run in
// a shard snapshot is byte-identical to the same row of a cold
// IndexBlocks over the same collection, because one decision function
// serves both and the aggregates merge by ownership (per-row values) or
// by exact commutative folds (histograms, counts).

import (
	"context"

	"blast/internal/blocking"
	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/prune"
	"blast/internal/shard"
)

// partIndex is the Writer behind one shard of a Server.
// The shard worker serializes all calls, so it needs no lock of its
// own.
type partIndex struct {
	part   int
	nparts int
	kind   model.Kind
	schema *Schema
	opt    Options
	app    *blocking.Appender
	ex     *shard.Exchange
}

// newPartIndex wraps one shard's clone of the block collection. The
// clone is owned by the partIndex from here on.
func newPartIndex(c *blocking.Collection, schema *Schema, opt Options, part, nparts int, ex *shard.Exchange) *partIndex {
	return &partIndex{
		part:   part,
		nparts: nparts,
		kind:   c.Kind,
		schema: schema,
		opt:    opt,
		app:    blocking.NewAppender(c),
		ex:     ex,
	}
}

// owns is the row-ownership predicate of this shard.
func (px *partIndex) owns(p int32) bool {
	return shard.Owner(p, px.nparts) == px.part
}

// InsertAll tokenizes and appends a batch to the shard's collection.
// Unlike Index.InsertAll there is no decision state to fold the batch
// into — ownership resolution happens wholesale at the next Export —
// so admission cannot fail mid-batch: tokenization is total and the
// append is unconditional. Every shard of the server admits every
// batch (the collection is replicated; only adjacency is partitioned),
// which is what keeps the appenders' id assignment aligned.
func (px *partIndex) InsertAll(ctx context.Context, profiles []model.Profile) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	keys := make([][]blocking.KeyEntropy, len(profiles))
	for i := range profiles {
		keys[i] = tokenizeProfile(px.schema, px.kind, &px.opt, &profiles[i])
	}
	ids := make([]int, len(profiles))
	for i := range keys {
		ids[i] = int(px.app.Append(keys[i]).ID)
	}
	return ids, nil
}

// Export builds this shard's owned-rows snapshot at the current
// collection state, running the aggregate-exchange rounds described in
// the file comment. All participating shards must export concurrently
// from identical collection states; the server guarantees both (batches
// are enqueued to all shards atomically, swaps are SwapOps-aligned, and
// construction runs every shard's first export together).
func (px *partIndex) Export(ctx context.Context) (*shard.Snapshot, error) {
	c := px.app.Collection()
	np := c.NumProfiles
	g, err := graph.BuildCSR(ctx, c, px.owns, px.opt.Workers)
	if err != nil {
		return nil, err
	}
	agg := shard.NewAggregate(px.ex, px.part, px.nparts, np)

	// An owned row's run is its node's complete adjacency, so run
	// lengths are the global degrees and their sum counts every edge
	// once per endpoint.
	runs := make([]int64, np)
	for u := range runs {
		runs[u] = g.Offsets[u+1] - g.Offsets[u]
	}
	if _, runs, err = agg.Rows(nil, runs); err != nil {
		return nil, err
	}
	degrees := make([]int32, np)
	ends := int64(0)
	for u, d := range runs {
		degrees[u] = int32(d)
		ends += d
	}
	numEdges := int(ends / 2)

	px.opt.Scheme.ApplyCSR(g, degrees, numEdges, px.opt.Workers)
	g.ReleaseStats()

	dec, err := prune.Decide(ctx, g, pruneParams(px.opt), numEdges, agg)
	if err != nil {
		return nil, err
	}
	retained, marks, err := prune.MarkOwned(ctx, g, px.opt.Workers, dec.Keep)
	if err != nil {
		return nil, err
	}
	// Each retained edge is marked once by the owner of each endpoint —
	// twice in the global sum, whoever the owners are.
	total, err := agg.Sum(marks)
	if err != nil {
		return nil, err
	}

	return &shard.Snapshot{
		NumProfiles:   np,
		NumEdges:      numEdges,
		RetainedPairs: int(total / 2),
		Offsets:       g.Offsets,
		Neighbors:     g.Neighbors,
		Weights:       g.Weights,
		Retained:      retained,
		Theta:         dec.Theta,
		PartShards:    px.nparts,
		PartShard:     px.part,
	}, nil
}

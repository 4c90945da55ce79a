package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"blast"
	"blast/internal/datasets"
	"blast/internal/model"
)

// batchResult holds what the batch part measured.
type batchResult struct {
	setup  []float64 // CSV load + NewPipeline, seconds
	runs   []float64 // untraced Pipeline.Run, seconds
	traced []float64 // traced runs, seconds
	pc, pq float64
	// pairsDigest is the SHA-256 of the retained pairs (see pairsDigest).
	pairsDigest string
}

// Minimum repetitions of the batch loop when it has a time budget.
const (
	minBatchRuns  = 5
	minTracedRuns = 3
)

// writeBatchInput encodes the batch corpus as the CSV files blastcli
// reads, under the run's scratch directory, and digests their bytes.
func writeBatchInput(b *bench, ds *model.Dataset) error {
	dir := filepath.Join(b.dir, "batch")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	files := []struct {
		name  string
		write func(*bytes.Buffer) error
	}{
		{"e1.csv", func(w *bytes.Buffer) error { return datasets.WriteCollection(w, ds.E1) }},
		{"truth.csv", func(w *bytes.Buffer) error { return datasets.WriteTruth(w, ds) }},
	}
	if ds.Kind == model.CleanClean {
		files = append(files, struct {
			name  string
			write func(*bytes.Buffer) error
		}{"e2.csv", func(w *bytes.Buffer) error { return datasets.WriteCollection(w, ds.E2) }})
	}
	for _, f := range files {
		var buf bytes.Buffer
		if err := f.write(&buf); err != nil {
			return fmt.Errorf("encode %s: %w", f.name, err)
		}
		fmt.Fprintf(b.input, "%s %d\n", f.name, buf.Len())
		b.input.Write(buf.Bytes())
		if err := os.WriteFile(filepath.Join(dir, f.name), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// loadBatch reads the CSV files back the way blastcli does.
func loadBatch(dir string, kind model.Kind) (*model.Dataset, error) {
	read := func(name, label string) (*model.Collection, error) {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return datasets.ReadCollection(f, label)
	}
	e1, err := read("e1.csv", "E1")
	if err != nil {
		return nil, err
	}
	ds := &model.Dataset{Name: "perfbench", Kind: kind, E1: e1, Truth: model.NewGroundTruth()}
	if kind == model.CleanClean {
		if ds.E2, err = read("e2.csv", "E2"); err != nil {
			return nil, err
		}
	}
	f, err := os.Open(filepath.Join(dir, "truth.csv"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if ds.Truth, err = datasets.ReadTruth(f, ds); err != nil {
		return nil, err
	}
	return ds, nil
}

// stageTrace turns the pipeline's Progress callbacks into child spans
// of the MetaBlock span open at the time.
type stageTrace struct {
	tr     *tracer
	parent int
	alloc  uint64
}

func (s *stageTrace) progress(stage string, d time.Duration) {
	switch stage {
	case "graph", "weight", "prune":
		s.alloc = s.tr.add(stage, s.parent, d, s.alloc)
	}
}

// runBatch loads the corpus from CSV and runs the pipeline: once to
// obtain the reference output, then repeatedly for the time budget.
func runBatch(ctx context.Context, b *bench, kind model.Kind, budget time.Duration) (*batchResult, error) {
	r := &batchResult{}
	dir := filepath.Join(b.dir, "batch")
	reps := batchSetupReps
	if b.wl.serveMain {
		reps = 1
	}
	var ds *model.Dataset
	var p *blast.Pipeline
	for i := 0; i < reps; i++ {
		runtime.GC()
		sp := b.tr.begin("load", 0)
		t0 := time.Now()
		d, err := loadBatch(dir, kind)
		if b.op("csv load", err) {
			var pl *blast.Pipeline
			pl, err = blast.NewPipeline(blast.DefaultOptions())
			if b.op("new pipeline", err) {
				ds, p = d, pl
			}
		}
		el := time.Since(t0)
		b.tr.end(sp)
		r.setup = append(r.setup, el.Seconds())
	}
	if p == nil {
		return nil, fmt.Errorf("batch set-up failed: %v", b.failures)
	}

	runtime.GC()
	ref, err := p.Run(ctx, ds)
	if !b.op("pipeline run", err) {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	r.pc, r.pq = ref.Quality.PC, ref.Quality.PQ
	want := pairsDigest(ref.Pairs)
	r.pairsDigest = hex.EncodeToString(want[:])

	var st *stageTrace
	var tp *blast.Pipeline
	minTraced := 0
	if b.tr != nil {
		st = &stageTrace{tr: b.tr}
		opt := blast.DefaultOptions()
		opt.Progress = st.progress
		if tp, err = blast.NewPipeline(opt); err != nil {
			return nil, err
		}
		minTraced = minTracedRuns
	}
	minRuns := minBatchRuns
	if budget == 0 {
		minRuns = 0 // the reference run is all a workload without a batch budget needs
	}
	var lastTraced *traceArtifacts
	var graphPeaks []float64
	start := time.Now()
	for i := 0; len(r.runs) < minRuns || len(r.traced) < minTraced || time.Since(start) < budget; i++ {
		runtime.GC()
		var res *blast.Result
		if b.tr != nil && i%2 == 1 {
			hs := startHeapSampler(b.tr)
			var art *traceArtifacts
			art, err = tracedRun(ctx, b.tr, st, tp, ds)
			hs.finish()
			if err == nil {
				res, lastTraced = art.res, art
				r.traced = append(r.traced, art.run.dur().Seconds())
				graphPeaks = append(graphPeaks, float64(hs.peakWithin(art.graph(b.tr.snapshot()))))
			}
		} else {
			t0 := time.Now()
			res, err = p.Run(ctx, ds)
			if err == nil {
				r.runs = append(r.runs, time.Since(t0).Seconds())
			}
		}
		if !b.op("pipeline run", err) {
			continue
		}
		got := pairsDigest(res.Pairs)
		b.check("batch pairs", got == want, "run %d retained %d pairs that differ from the reference run", i, len(res.Pairs))
	}
	if b.tr != nil && !b.wl.serveMain {
		b.layer("tracing.overhead_frac", median(r.traced)/median(r.runs)-1, "ratio")
	}
	if b.tr != nil {
		batchLayers(b, lastTraced, graphPeaks)
	}
	return r, nil
}

// traceArtifacts is what one traced run leaves for the per-layer report.
type traceArtifacts struct {
	run    span
	res    *blast.Result
	schema *blast.Schema
	blocks *blast.Blocks
}

// graph returns the graph span of this run.
func (a *traceArtifacts) graph(spans []span) span {
	for _, s := range spans {
		if s.Name == "graph" && s.StartNS >= a.run.StartNS && s.EndNS <= a.run.EndNS {
			return s
		}
	}
	return span{}
}

// tracedRun performs Pipeline.Run's three phases as separate public
// calls, each inside a span under one "run" span.
func tracedRun(ctx context.Context, tr *tracer, st *stageTrace, p *blast.Pipeline, ds *model.Dataset) (*traceArtifacts, error) {
	runID := tr.begin("run", 0)
	id := tr.begin("induce", runID)
	sch, err := p.InduceSchema(ctx, ds)
	tr.end(id)
	if err != nil {
		tr.end(runID)
		return nil, err
	}
	id = tr.begin("block", runID)
	blocks, err := p.Block(ctx, ds, sch)
	tr.end(id)
	if err != nil {
		tr.end(runID)
		return nil, err
	}
	id = tr.begin("metablock", runID)
	st.parent, st.alloc = id, allocBytes()
	res, err := p.MetaBlock(ctx, blocks)
	tr.end(id)
	tr.end(runID)
	if err != nil {
		return nil, err
	}
	return &traceArtifacts{run: tr.snapshot()[runID-1], res: res, schema: sch, blocks: blocks}, nil
}

// batchLayers reports the batch part's per-layer metrics: medians over
// the traced runs of each stage's time and allocation.
func batchLayers(b *bench, last *traceArtifacts, graphPeaks []float64) {
	spans := b.tr.snapshot()
	durs := func(name string) (d, alloc, self []float64) {
		for _, s := range named(spans, name) {
			d = append(d, s.dur().Seconds())
			alloc = append(alloc, float64(s.AllocEnd-s.AllocStart))
			self = append(self, selfTime(s, spans).Seconds())
		}
		return
	}
	for _, name := range []string{"induce", "block", "metablock", "graph", "weight", "prune"} {
		d, alloc, self := durs(name)
		b.layer(name+".s", median(d), "s")
		b.layer(name+".alloc_bytes", median(alloc), "bytes")
		if name == "metablock" {
			b.layer("metablock.self_s", median(self), "s")
		}
	}
	load, _, _ := durs("load")
	b.layer("load.s", median(load), "s")
	runs, _, _ := durs("run")
	b.layer("run.s", median(runs), "s")

	// The stage self times should add up to the run span: the rest is
	// the benchmark's own glue between calls.
	var cover []float64
	for _, r := range named(spans, "run") {
		var sum time.Duration
		for _, s := range spans {
			if s.StartNS >= r.StartNS && s.EndNS <= r.EndNS && s.ID != r.ID {
				sum += selfTime(s, spans)
			}
		}
		cover = append(cover, sum.Seconds()/r.dur().Seconds())
	}
	b.layer("trace.stage_cover_frac", median(cover), "ratio")
	b.layer("graph.peak_heap_bytes", median(graphPeaks), "bytes")

	clusters := 0
	if last.schema.Partitioning != nil {
		clusters = len(last.schema.Partitioning.Clusters)
	}
	b.layer("induce.clusters", float64(clusters), "count")
	comparisons := last.blocks.Collection.AggregateCardinality()
	b.layer("block.blocks", float64(last.blocks.Collection.Len()), "count")
	b.layer("block.comparisons", float64(comparisons), "count")
	b.layer("prune.retained", float64(len(last.res.Pairs)), "count")
	b.layer("prune.retained_frac", float64(len(last.res.Pairs))/float64(comparisons), "ratio")
}

// pairsDigest hashes a pair list in order.
func pairsDigest(pairs []model.IDPair) [32]byte {
	h := sha256.New()
	var buf [8]byte
	for _, p := range pairs {
		binary.LittleEndian.PutUint32(buf[:4], uint32(p.U))
		binary.LittleEndian.PutUint32(buf[4:], uint32(p.V))
		h.Write(buf[:])
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

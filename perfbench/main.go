// Command perfbench is the repository's benchmark. One run measures one
// workload end to end through the public API (blast.Pipeline,
// blast.Server and blasthttp.Handler), checks every output, and prints
// its metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload batch-cddb --seed 42 --seconds 30 --trace 0
//
// Every workload has a batch part (CSV load, then Pipeline.Run) and a
// serving part (a durable two-shard Server behind blasthttp over
// loopback, a writer and an open-loop reader, then a restart); the
// workloads differ in corpus and in which part carries the load. See
// README.md for the workloads, the metrics and how to read them.
package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"blast/internal/datasets"
	"blast/internal/model"
)

// workload fixes one benchmark input. Sizes are counts at scale 1; the
// self-test shrinks them through config.scale.
type workload struct {
	name string
	// corpus generates the workload's corpus. Its content is fixed (see
	// corpusSeed); --seed only permutes it.
	corpus func(scale float64, seed uint64) *model.Dataset
	// batchProfiles truncates the corpus for the batch part (0 keeps it
	// whole); clean-clean corpora keep E1 and are cut in E2.
	batchProfiles int
	// serveSeed and serveInserts size the serving part: the first
	// serveSeed+serveInserts profiles of the corpus, permuted; the server
	// starts on serveSeed of them and is sent the rest (see splitStream).
	serveSeed, serveInserts int
	// serveMain marks the workload whose load is on the serving part:
	// setup_s is then the server's cold start, not the CSV load.
	serveMain bool
	// batchShare and readShare size the batch loop and the read-only phase
	// of the serving part as shares of --seconds. A zero batchShare leaves
	// only the reference run, for pc and pq.
	batchShare, readShare float64
}

// corpusSeed is the generator seed of every corpus. Like the paper's
// datasets, each workload's corpus is one fixed collection: across
// generator seeds, PQ of the 4,000-profile serving corpus spread 8-13%,
// more than any bound here allows. --seed permutes the profiles and drives
// the load generator instead.
const corpusSeed = 42

var workloads = []workload{
	{
		name:         "batch-cddb",
		corpus:       func(s float64, seed uint64) *model.Dataset { return datasets.CDDB(s, seed) },
		serveSeed:    1000,
		serveInserts: 600,
		batchShare:   1,
		readShare:    0.1,
	},
	{
		name:         "batch-dbp",
		corpus:       func(s float64, seed uint64) *model.Dataset { return datasets.DBP(0.1*s, seed) },
		serveSeed:    1400,
		serveInserts: 600,
		batchShare:   1,
		readShare:    0.1,
	},
	{
		name:          "serve-cddb",
		corpus:        func(s float64, seed uint64) *model.Dataset { return datasets.CDDB(s, seed) },
		batchProfiles: 4000,
		serveSeed:     3000,
		serveInserts:  1000,
		serveMain:     true,
		batchShare:    0,
		readShare:     0.1,
	},
}

// Load-generator settings of the serving part.
const (
	insertBatch = 8    // profiles per POST /v1/insert
	mixedRate   = 1000 // candidates GETs per second while inserts run
	readRate    = 2000 // candidates GETs per second in the read-only phase
	// Set-up repetitions; setup_s is their median.
	batchSetupReps = 15
	serveSetupReps = 5
	recoverReps    = 3
)

//go:embed pins.json
var pinsJSON []byte

// pin holds the digests recorded for one workload, seed and scale: of
// the generated inputs, of the batch part's retained pairs, and of the
// /v1/pairs body the serving part ends with.
type pin struct {
	Input  string `json:"input_sha256"`
	Pairs  string `json:"pairs_sha256"`
	Served string `json:"served_sha256"`
}

func pinKey(w string, seed uint64, scale float64) string {
	return fmt.Sprintf("%s seed=%d scale=%g", w, seed, scale)
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	// scale shrinks every corpus and operation count; the command line
	// always runs at 1, the self-test below it.
	scale float64
	pins  map[string]pin
}

func main() {
	var pins map[string]pin
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: pins.json:", err)
		os.Exit(2)
	}
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	cfg.pins = pins
	if err := run(context.Background(), cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: batch-cddb, batch-dbp or serve-cddb")
	fs.Uint64Var(&cfg.seed, "seed", 42, "permutes the corpus and drives the load generator")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measurement budget in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and prints the per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for scratch files and traces")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.scale = 1
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		err := fmt.Errorf("-trace must be 0 or 1, got %d", trace)
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return cfg, err
	}
	if !(cfg.seconds > 0) {
		err := fmt.Errorf("-seconds must be positive, got %g", cfg.seconds)
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return cfg, err
	}
	return cfg, nil
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state one run shares across its parts.
type bench struct {
	cfg  config
	wl   workload
	dir  string   // scratch directory of this run
	tr   *tracer  // nil when untraced
	rand splitmix // read ids

	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string

	input  hash.Hash // digest of every generated input
	layers map[string]metric
}

// op counts one attempted operation and, when err is non-nil, a failure.
func (b *bench) op(what string, err error) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, fmt.Sprintf("%s: %v", what, err))
		}
		return false
	}
	return true
}

// check counts one correctness check.
func (b *bench) check(name string, ok bool, format string, a ...any) bool {
	var err error
	if !ok {
		err = fmt.Errorf(format, a...)
	}
	return b.op("check "+name, err)
}

// layer records one per-layer metric.
func (b *bench) layer(name string, v float64, unit string) {
	b.layers[name] = metric{v, unit}
}

func run(ctx context.Context, cfg config, out io.Writer) error {
	var wl workload
	for _, w := range workloads {
		if w.name == cfg.workload {
			wl = w
		}
	}
	if wl.name == "" {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	b := &bench{cfg: cfg, wl: wl, rand: splitmix(cfg.seed + 2),
		input: sha256.New(), layers: map[string]metric{}}
	if cfg.trace {
		b.tr = newTracer(fmt.Sprintf("%s-%d-%d", wl.name, cfg.seed, time.Now().UnixNano()))
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return err
	}
	b.dir = dir
	defer os.RemoveAll(dir)

	// Inputs: the workload's fixed corpus, permuted by the seed, encoded,
	// digested and checked against the pin before anything is timed.
	full := wl.corpus(cfg.scale, corpusSeed)
	batchDS := full
	if wl.batchProfiles > 0 {
		batchDS = prefix(full, scaled(wl.batchProfiles, cfg.scale))
	}
	batchDS = permute(batchDS, cfg.seed)
	nSeed, nInserts := scaled(wl.serveSeed, cfg.scale), scaled(wl.serveInserts, cfg.scale)
	serveDS := permute(prefix(full, nSeed+nInserts), cfg.seed+1)
	seedDS, inserts := splitStream(serveDS, nSeed)
	if err := writeBatchInput(b, batchDS); err != nil {
		return err
	}
	if err := digestServeInput(b, seedDS, inserts); err != nil {
		return err
	}
	inputDigest := hex.EncodeToString(b.input.Sum(nil))
	p, pinned := cfg.pins[pinKey(wl.name, cfg.seed, cfg.scale)]
	if pinned && p.Input != inputDigest {
		return fmt.Errorf("input digest mismatch for %s: generated %s, pinned %s (the corpus generator changed)",
			pinKey(wl.name, cfg.seed, cfg.scale), inputDigest, p.Input)
	}
	full, serveDS = nil, nil
	runtime.GC()

	budget := cfg.seconds * float64(time.Second)
	br, err := runBatch(ctx, b, batchDS.Kind, time.Duration(budget*wl.batchShare))
	if err != nil {
		return err
	}
	batchDS = nil
	runtime.GC()
	checkPin := func(name, got, want string) {
		if pinned {
			b.check(name, got == want, "%s mismatch for %s: got %s, pinned %s", name, pinKey(wl.name, cfg.seed, cfg.scale), got, want)
		}
	}
	checkPin("pairs digest", br.pairsDigest, p.Pairs)
	// The serving part carries an end-to-end metric only on the serving
	// workload; elsewhere it runs for the per-layer report.
	var sr *serveResult
	if wl.serveMain || cfg.trace {
		if sr, err = runServe(ctx, b, seedDS, inserts, time.Duration(budget*wl.readShare)); err != nil {
			return err
		}
		checkPin("served digest", sr.pairsDigest, p.Served)
	}

	var res result
	if cfg.trace {
		b.check("span nesting", nested(b.tr.snapshot()), "a child span lies outside its parent")
		if err := os.MkdirAll(filepath.Join(cfg.workdir, "traces"), 0o755); err != nil {
			return err
		}
		tpath := filepath.Join(cfg.workdir, "traces", fmt.Sprintf("%s-seed%d.json", wl.name, cfg.seed))
		if err := b.tr.write(tpath); err != nil {
			return err
		}
		for name, m := range serveMetrics(sr) {
			b.layers[name] = m
		}
		res.Metrics = b.layers
	} else {
		res.Metrics = endToEnd(b, br, sr)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			b.check("samples", false, "metric %s has no finite value", name)
			res.Metrics[name] = metric{0, m.Unit}
		}
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0
	if !cfg.trace {
		// success_frac is 1 - failed/attempted: the failure share as a
		// metric that is never 0, so its spread is a share of its median.
		res.Metrics["success_frac"] = metric{1 - float64(b.failed)/float64(b.attempted), "ratio"}
	}

	info := map[string]any{
		"workload": wl.name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace, "scale": cfg.scale,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(), "go": runtime.Version(),
		"commit": commit(), "input_sha256": inputDigest, "pairs_sha256": br.pairsDigest,
		"pinned": pinned, "failures": b.failures,
	}
	if sr != nil {
		info["served_sha256"] = sr.pairsDigest
		if !cfg.trace {
			info["serve"] = serveMetrics(sr)
		}
	}
	if err := writeJSONLine(out, map[string]any{"info": info}); err != nil {
		return err
	}
	if err := writeJSONLine(out, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%d of %d operations and checks failed: %s", res.Failed, res.Attempted, strings.Join(b.failures, "; "))
	}
	return nil
}

// endToEnd assembles the untraced run's user-visible metrics. run_s is
// the wall time of the workload's main job: Pipeline.Run (the paper's
// t_o) on the batch workloads, the write phase on serve-cddb.
func endToEnd(b *bench, br *batchResult, sr *serveResult) map[string]metric {
	setup, job := br.setup, median(br.runs)
	if b.wl.serveMain {
		setup, job = sr.cold, sr.writeWall
	}
	return map[string]metric{
		"setup_s":        {median(setup), "s"},
		"run_s":          {job, "s"},
		"pc":             {br.pc, "ratio"},
		"pq":             {br.pq, "ratio"},
		"peak_rss_bytes": {float64(peakRSS()), "bytes"},
	}
}

// serveMetrics are the serving part's user-visible figures. Their spread
// across runs is too wide to bound (see README.md), so the traced run
// reports them per layer and an untraced run in its info line.
func serveMetrics(sr *serveResult) map[string]metric {
	return map[string]metric{
		"serve.insert_per_s":      {float64(sr.inserted) / sr.writeWall, "profiles/s"},
		"serve.insert_ack_p50_ms": {quantile(sr.ackMS, 0.50), "ms"},
		"serve.insert_ack_p90_ms": {quantile(sr.ackMS, 0.90), "ms"},
		"serve.mixed_read_p50_us": {quantile(sr.mixedUS, 0.50), "us"},
		"serve.mixed_read_p95_us": {quantile(sr.mixedUS, 0.95), "us"},
		"serve.mixed_read_per_s":  {float64(len(sr.mixedUS)) / sr.writeWall, "1/s"},
		"serve.read_p50_us":       {quantile(sr.readUS, 0.50), "us"},
		"serve.read_p99_us":       {quantile(sr.readUS, 0.99), "us"},
		"serve.recover_s":         {median(sr.recover), "s"},
	}
}

func writeJSONLine(w io.Writer, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return err
}

// commit is the VCS revision the binary was built from, when known.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func scaled(n int, scale float64) int { return max(8, int(math.Round(float64(n)*scale))) }

// splitmix is the splitmix64 generator: small, seedable and stable
// across Go releases, so a seed names the same inputs everywhere.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// nextID draws the next read id in [0, n) from the run's seed.
func (b *bench) nextID(n int) int { return int(b.rand.next() % uint64(n)) }

// prefix keeps the first n profiles of a corpus with the truth among
// them; a clean-clean corpus gives each source its share of n.
func prefix(ds *model.Dataset, n int) *model.Dataset {
	n1, n2 := min(n, ds.E1.Len()), 0
	if ds.Kind == model.CleanClean {
		n1 = n * ds.E1.Len() / ds.NumProfiles()
		n2 = n - n1
	}
	return slice(ds, n1, n2)
}

// slice keeps the first n1 profiles of E1 and n2 of E2.
func slice(ds *model.Dataset, n1, n2 int) *model.Dataset {
	out := &model.Dataset{Name: ds.Name, Kind: ds.Kind, E1: cut(ds.E1, n1), Truth: model.NewGroundTruth()}
	remap := func(g int) (int, bool) { return g, g < n1 }
	if ds.Kind == model.CleanClean {
		out.E2 = cut(ds.E2, n2)
		split := ds.E1.Len()
		remap = func(g int) (int, bool) {
			if g < split {
				return g, g < n1
			}
			return g - split + n1, g-split < n2
		}
	}
	for _, p := range ds.Truth.Pairs() {
		u, ok1 := remap(int(p.U))
		v, ok2 := remap(int(p.V))
		if ok1 && ok2 {
			out.Truth.Add(u, v)
		}
	}
	return out
}

// splitStream divides a corpus into the server's seed, its first nSeed
// profiles, and the profiles streamed after it. Clean-clean seeds hold
// all of E1, and the stream joins E2 as Server inserts do.
func splitStream(ds *model.Dataset, nSeed int) (*model.Dataset, []model.Profile) {
	if ds.Kind == model.CleanClean {
		k := nSeed - ds.E1.Len()
		if k < 1 {
			panic(fmt.Sprintf("perfbench: a clean-clean seed of %d profiles does not cover E1 (%d)", nSeed, ds.E1.Len()))
		}
		return slice(ds, ds.E1.Len(), k), append([]model.Profile(nil), ds.E2.Profiles[k:]...)
	}
	return slice(ds, nSeed, 0), append([]model.Profile(nil), ds.E1.Profiles[nSeed:]...)
}

// permute shuffles the profiles of each source and renumbers the truth.
func permute(ds *model.Dataset, seed uint64) *model.Dataset {
	rng := splitmix(seed)
	out := &model.Dataset{Name: ds.Name, Kind: ds.Kind, Truth: model.NewGroundTruth()}
	newID := make([]int, ds.NumProfiles())
	shuffle := func(c *model.Collection, base int) *model.Collection {
		order := make([]int, c.Len())
		for i := range order {
			order[i] = i
		}
		for i := len(order) - 1; i > 0; i-- {
			j := int(rng.next() % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
		pc := model.NewCollection(c.Name)
		for pos, old := range order {
			pc.Append(c.Profiles[old])
			newID[base+old] = base + pos
		}
		return pc
	}
	out.E1 = shuffle(ds.E1, 0)
	if ds.Kind == model.CleanClean {
		out.E2 = shuffle(ds.E2, ds.E1.Len())
	}
	for _, p := range ds.Truth.Pairs() {
		out.Truth.Add(newID[p.U], newID[p.V])
	}
	return out
}

func cut(c *model.Collection, n int) *model.Collection {
	out := model.NewCollection(c.Name)
	for i := 0; i < n; i++ {
		out.Append(c.Profiles[i])
	}
	return out
}

// median and quantile use the nearest-rank definition.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

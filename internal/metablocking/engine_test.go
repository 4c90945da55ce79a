package metablocking

// The reference harness: Run must produce byte-identical retained pair
// lists to a deliberately naive oracle — pairs enumerated into a map,
// weighed with weights.Weigher, and pruned by each scheme's textbook
// definition — for every Pruning x Scheme x Workers combination, on
// randomized block collections of both kinds and on the registry
// benchmarks. For the node-local schemes the oracle's per-node
// thresholds also pin the theta prune.Decide exposes (the values the
// Index and Server serve as Threshold).

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"testing"

	"blast/internal/blocking"
	"blast/internal/datasets"
	"blast/internal/model"
	"blast/internal/prune"
	"blast/internal/stats"
	"blast/internal/weights"
)

var allPrunings = []Pruning{WEP, CEP, WNP1, WNP2, CNP1, CNP2, BlastWNP}

func allSchemes() []weights.Scheme {
	kinds := []weights.Kind{
		weights.CBS, weights.ECBS, weights.ARCS,
		weights.JS, weights.EJS, weights.ChiSquared,
	}
	var out []weights.Scheme
	for _, k := range kinds {
		out = append(out, weights.Scheme{Kind: k}, weights.Scheme{Kind: k, Entropy: true})
	}
	return out
}

// refEdge is one edge of the reference blocking graph.
type refEdge struct {
	u, v          int32
	common        int32
	arcs, entropy float64
	w             float64
}

// reference is the naive meta-blocking oracle. It shares nothing with
// the engine but the Weigher and one fold: the WEP mean's numerator is
// summed per smaller-endpoint row and the row sums folded by
// prune.FoldRowSums, the association the engine fixes for its mean so
// that it is reproducible bit for bit.
type reference struct {
	c      *blocking.Collection
	edges  []refEdge
	adj    [][]int // per node, incident edge indexes by ascending neighbor
	counts []int32
}

// newReference builds the blocking graph: every pair of every block,
// accumulated in block order.
func newReference(c *blocking.Collection) *reference {
	index := make(map[model.IDPair]int)
	var edges []refEdge
	for i := range c.Blocks {
		b := &c.Blocks[i]
		cmp := b.Comparisons()
		if cmp == 0 {
			continue
		}
		b.ForEachPair(func(u, v int32) {
			pair := model.MakePair(int(u), int(v))
			at, ok := index[pair]
			if !ok {
				at = len(edges)
				index[pair] = at
				edges = append(edges, refEdge{u: pair.U, v: pair.V})
			}
			e := &edges[at]
			e.common++
			e.arcs += 1 / float64(cmp)
			e.entropy += b.Entropy
		})
	}
	sort.Slice(edges, func(i, j int) bool {
		return edges[i].u < edges[j].u || (edges[i].u == edges[j].u && edges[i].v < edges[j].v)
	})

	// In canonical order, each node's incident edges are listed by
	// ascending neighbor id.
	adj := make([][]int, c.NumProfiles)
	for i, e := range edges {
		adj[e.u] = append(adj[e.u], i)
		adj[e.v] = append(adj[e.v], i)
	}
	return &reference{c: c, edges: edges, adj: adj, counts: c.ProfileBlockCounts()}
}

// pairs weighs and prunes the reference graph under cfg, returning the
// retained pairs and — for the node-local schemes (WNP1, WNP2,
// BlastWNP) — the per-node thresholds theta_i (nil otherwise).
func (r *reference) pairs(cfg Config) ([]model.IDPair, []float64) {
	c, adj, counts := r.c, r.adj, r.counts
	edges := append([]refEdge(nil), r.edges...)
	w := cfg.Scheme.Weigher(len(edges), c.Len())
	for i := range edges {
		e := &edges[i]
		e.w = w.Weight(e.common, counts[e.u], counts[e.v],
			int32(len(adj[e.u])), int32(len(adj[e.v])), e.arcs, e.entropy)
	}

	// Pruning: keep[i] decides edge i; zero and negative weights are
	// never retained.
	keep := make([]bool, len(edges))
	var theta []float64
	thresholdsOf := func(reduce func(ws []float64) float64) []float64 {
		th := make([]float64, c.NumProfiles)
		for n, inc := range adj {
			if len(inc) == 0 {
				continue
			}
			ws := make([]float64, len(inc))
			for j, i := range inc {
				ws[j] = edges[i].w
			}
			th[n] = reduce(ws)
		}
		return th
	}
	mean := func(ws []float64) float64 {
		s := 0.0
		for _, x := range ws {
			s += x
		}
		return s / float64(len(ws))
	}
	resolve := func(a, b bool) bool {
		if cfg.Pruning == WNP2 || cfg.Pruning == CNP2 {
			return a && b
		}
		return a || b
	}
	switch cfg.Pruning {
	case WEP:
		rowSums := make([]float64, c.NumProfiles)
		rowCounts := make([]int64, c.NumProfiles)
		for _, e := range edges {
			rowSums[e.u] += e.w
			rowCounts[e.u]++
		}
		total, n := prune.FoldRowSums(rowSums, rowCounts)
		for i, e := range edges {
			keep[i] = e.w >= total/float64(n)
		}
	case CEP:
		k := cfg.K
		if k <= 0 {
			k = prune.CEPBudget(counts)
		}
		order := make([]int, len(edges))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return edges[order[a]].w > edges[order[b]].w })
		for _, i := range order[:min(k, len(order))] {
			keep[i] = true
		}
	case WNP1, WNP2:
		th := thresholdsOf(mean)
		theta = th
		for i, e := range edges {
			keep[i] = resolve(e.w >= th[e.u], e.w >= th[e.v])
		}
	case CNP1, CNP2:
		k := cfg.K
		if k <= 0 {
			k = prune.CNPBudget(counts)
		}
		// top[i] marks the endpoints whose top-k list holds edge i.
		top := make([][2]bool, len(edges))
		for n, inc := range adj {
			order := append([]int(nil), inc...)
			sort.SliceStable(order, func(a, b int) bool { return edges[order[a]].w > edges[order[b]].w })
			for _, i := range order[:min(k, len(order))] {
				if int(edges[i].u) == n {
					top[i][0] = true
				} else {
					top[i][1] = true
				}
			}
		}
		for i := range edges {
			keep[i] = resolve(top[i][0], top[i][1])
		}
	case BlastWNP:
		cc, d := cfg.C, cfg.D
		if cc <= 0 {
			cc = 2
		}
		if d <= 0 {
			d = 2
		}
		th := thresholdsOf(func(ws []float64) float64 {
			m := ws[0]
			for _, x := range ws {
				m = max(m, x)
			}
			return m / cc
		})
		theta = th
		for i, e := range edges {
			keep[i] = e.w >= (th[e.u]+th[e.v])/d
		}
	default:
		panic(fmt.Sprintf("reference: unknown pruning %v", cfg.Pruning))
	}
	out := make([]model.IDPair, 0)
	for i, e := range edges {
		if keep[i] && e.w > 0 {
			out = append(out, model.IDPair{U: e.u, V: e.v})
		}
	}
	return out, theta
}

// samePairs fails the test unless the two runs retained byte-identical
// pair lists.
func samePairs(t *testing.T, label string, want, got []model.IDPair) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d pairs, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: pair %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// engineWorkersAxis is the Workers matrix Run is held to: automatic
// (0 = GOMAXPROCS), serial, and explicit counts — graph build,
// weighting AND pruning must be byte-identical at every value.
var engineWorkersAxis = []int{0, 1, 2, 4}

// checkEngineEquivalence runs one configuration through Run across the
// full Workers axis and asserts output identical to the reference.
func checkEngineEquivalence(t *testing.T, c *blocking.Collection, cfg Config) {
	t.Helper()
	want, theta := newReference(c).pairs(cfg)
	checkAgainst(t, c, want, theta, cfg)
}

// checkAgainst asserts Run's output equals want across the Workers
// axis, and — for the node-local schemes — that the theta prune.Decide
// derives from Run's weighted graph is bit-identical to the reference's
// at every worker count.
func checkAgainst(t *testing.T, c *blocking.Collection, want []model.IDPair, theta []float64, cfg Config) {
	t.Helper()
	label := cfg.Scheme.Name() + "+" + cfg.Pruning.String()
	for _, workers := range engineWorkersAxis {
		cfg.Workers = workers
		res := Run(c, cfg)
		samePairs(t, fmt.Sprintf("%s workers=%d", label, workers), want, res.Pairs)
		if !cfg.Pruning.NodeLocal() {
			continue
		}
		p := prune.Params{Pruning: cfg.Pruning, C: cfg.C, D: cfg.D, K: cfg.K, Workers: workers}
		dec, err := prune.Decide(context.Background(), res.CSR, p, res.CSR.NumEdges(), prune.OneGraph{})
		if err != nil {
			t.Fatalf("%s workers=%d: %v", label, workers, err)
		}
		if len(dec.Theta) != len(theta) {
			t.Fatalf("%s workers=%d: %d thresholds, reference has %d", label, workers, len(dec.Theta), len(theta))
		}
		for i := range theta {
			if math.Float64bits(dec.Theta[i]) != math.Float64bits(theta[i]) {
				t.Fatalf("%s workers=%d: theta[%d] = %v, reference %v", label, workers, i, dec.Theta[i], theta[i])
			}
		}
	}
}

// TestEngineEquivalenceRandomized is the property harness: seeded
// random collections, every Workers x Pruning x Scheme combination,
// byte-identical to the reference.
func TestEngineEquivalenceRandomized(t *testing.T) {
	schemes := allSchemes()
	for seed := uint64(1); seed <= 3; seed++ {
		rng := stats.NewRNG(seed)
		for _, kind := range []model.Kind{model.Dirty, model.CleanClean} {
			c := blocking.RandomCollection(rng, kind, 50+rng.Intn(70), 30+rng.Intn(50))
			if err := c.Validate(); err != nil {
				t.Fatalf("seed %d: invalid random collection: %v", seed, err)
			}
			for _, p := range allPrunings {
				for _, s := range schemes {
					checkEngineEquivalence(t, c, Config{
						Scheme: s, Pruning: p, C: 2, D: 2,
					})
				}
			}
		}
	}
}

// TestEngineEquivalenceConfigKnobs varies the scheme-independent knobs
// (explicit K budgets, non-default C/D) on one random collection.
func TestEngineEquivalenceConfigKnobs(t *testing.T) {
	rng := stats.NewRNG(99)
	c := blocking.RandomCollection(rng, model.Dirty, 80, 60)
	for _, cfg := range []Config{
		{Scheme: weights.Blast(), Pruning: BlastWNP, C: 1, D: 2},
		{Scheme: weights.Blast(), Pruning: BlastWNP, C: 4, D: 1},
		{Scheme: weights.Scheme{Kind: weights.CBS}, Pruning: CEP, K: 1},
		{Scheme: weights.Scheme{Kind: weights.CBS}, Pruning: CEP, K: 7},
		{Scheme: weights.Scheme{Kind: weights.JS}, Pruning: CNP1, K: 2},
		{Scheme: weights.Scheme{Kind: weights.JS}, Pruning: CNP2, K: 3},
	} {
		checkEngineEquivalence(t, c, cfg)
	}
}

// TestEngineEquivalenceRegistryDatasets: on every registry benchmark
// (token-blocked and cleaned at small scale), Run returns byte-identical
// pairs to the reference in every Scheme x Pruning cell.
func TestEngineEquivalenceRegistryDatasets(t *testing.T) {
	scales := map[string]float64{"dbp": 0.02, "mov": 0.01, "ar2": 0.02, "cddb": 0.03}
	for _, name := range datasets.AllNames() {
		gen, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		scale, ok := scales[name]
		if !ok {
			scale = 0.05
		}
		c := blocking.CleanWorkflow(blocking.TokenBlocking(gen(scale, 42)), 0.5, 0.8)
		ref := newReference(c)
		for _, pruning := range allPrunings {
			t.Run(name+"/"+pruning.String(), func(t *testing.T) {
				for _, s := range allSchemes() {
					cfg := Config{Scheme: s, Pruning: pruning, C: 2, D: 2}
					want, theta := ref.pairs(cfg)
					checkAgainst(t, c, want, theta, cfg)
				}
			})
		}
	}
}

// TestNodeCentricResultShape: the result must carry the weighted CSR
// (stats released) and canonical sorted pairs.
func TestNodeCentricResultShape(t *testing.T) {
	res := Run(paperBlocks(), DefaultConfig())
	if res.CSR == nil {
		t.Fatal("run must carry the CSR")
	}
	if res.CSR.Common != nil || res.CSR.ARCS != nil || res.CSR.EntropySum != nil {
		t.Error("CSR stats should be released after weighting")
	}
	if len(res.CSR.Weights) != len(res.CSR.Neighbors) {
		t.Error("CSR weights must survive the run")
	}
	for i, p := range res.Pairs {
		if p.U >= p.V {
			t.Errorf("pair %d not canonical: %v", i, p)
		}
		if i > 0 && res.Pairs[i-1].Key() >= p.Key() {
			t.Error("pairs not sorted")
		}
	}
}

func TestNodeCentricPanicsOnUnknownPruning(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown pruning should panic")
		}
	}()
	Run(paperBlocks(), Config{Scheme: weights.Blast(), Pruning: Pruning(42), Workers: 2})
}

// TestResolveWorkers is the regression test for the documented
// workers=0 -> GOMAXPROCS contract: Run must not silently fall back to
// the serial path when Workers is left zero.
func TestResolveWorkers(t *testing.T) {
	if got, want := resolveWorkers(0), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("resolveWorkers(0) = %d, want GOMAXPROCS = %d", got, want)
	}
	if got, want := resolveWorkers(-3), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("resolveWorkers(-3) = %d, want GOMAXPROCS = %d", got, want)
	}
	if resolveWorkers(1) != 1 || resolveWorkers(5) != 5 {
		t.Error("explicit worker counts must pass through")
	}
}

// TestRunResolvesZeroWorkers: the CSR builder partitions work without
// duplication, so Workers=0 parallelizes at any scale, and explicit
// counts pass through.
func TestRunResolvesZeroWorkers(t *testing.T) {
	res := Run(paperBlocks(), DefaultConfig())
	if want := runtime.GOMAXPROCS(0); res.Workers != want {
		t.Errorf("Workers = %d, want GOMAXPROCS = %d", res.Workers, want)
	}
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		if res := Run(paperBlocks(), cfg); res.Workers != workers {
			t.Errorf("Workers = %d, want %d", res.Workers, workers)
		}
	}
}

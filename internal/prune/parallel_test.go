package prune

// Tests of the parallel, scratch-free pruning passes: the worker-count
// and shard-count determinism contract (byte-identical decisions for
// every Workers value and for owned-rows parties deciding through the
// exchange), the histogram-cut selection against a sort, the CEP
// tie-at-the-cut boundaries, and the edge-granular cancellation
// contract (polls proportional to edges, not nodes, even inside one
// adjacency run).

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"blast/internal/blocking"
	"blast/internal/graph"
	"blast/internal/model"
	"blast/internal/shard"
	"blast/internal/stats"
	"blast/internal/weights"
)

// wedge is one weighted edge of a hand-built test graph.
type wedge struct {
	U, V   int32
	Weight float64
}

// csrFromEdges builds a CSR over n profiles from an explicit canonical
// edge list with controlled weights (both entries of every edge carry
// the weight).
func csrFromEdges(n int, edges []wedge) *graph.CSR {
	adj := make([][]wedge, n)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e)
		adj[e.V] = append(adj[e.V], wedge{U: e.V, V: e.U, Weight: e.Weight})
	}
	csr := &graph.CSR{
		NumProfiles: n,
		Offsets:     make([]int64, n+1),
		BlockCounts: make([]int32, n),
	}
	for u := 0; u < n; u++ {
		sort.Slice(adj[u], func(i, j int) bool { return adj[u][i].V < adj[u][j].V })
		for _, e := range adj[u] {
			csr.Neighbors = append(csr.Neighbors, e.V)
			csr.Weights = append(csr.Weights, e.Weight)
		}
		csr.Offsets[u+1] = int64(len(csr.Neighbors))
	}
	return csr
}

// referenceCEP is CEP by its textbook definition over a canonically
// sorted edge list: a stable descending sort by weight, the first k
// edges, zero and negative weights dropped, output in canonical order.
func referenceCEP(edges []wedge, k int) []model.IDPair {
	order := make([]int, len(edges))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return edges[order[a]].Weight > edges[order[b]].Weight })
	if k > len(order) {
		k = len(order)
	}
	keep := make([]bool, len(edges))
	for _, i := range order[:k] {
		keep[i] = edges[i].Weight > 0
	}
	var out []model.IDPair
	for i, e := range edges {
		if keep[i] {
			out = append(out, model.IDPair{U: e.U, V: e.V})
		}
	}
	return out
}

// pruneWorkersAxis is the Workers matrix of the determinism contract:
// automatic (0 = GOMAXPROCS), serial, and several explicit counts
// including ones exceeding the chunk count of small graphs.
var pruneWorkersAxis = []int{0, 1, 2, 3, 4, 7}

// pruneMatrix names the schemes and knobs of the determinism matrix.
var pruneMatrix = []struct {
	name string
	p    Params
}{
	{"wep", Params{Pruning: WEP}},
	{"cep", Params{Pruning: CEP}},
	{"cep5", Params{Pruning: CEP, K: 5}},
	{"wnp1", Params{Pruning: WNP1}},
	{"wnp2", Params{Pruning: WNP2}},
	{"cnp1", Params{Pruning: CNP1}},
	{"cnp2", Params{Pruning: CNP2}},
	{"blast", Params{Pruning: BlastWNP, C: 2, D: 2}},
	{"blast41", Params{Pruning: BlastWNP, C: 4, D: 1}},
}

// decided is one whole-graph decision: its retained pairs and theta.
type decided struct {
	pairs []model.IDPair
	theta []float64
}

// decideAll makes every matrix decision over the whole graph at one
// worker count.
func decideAll(t *testing.T, ctx context.Context, csr *graph.CSR, workers int) []decided {
	t.Helper()
	out := make([]decided, len(pruneMatrix))
	for i, m := range pruneMatrix {
		p := m.p
		p.Workers = workers
		dec, err := Decide(ctx, csr, p, csr.NumEdges(), OneGraph{})
		if err != nil {
			t.Fatalf("%s workers=%d: %v", m.name, workers, err)
		}
		pairs, err := Emit(ctx, csr, workers, dec.Keep)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", m.name, workers, err)
		}
		out[i] = decided{pairs, dec.Theta}
	}
	return out
}

// sameBits reports whether two threshold vectors are bit-identical
// (nil only matches nil).
func sameBits(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// ownedRowsOf returns the owned-rows form of a weighted whole graph:
// full-length Offsets, the runs (and weights) of the owned rows only,
// and the global block counts — what graph.BuildCSR with owns plus a
// weighting with the global degrees yields.
func ownedRowsOf(whole *graph.CSR, owns func(int32) bool) *graph.CSR {
	g := &graph.CSR{
		NumProfiles: whole.NumProfiles,
		Offsets:     make([]int64, whole.NumProfiles+1),
		BlockCounts: whole.BlockCounts,
	}
	for u := 0; u < whole.NumProfiles; u++ {
		if owns(int32(u)) {
			nbr, wts := whole.Run(u)
			g.Neighbors = append(g.Neighbors, nbr...)
			g.Weights = append(g.Weights, wts...)
		}
		g.Offsets[u+1] = int64(len(g.Neighbors))
	}
	return g
}

// checkShards makes decision p through parts concurrent parties over a
// shard.Exchange — party i holding build(owns_i), the weighted
// owned-rows CSR of shard i — and requires the union of their MarkOwned
// masks, their merged theta and their mark total to equal the one-graph
// decision over whole.
func checkShards(t *testing.T, label string, whole *graph.CSR, p Params, parts int, build func(owns func(int32) bool) *graph.CSR) {
	t.Helper()
	ctx := context.Background()
	want, err := Decide(ctx, whole, p, whole.NumEdges(), OneGraph{})
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	wantMask, wantMarks, err := MarkOwned(ctx, whole, p.Workers, want.Keep)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	type party struct {
		g     *graph.CSR
		mask  []bool
		marks int64
		theta []float64
		err   error
	}
	res := make([]party, parts)
	ex := shard.NewExchange(parts)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &res[i]
			r.g = build(func(u int32) bool { return shard.Owner(u, parts) == i })
			agg := shard.NewAggregate(ex, i, parts, whole.NumProfiles)
			dec, err := Decide(ctx, r.g, p, whole.NumEdges(), agg)
			if err == nil {
				r.theta = dec.Theta
				r.mask, r.marks, err = MarkOwned(ctx, r.g, p.Workers, dec.Keep)
			}
			if err != nil {
				r.err = err
				ex.Poison(err) // release peers blocked in a round
			}
		}(i)
	}
	wg.Wait()
	total := int64(0)
	for i, r := range res {
		if r.err != nil {
			t.Fatalf("%s parts=%d shard %d: %v", label, parts, i, r.err)
		}
		if !sameBits(r.theta, want.Theta) {
			t.Fatalf("%s parts=%d shard %d: merged theta differs from the one-graph theta", label, parts, i)
		}
		for u := 0; u < whole.NumProfiles; u++ {
			if shard.Owner(int32(u), parts) != i {
				continue
			}
			lo, hi := r.g.Offsets[u], r.g.Offsets[u+1]
			wlo, whi := whole.Offsets[u], whole.Offsets[u+1]
			if hi-lo != whi-wlo || !slices.Equal(r.mask[lo:hi], wantMask[wlo:whi]) {
				t.Fatalf("%s parts=%d shard %d: row %d mask differs from the one-graph mask", label, parts, i, u)
			}
		}
		total += r.marks
	}
	if total != wantMarks {
		t.Fatalf("%s parts=%d: %d marks over all shards, one graph has %d", label, parts, total, wantMarks)
	}
}

// crossingOwner returns the shard owning CEP's crossing row — the row
// holding the last tie the budget k (<= 0: the default) takes — when
// the budget splits the ties at the cut, and -1 when it does not. It
// is computed from the plain edge list, independently of the pruning
// code.
func crossingOwner(whole *graph.CSR, k, parts int) int {
	l := edgeListOf(whole)
	if k <= 0 {
		k = CEPBudget(l.counts)
	}
	if k = min(k, len(l.edges)); k <= 0 {
		return -1
	}
	ws := make([]float64, len(l.edges))
	for i, e := range l.edges {
		ws[i] = e.Weight
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(ws)))
	cut, greater, ties := ws[k-1], 0, 0
	for _, w := range ws {
		if w > cut {
			greater++
		} else if w == cut {
			ties++
		}
	}
	rem := k - greater
	if rem <= 0 || rem >= ties {
		return -1
	}
	for _, e := range l.edges {
		if e.Weight == cut {
			if rem--; rem == 0 {
				return shard.Owner(e.U, parts)
			}
		}
	}
	return -1
}

// TestPruneParallelMatchesSerial is the determinism matrix: for every
// scheme and worker count the retained pairs and theta must be
// byte-identical to the serial decision, and for every shard count
// 1-4 the decision made through the exchange by owned-rows parties must
// equal the one-graph decision (see checkShards). CBS weights make CEP
// split tie groups; at least one case must find its crossing row on a
// shard other than 0.
func TestPruneParallelMatchesSerial(t *testing.T) {
	ctx := context.Background()
	crossedOffZero := 0
	for seed := uint64(1); seed <= 6; seed++ {
		rng := stats.NewRNG(seed * 104729)
		for _, kind := range []model.Kind{model.Dirty, model.CleanClean} {
			c := blocking.RandomCollection(rng, kind, 40+rng.Intn(60), 30+rng.Intn(40))
			for _, s := range []weights.Scheme{
				{Kind: weights.CBS},
				{Kind: weights.ChiSquared, Entropy: true},
			} {
				csr := weighted(c, s)
				serial := decideAll(t, ctx, csr, 1)
				for _, workers := range pruneWorkersAxis {
					got := decideAll(t, ctx, csr, workers)
					for i, m := range pruneMatrix {
						label := fmt.Sprintf("seed=%d kind=%v %s %s workers=%d", seed, kind, s.Name(), m.name, workers)
						comparePairs(t, label, serial[i].pairs, got[i].pairs)
						if !sameBits(serial[i].theta, got[i].theta) {
							t.Fatalf("%s: theta drifted from the serial decision", label)
						}
					}
				}
				build := func(owns func(int32) bool) *graph.CSR {
					g, err := graph.BuildCSR(ctx, c, owns, 1)
					if err != nil {
						panic(err)
					}
					s.ApplyCSR(g, csr.Degrees(), csr.NumEdges(), 1)
					return g
				}
				for parts := 1; parts <= 4; parts++ {
					for _, m := range pruneMatrix {
						p := m.p
						p.Workers = 2
						label := fmt.Sprintf("seed=%d kind=%v %s %s", seed, kind, s.Name(), m.name)
						checkShards(t, label, csr, p, parts, build)
						if p.Pruning == CEP && crossingOwner(csr, p.K, parts) > 0 {
							crossedOffZero++
						}
					}
				}
			}
		}
	}
	if crossedOffZero == 0 {
		t.Error("no CEP case split its tie group on a crossing row owned by a shard other than 0")
	}
}

// TestSelectCutMatchesSort pins the histogram-cut selection — cutScan
// driven by countCutHist — against a flat sort, on weight distributions
// with heavy ties, negatives, zeros and denormal-scale values.
func TestSelectCutMatchesSort(t *testing.T) {
	ctx := context.Background()
	rng := stats.NewRNG(271828)
	pools := [][]float64{
		{0, 0.25, 0.25, 0.25, 1, 2, 2, 2, 2, 3},
		{0, 0, 0, 0, 0.5},
		{-1, -0.5, 0, 0.5, 1},
		{1e-310, 2e-310, 3e-310, 1e-300, 0.1}, // denormal-scale ties
		{math.Pi, math.E, math.Sqrt2, 0.7071067811865476},
	}
	for pi, pool := range pools {
		for trial := 0; trial < 4; trial++ {
			n := 30 + rng.Intn(40)
			var edges []wedge
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if rng.Intn(3) == 0 {
						edges = append(edges, wedge{U: int32(u), V: int32(v), Weight: pool[rng.Intn(len(pool))]})
					}
				}
			}
			if len(edges) == 0 {
				continue
			}
			csr := csrFromEdges(n, edges)
			ws := make([]float64, 0, len(edges))
			for _, e := range edges {
				ws = append(ws, e.Weight)
			}
			sort.Float64s(ws)
			for _, k := range []int{1, 2, len(edges) / 2, len(edges) - 1, len(edges)} {
				if k < 1 {
					continue
				}
				wantCut := ws[len(ws)-k]
				wantGreater := len(ws) - sort.Search(len(ws), func(i int) bool { return ws[i] > wantCut })
				wantTies := 0
				for _, w := range ws {
					if w == wantCut {
						wantTies++
					}
				}
				for _, workers := range []int{1, 3} {
					cs := newCutScan(k)
					for steps := 1; ; steps++ {
						counts, kmin, kmax, err := countCutHist(ctx, csr, workers, cs.prefix, cs.shift)
						if err != nil {
							t.Fatal(err)
						}
						if cs.step(counts, kmin, kmax) {
							break
						}
						if steps == 4 {
							t.Fatalf("pool %d k=%d: the scan did not resolve in four steps", pi, k)
						}
					}
					if cs.cut != wantCut || cs.greater != wantGreater || cs.ties != wantTies {
						t.Fatalf("pool %d k=%d workers=%d: cut scan = (%v, %d, %d), want (%v, %d, %d)",
							pi, k, workers, cs.cut, cs.greater, cs.ties, wantCut, wantGreater, wantTies)
					}
				}
			}
		}
	}
}

// TestCEPTieBoundaries is the tie-at-the-cut regression suite: the rem
// budget accounting must stay byte-identical across the textbook CEP,
// the serial decision, every parallel worker count and every shard
// count when many edges tie exactly at the cut, when the ties sit at
// weight 0, and when k exceeds the positive-weight edge count.
func TestCEPTieBoundaries(t *testing.T) {
	ctx := context.Background()
	must := muster(t)
	mk := func(ws ...float64) []wedge {
		// A path graph 0-1, 1-2, ... keeps the canonical edge order
		// aligned with the weight list.
		edges := make([]wedge, len(ws))
		for i, w := range ws {
			edges[i] = wedge{U: int32(i), V: int32(i + 1), Weight: w}
		}
		return edges
	}
	cases := []struct {
		name string
		ws   []float64
		ks   []int
	}{
		{"all-tie", []float64{1, 1, 1, 1, 1, 1}, []int{1, 3, 5, 6}},
		{"tie-at-cut", []float64{3, 1, 1, 2, 1, 3, 1, 2}, []int{2, 3, 4, 5, 7}},
		{"ties-at-zero", []float64{0, 0, 2, 0, 1, 0}, []int{1, 2, 3, 4, 6}},
		{"k-exceeds-positive", []float64{0, 0, 1, 0, 2}, []int{3, 4, 5}},
		{"all-zero", []float64{0, 0, 0, 0}, []int{1, 4}},
		{"negative-and-zero", []float64{-1, 0, 2, -1, 0}, []int{1, 2, 4, 5}},
	}
	for _, tc := range cases {
		edges := mk(tc.ws...)
		csr := csrFromEdges(len(edges)+1, edges)
		build := func(owns func(int32) bool) *graph.CSR { return ownedRowsOf(csr, owns) }
		for _, k := range tc.ks {
			want := referenceCEP(edges, k)
			for _, workers := range []int{1, 2, 4} {
				p := Params{Pruning: CEP, K: k, Workers: workers}
				comparePairs(t, fmt.Sprintf("%s k=%d workers=%d", tc.name, k, workers), want, must(prunePairs(ctx, csr, p)))
			}
			for parts := 1; parts <= 4; parts++ {
				checkShards(t, fmt.Sprintf("%s k=%d", tc.name, k), csr, Params{Pruning: CEP, K: k, Workers: 1}, parts, build)
			}
		}
	}
}

// TestReducersMatchWholeRun pins the segmented (cancellation-polling)
// reducers to a whole-run reduction bit for bit, on runs longer than
// the poll stride — the arithmetic order must not change — and the
// NodeRule reducers an incremental writer applies to the same ones.
func TestReducersMatchWholeRun(t *testing.T) {
	rng := stats.NewRNG(17)
	w := &pruneWorker{ctx: context.Background(), budget: streamCancelCheckEdges}
	for _, n := range []int{1, 7, streamCancelCheckEdges, streamCancelCheckEdges + 1, 3*streamCancelCheckEdges + 5} {
		ws := make([]float64, n)
		for i := range ws {
			ws[i] = rng.Float64() * float64(i%13)
		}
		sum, mx := 0.0, ws[0]
		for _, x := range ws {
			sum += x
			mx = max(mx, x)
		}
		if got, _ := meanReducer(w, ws); got != sum/float64(n) {
			t.Fatalf("n=%d: meanReducer = %v, want %v", n, got, sum/float64(n))
		}
		if got := wholeRun(meanReducer)(ws); got != sum/float64(n) {
			t.Fatalf("n=%d: whole-run mean = %v, want %v", n, got, sum/float64(n))
		}
		for _, c := range []float64{1, 2, 4} {
			if got, _ := blastReducer(c)(w, ws); got != mx/c {
				t.Fatalf("n=%d c=%v: blastReducer = %v, want %v", n, c, got, mx/c)
			}
		}
	}
	if wholeRun(meanReducer)(nil) != 0 || wholeRun(blastReducer(2))(nil) != 0 {
		t.Error("an empty run must reduce to 0")
	}
}

// pollCountCtx is a context whose Err() counts how often it is polled
// and, optionally, starts reporting cancellation after a fixed number of
// polls — a deterministic probe of polling granularity that needs no
// timing assumptions. Err is safe for concurrent use.
type pollCountCtx struct {
	context.Context
	polls     atomic.Int64
	failAfter int64 // 0: never fail
}

func (c *pollCountCtx) Err() error {
	n := c.polls.Add(1)
	if c.failAfter > 0 && n > c.failAfter {
		return context.Canceled
	}
	return c.Context.Err()
}

// denseCSR builds the complete graph on n nodes with synthetic weights.
func denseCSR(n int) *graph.CSR {
	var edges []wedge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, wedge{U: int32(u), V: int32(v), Weight: float64((u*31+v)%17) + 0.5})
		}
	}
	csr := csrFromEdges(n, edges)
	return csr
}

// decideFn returns a pass that makes decision p over csr and emits its
// pairs, for the cancellation probes.
func decideFn(csr *graph.CSR, p Params) func(ctx context.Context, workers int) error {
	return func(ctx context.Context, workers int) error {
		p.Workers = workers
		_, err := prunePairs(ctx, csr, p)
		return err
	}
}

// TestCancellationPollsPerEdge asserts the edge-granular polling
// contract: on a dense graph whose node count fits well under the old
// 1024-node polling stride (which would have polled exactly once), the
// threshold, mark and retention passes must poll in proportion to the
// edges they process.
func TestCancellationPollsPerEdge(t *testing.T) {
	csr := denseCSR(256) // 32640 edges, 65280 entries, one old-style poll
	minPolls := int64(len(csr.Neighbors) / streamCancelCheckEdges / 2)
	if minPolls < 2 {
		t.Fatalf("test graph too small to observe polling: %d entries", len(csr.Neighbors))
	}
	run := func(name string, fn func(ctx context.Context) error) {
		ctx := &pollCountCtx{Context: context.Background()}
		if err := fn(ctx); err != nil {
			t.Fatalf("%s: unexpected error %v", name, err)
		}
		if got := ctx.polls.Load(); got < minPolls {
			t.Errorf("%s: polled ctx %d times, want >= %d (edge-granular polling)", name, got, minPolls)
		}
	}
	run("thresholds", func(ctx context.Context) error {
		_, err := rowThresholds(ctx, csr, 1, meanReducer)
		return err
	})
	run("marks", func(ctx context.Context) error {
		_, _, err := rowTopKMarks(ctx, csr, 3, 1)
		return err
	})
	run("mark-owned", func(ctx context.Context) error {
		_, _, err := MarkOwned(ctx, csr, 1, func(_, _ int32, _ float64) bool { return true })
		return err
	})
	for _, p := range []Params{{Pruning: CNP1, K: 3}, {Pruning: CEP, K: 100}, {Pruning: WEP}} {
		fn := decideFn(csr, p)
		run(p.Pruning.String(), func(ctx context.Context) error { return fn(ctx, 1) })
	}

	// And the abort side: once the context reports cancellation, every
	// pass must surface it instead of completing.
	for _, p := range []Params{{Pruning: BlastWNP, C: 2, D: 2}, {Pruning: CNP2, K: 3}, {Pruning: CEP, K: 100}, {Pruning: WNP1}} {
		ctx := &pollCountCtx{Context: context.Background(), failAfter: 2}
		if err := decideFn(csr, p)(ctx, 1); err != context.Canceled {
			t.Errorf("%v: err = %v after forced cancellation, want context.Canceled", p.Pruning, err)
		}
	}
}

// TestCancellationTinyGraph is the regression test for fail-fast on
// graphs smaller than one poll budget: a pre-cancelled context must
// surface from every scheme even when no tick would ever fire.
func TestCancellationTinyGraph(t *testing.T) {
	csr := csrFromEdges(4, []wedge{
		{U: 0, V: 1, Weight: 2}, {U: 1, V: 2, Weight: 1}, {U: 2, V: 3, Weight: 3},
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, p := range []Params{{Pruning: WEP}, {Pruning: CEP, K: 2}, {Pruning: WNP1}, {Pruning: CNP1, K: 1}, {Pruning: BlastWNP, C: 2, D: 2}} {
		if err := decideFn(csr, p)(ctx, 1); err != context.Canceled {
			t.Errorf("%v: err = %v on a tiny graph with a cancelled ctx, want context.Canceled", p.Pruning, err)
		}
	}
	if _, err := rowThresholds(ctx, csr, 1, meanReducer); err != context.Canceled {
		t.Errorf("thresholds: err = %v on a tiny graph with a cancelled ctx, want context.Canceled", err)
	}
}

// hubCSR builds a skewed (hub-heavy) graph: node 0 is adjacent to every
// other node — one adjacency run longer than the poll stride — plus a
// ring of light edges among the leaves.
func hubCSR(n int) *graph.CSR {
	edges := make([]wedge, 0, n+n/8)
	for v := 1; v < n; v++ {
		edges = append(edges, wedge{U: 0, V: int32(v), Weight: float64(v%11) + 0.25})
	}
	for v := 1; v+8 < n; v += 8 {
		edges = append(edges, wedge{U: int32(v), V: int32(v + 8), Weight: 0.75})
	}
	csr := csrFromEdges(n, edges)
	return csr
}

// TestCancellationHubRace is the -race cancellation test: concurrent
// cancellation against every scheme on a hub-heavy graph whose hub run
// exceeds the poll stride. The decisions must return ctx.Err() (from
// whatever pass observes it) without panicking, racing or deadlocking;
// in-run polling is exercised because the hub's run alone exceeds
// streamCancelCheckEdges.
func TestCancellationHubRace(t *testing.T) {
	csr := hubCSR(2*streamCancelCheckEdges + 100)
	for _, p := range []Params{{Pruning: WEP}, {Pruning: CEP, K: 1000}, {Pruning: WNP1}, {Pruning: CNP2, K: 2}, {Pruning: BlastWNP, C: 2, D: 2}} {
		fn := decideFn(csr, p)
		for _, workers := range []int{1, 4} {
			// Pre-cancelled: must fail fast with no output.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := fn(ctx, workers); err != context.Canceled {
				t.Errorf("%v workers=%d: pre-cancelled err = %v", p.Pruning, workers, err)
			}
			// Cancelled mid-flight from another goroutine (the -race
			// exercise): the pass must terminate either way, and any
			// error it reports must be the context's.
			ctx2, cancel2 := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- fn(ctx2, workers) }()
			cancel2()
			if err := <-done; err != nil && err != context.Canceled {
				t.Errorf("%v workers=%d: mid-flight err = %v", p.Pruning, workers, err)
			}
		}
	}
}

// TestChunkBoundsPure pins the chunk geometry: boundaries cover the node
// space exactly once and depend only on the node count.
func TestChunkBoundsPure(t *testing.T) {
	for _, n := range []int{0, 1, chunkNodes - 1, chunkNodes, chunkNodes + 1, 5*chunkNodes + 13} {
		nch := numChunks(n)
		prev := 0
		for c := 0; c < nch; c++ {
			lo, hi := chunkBounds(c, n)
			if lo != prev || hi <= lo || hi > n {
				t.Fatalf("n=%d chunk %d: bounds [%d, %d) after %d", n, c, lo, hi, prev)
			}
			prev = hi
		}
		if prev != n {
			t.Fatalf("n=%d: chunks cover %d nodes", n, prev)
		}
	}
}

// TestWeightKeyOrder pins the order-preserving key mapping, including
// the zero collapse and NaN floor.
func TestWeightKeyOrder(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -1, -1e-310, 0, 1e-310, 0.5, 1, 2, 1e300, math.Inf(1)}
	for i := 0; i < len(vals); i++ {
		for j := 0; j < len(vals); j++ {
			ki, kj := weightKey(vals[i]), weightKey(vals[j])
			if (vals[i] < vals[j]) != (ki < kj) || (vals[i] == vals[j]) != (ki == kj) {
				t.Fatalf("key order broken for (%v, %v)", vals[i], vals[j])
			}
		}
	}
	if weightKey(math.Copysign(0, -1)) != weightKey(0) {
		t.Error("-0 and +0 must share a key")
	}
	if weightKey(math.NaN()) != 0 {
		t.Error("NaN must map to the smallest key")
	}
	for _, v := range vals {
		if got := keyWeight(weightKey(v)); got != v && !(got == 0 && v == 0) {
			t.Errorf("keyWeight(weightKey(%v)) = %v", v, got)
		}
	}
}

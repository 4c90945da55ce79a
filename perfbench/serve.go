package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"blast"
	"blast/blasthttp"
	"blast/internal/datasets"
	"blast/internal/model"
	"blast/internal/wal"
)

// serveResult holds what the serving part measured.
type serveResult struct {
	cold      []float64 // cold start to listener up, seconds
	inserted  int
	writeWall float64   // first POST to quiesce returned, seconds
	ackMS     []float64 // POST /v1/insert round trips
	mixedUS   []float64 // candidates GETs while inserts run, from due time
	readUS    []float64 // candidates GETs in the read-only phase, from due time
	recover   []float64 // restart on the durable directory, seconds
	// pairsDigest is the SHA-256 of the /v1/pairs body after quiesce.
	pairsDigest string
}

// spanHeader carries the client span id to the server-side span.
const spanHeader = "X-Perfbench-Span"

// serverOptions are blastserve's defaults: two shards, the default
// topology, durable under dir.
func serverOptions(dir string) blast.ServerOptions {
	return blast.ServerOptions{Shards: 2, Dir: dir}
}

// live is a Server behind blasthttp on a loopback listener.
type live struct {
	p    *blast.Pipeline
	srv  *blast.Server
	h    *blasthttp.Handler
	hs   *http.Server
	url  string
	done chan error
}

// startLive does what blastserve does on start: induce and block the
// seed corpus, serve it from dir (recovering what dir holds), and listen.
func startLive(ctx context.Context, tr *tracer, seed *model.Dataset, dir string) (*live, error) {
	p, err := blast.NewPipeline(blast.DefaultOptions())
	if err != nil {
		return nil, err
	}
	sch, err := p.InduceSchema(ctx, seed)
	if err != nil {
		return nil, err
	}
	blocks, err := p.Block(ctx, seed, sch)
	if err != nil {
		return nil, err
	}
	srv, err := p.ServeBlocks(ctx, blocks, serverOptions(dir))
	if err != nil {
		return nil, err
	}
	h := blasthttp.NewHandler(srv, blasthttp.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, h.Close(), srv.Close())
	}
	var handler http.Handler = h
	if tr != nil {
		handler = &tracingHandler{next: h, tr: tr}
	}
	l := &live{p: p, srv: srv, h: h, hs: &http.Server{Handler: handler}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// stop drains and closes the way blastserve does on SIGTERM.
func (l *live) stop(ctx context.Context) error {
	var errs []error
	if err := l.hs.Shutdown(ctx); err != nil {
		errs = append(errs, err)
	}
	if err := <-l.done; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	if err := l.h.Drain(ctx); err != nil {
		errs = append(errs, err)
	}
	errs = append(errs, l.h.Close(), l.srv.Close())
	return errors.Join(errs...)
}

// tracingHandler records a span around blasthttp's ServeHTTP for every
// request that carries a client span id.
type tracingHandler struct {
	next http.Handler
	tr   *tracer
}

func (t *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, err := strconv.Atoi(r.Header.Get(spanHeader))
	if err != nil {
		t.next.ServeHTTP(w, r)
		return
	}
	id := t.tr.begin("handler."+strings.TrimPrefix(r.URL.Path, "/v1/"), parent)
	t.next.ServeHTTP(w, r)
	t.tr.end(id)
}

// client is one load connection.
type client struct {
	c   *http.Client
	url string
	tr  *tracer
}

func newClient(url string, tr *tracer) *client {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{c: &http.Client{Transport: tp, Timeout: 60 * time.Second}, url: url, tr: tr}
}

// do sends one request and reads the whole response. With traced set
// it records a client span and passes its id to the server.
func (c *client) do(ctx context.Context, method, path string, body []byte, traced bool) (int, []byte, error) {
	id := 0
	if traced {
		id = c.tr.begin("client."+strings.TrimPrefix(strings.SplitN(path, "?", 2)[0], "/v1/"), 0)
		defer c.tr.end(id)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if id != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func statusErr(status int, body []byte) error {
	if status/100 == 2 {
		return nil
	}
	return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
}

// openLoop issues op(i) on a fixed schedule of rate per second until
// stop reports true for the next due time. op returns when its response
// was complete. openLoop returns every op's latency timed from when it
// was due, and how late each was sent.
func openLoop(rate float64, stop func(due time.Time) bool, op func(i int) time.Time) (lat, late []time.Duration) {
	start := time.Now()
	interval := float64(time.Second) / rate
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if stop(due) {
			return lat, late
		}
		sleepUntil(due)
		sent := time.Now()
		done := op(i)
		lat = append(lat, done.Sub(due))
		late = append(late, sent.Sub(due))
	}
}

// timerSlack is how much later than asked nanosleep returns on Linux
// (the default 50µs timer slack plus the wake-up).
const timerSlack = 55 * time.Microsecond

// sleepUntil blocks until about t. time.Sleep wakes up to a millisecond
// late here, which at 2,000 requests a second would make the generator,
// not the server, set the read latency; nanosleep is accurate to tens of
// microseconds.
func sleepUntil(t time.Time) {
	if w := time.Until(t) - timerSlack; w > 0 {
		ts := syscall.NsecToTimespec(int64(w))
		syscall.Nanosleep(&ts, nil)
	}
}

// digestServeInput digests the serving part's seed corpus and streamed
// profiles in the CSV encoding.
func digestServeInput(b *bench, seed *model.Dataset, inserts []model.Profile) error {
	fmt.Fprintf(b.input, "serve seed=%d profiles=%d inserts=%d\n", b.cfg.seed, seed.NumProfiles(), len(inserts))
	stream := model.NewCollection("stream")
	for _, p := range inserts {
		stream.Append(p)
	}
	for _, c := range append(seed.Sources(), stream) {
		if err := datasets.WriteCollection(b.input, c); err != nil {
			return err
		}
	}
	return nil
}

// runServe measures the serving part: cold start, a write phase with
// concurrent open-loop reads, a read-only phase, the output checks, and
// restarts on the durable directory.
func runServe(ctx context.Context, b *bench, seed *model.Dataset, inserts []model.Profile, readFor time.Duration) (*serveResult, error) {
	r := &serveResult{inserted: len(inserts)}
	reps := 1
	if b.wl.serveMain {
		reps = serveSetupReps
	}
	var l *live
	var dir string
	for i := 0; i < reps; i++ {
		dir = filepath.Join(b.dir, fmt.Sprintf("serve-%d", i))
		runtime.GC()
		t0 := time.Now()
		nl, err := startLive(ctx, b.tr, seed, dir)
		el := time.Since(t0)
		if !b.op("cold start", err) {
			return nil, fmt.Errorf("cold start: %w", err)
		}
		r.cold = append(r.cold, el.Seconds())
		if i == reps-1 {
			l = nl
			break
		}
		b.op("stop", nl.stop(ctx))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			l.stop(ctx)
		}
	}()

	bodies := make([][]byte, 0, len(inserts)/insertBatch+1)
	for i := 0; i < len(inserts); i += insertBatch {
		var req blasthttp.InsertRequest
		for _, p := range inserts[i:min(i+insertBatch, len(inserts))] {
			req.Profiles = append(req.Profiles, blasthttp.FromProfile(p))
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	seedN := seed.NumProfiles()
	total := seedN + len(inserts)
	wc, rc := newClient(l.url, b.tr), newClient(l.url, b.tr)
	defer wc.c.CloseIdleConnections()
	defer rc.c.CloseIdleConnections()
	traced := b.tr != nil

	// Write phase: one closed-loop writer, one open-loop reader.
	runtime.GC()
	var writerDone atomic.Bool
	var wg sync.WaitGroup
	var samp shardSamples
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		if traced {
			stopSampling := samp.start(l.srv)
			defer stopSampling()
		}
		t0 := time.Now()
		for k, body := range bodies {
			s := time.Now()
			status, data, err := wc.do(ctx, http.MethodPost, "/v1/insert", body, traced)
			r.ackMS = append(r.ackMS, float64(time.Since(s))/float64(time.Millisecond))
			if err == nil {
				err = checkInsert(status, data, seedN+k*insertBatch, min(insertBatch, len(inserts)-k*insertBatch))
			}
			b.op("insert", err)
		}
		status, data, err := wc.do(ctx, http.MethodPost, "/v1/quiesce", nil, traced)
		r.writeWall = time.Since(t0).Seconds()
		if err == nil {
			err = checkQuiesce(status, data, total)
		}
		b.op("quiesce", err)
	}()
	var mixedIDs []int
	lat, _ := openLoop(mixedRate, func(time.Time) bool { return writerDone.Load() }, func(int) time.Time {
		id := b.nextID(seedN)
		mixedIDs = append(mixedIDs, id)
		status, data, err := rc.do(ctx, http.MethodGet, "/v1/candidates?profile="+strconv.Itoa(id), nil, traced)
		done := time.Now()
		if err == nil {
			err = checkCandidates(status, data, id)
		}
		b.op("mixed read", err)
		return done
	})
	wg.Wait()
	r.mixedUS = micros(lat)

	// Read-only phase: every body must equal the in-process rendering.
	want := make([][]byte, total)
	for id := range want {
		body, err := blasthttp.CandidatesBody(ctx, l.srv, id)
		if !b.op("candidates body", err) {
			return nil, err
		}
		want[id] = body
	}
	runtime.GC()
	var readIDs []int
	var tracedLat, plainLat []time.Duration
	deadline := time.Now().Add(readFor)
	lat, late := openLoop(readRate, func(due time.Time) bool { return due.After(deadline) }, func(i int) time.Time {
		id := b.nextID(total)
		readIDs = append(readIDs, id)
		s := time.Now()
		status, data, err := rc.do(ctx, http.MethodGet, "/v1/candidates?profile="+strconv.Itoa(id), nil, traced && i%2 == 1)
		done := time.Now()
		if traced && i%2 == 1 {
			tracedLat = append(tracedLat, done.Sub(s))
		} else {
			plainLat = append(plainLat, done.Sub(s))
		}
		if err == nil {
			err = statusErr(status, data)
		}
		if err == nil && !bytes.Equal(data, want[id]) {
			err = fmt.Errorf("profile %d: HTTP body differs from CandidatesBody", id)
		}
		b.op("read", err)
		return done
	})
	r.readUS = micros(lat)

	// Outputs: HTTP pairs = in-process pairs = a cold IndexBlocks over the
	// server's live block collection.
	status, httpPairs, err := rc.do(ctx, http.MethodGet, "/v1/pairs", nil, traced)
	if err == nil {
		err = statusErr(status, httpPairs)
	}
	b.op("pairs", err)
	inproc, err := blasthttp.PairsBody(ctx, l.srv)
	if !b.op("pairs body", err) {
		return nil, err
	}
	b.check("served pairs", bytes.Equal(httpPairs, inproc), "GET /v1/pairs differs from PairsBody")
	cold, err := l.p.IndexBlocks(ctx, &blast.Blocks{Collection: l.srv.Blocks().Clone(), Schema: l.srv.Schema()})
	if b.op("cold IndexBlocks", err) {
		b.check("cold pairs", samePairs(inproc, cold.Pairs()), "served pairs differ from a cold IndexBlocks over the live collection")
		b.op("cold close", cold.Close())
	}
	sum := sha256.Sum256(inproc)
	r.pairsDigest = hex.EncodeToString(sum[:])
	hstats := l.h.Stats()

	stopped = true
	if !b.op("drain and close", l.stop(ctx)) {
		return nil, fmt.Errorf("drain and close: %v", b.failures)
	}
	files, err := durableFiles(dir)
	if err != nil {
		return nil, err
	}

	// Restarts: a fresh pipeline recovering the durable directory.
	for i := 0; i < recoverReps; i++ {
		runtime.GC()
		t0 := time.Now()
		nl, err := startLive(ctx, nil, seed, dir)
		el := time.Since(t0)
		if !b.op("recover", err) {
			continue
		}
		r.recover = append(r.recover, el.Seconds())
		c := newClient(nl.url, nil)
		status, data, err := c.do(ctx, http.MethodGet, "/v1/pairs", nil, false)
		c.c.CloseIdleConnections()
		if err == nil {
			err = statusErr(status, data)
		}
		if b.op("pairs after restart", err) {
			b.check("pairs after restart", bytes.Equal(data, inproc), "pairs changed across the restart")
		}
		b.op("stop", nl.stop(ctx))
	}

	if traced {
		if b.wl.serveMain {
			b.layer("tracing.overhead_frac", float64(medianDur(tracedLat))/float64(medianDur(plainLat))-1, "ratio")
		}
		serveLayers(b, r, &samp, hstats, files, late)
		if err := replay(ctx, b, seed, inserts, mixedIDs, readIDs); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func checkInsert(status int, data []byte, first, n int) error {
	if err := statusErr(status, data); err != nil {
		return err
	}
	var resp blasthttp.InsertResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return err
	}
	if len(resp.IDs) != n {
		return fmt.Errorf("%d ids for %d profiles", len(resp.IDs), n)
	}
	for j, id := range resp.IDs {
		if id != first+j {
			return fmt.Errorf("id %d, want %d", id, first+j)
		}
	}
	return nil
}

func checkQuiesce(status int, data []byte, total int) error {
	if err := statusErr(status, data); err != nil {
		return err
	}
	var resp blasthttp.QuiesceResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return err
	}
	if resp.Admitted != total || resp.Published != total {
		return fmt.Errorf("admitted %d, published %d, want %d", resp.Admitted, resp.Published, total)
	}
	return nil
}

func checkCandidates(status int, data []byte, id int) error {
	if err := statusErr(status, data); err != nil {
		return err
	}
	var resp blasthttp.CandidatesResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return err
	}
	if resp.Profile != id || resp.Count != len(resp.Results) {
		return fmt.Errorf("profile %d: response for %d with %d of %d candidates", id, resp.Profile, len(resp.Results), resp.Count)
	}
	return nil
}

// samePairs compares a /v1/pairs body with a pair list.
func samePairs(body []byte, pairs []model.IDPair) bool {
	var resp blasthttp.PairsResponse
	if json.Unmarshal(body, &resp) != nil || resp.Count != len(pairs) || len(resp.Pairs) != len(pairs) {
		return false
	}
	for i, p := range pairs {
		if resp.Pairs[i] != [2]int32{p.U, p.V} {
			return false
		}
	}
	return true
}

func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

func medianDur(ds []time.Duration) time.Duration {
	return time.Duration(median(micros(ds)) * float64(time.Microsecond))
}

// shardSamples tracks the shard gauges while inserts run.
type shardSamples struct {
	queuedPeak  int
	residentMax int64
	final       []shardFinal
}

// shardFinal is one shard's counters once the write phase ended.
type shardFinal struct {
	applyBusy time.Duration
	swaps     int64
}

// start samples Server.Stats every 5 ms; the returned function stops the
// sampler, waits for it and takes the final reading.
func (s *shardSamples) start(srv *blast.Server) func() {
	stop := make(chan struct{})
	exited := make(chan struct{})
	sample := func() {
		queued := 0
		for _, st := range srv.Stats() {
			queued += st.Queued
			s.residentMax = max(s.residentMax, st.ResidentBytes)
		}
		s.queuedPeak = max(s.queuedPeak, queued)
	}
	go func() {
		defer close(exited)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return func() {
		close(stop)
		<-exited
		sample()
		s.final = s.final[:0]
		for _, st := range srv.Stats() {
			s.final = append(s.final, shardFinal{applyBusy: st.ApplyTime, swaps: st.Swaps})
		}
	}
}

// fileStats summarizes the durable directory after the drain.
type fileStats struct {
	walRecords, walBytes int64
	snapFiles, snapBytes int64
}

func durableFiles(dir string) (fileStats, error) {
	var fsz fileStats
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		switch {
		case strings.HasSuffix(path, ".wal"):
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			recs, _, err := wal.Scan(data)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			fsz.walRecords += int64(len(recs))
			fsz.walBytes += info.Size()
		case strings.HasSuffix(path, ".snap"):
			fsz.snapFiles++
			fsz.snapBytes += info.Size()
		}
		return nil
	})
	return fsz, err
}

// serveLayers reports the HTTP, shard, WAL and load-generator metrics
// of the traced session.
func serveLayers(b *bench, r *serveResult, samp *shardSamples, hs blasthttp.BatcherStats, files fileStats, late []time.Duration) {
	spans := b.tr.snapshot()
	for _, route := range []string{"insert", "candidates", "pairs", "quiesce"} {
		var d []float64
		for _, s := range named(spans, "handler."+route) {
			d = append(d, s.dur().Seconds())
		}
		b.layer("http."+route+".s", median(d), "s")
		if route == "insert" || route == "candidates" {
			b.layer("http."+route+".s.p99", quantile(d, 0.99), "s")
		}
	}
	handlerOf := map[int]span{}
	for _, s := range named(spans, "handler.candidates") {
		handlerOf[s.Parent] = s
	}
	var transport []float64
	for _, s := range named(spans, "client.candidates") {
		if h, ok := handlerOf[s.ID]; ok {
			transport = append(transport, (s.dur() - h.dur()).Seconds())
		}
	}
	b.layer("transport.candidates.s", median(transport), "s")
	b.layer("transport.candidates.s.p99", quantile(transport, 0.99), "s")
	b.layer("http.batches", float64(hs.Batches), "count")
	b.layer("http.profiles_per_batch", float64(hs.AdmittedProfiles)/float64(max(hs.Batches, 1)), "profiles")
	b.layer("http.rejected_429", float64(hs.Rejected), "count")

	var busy time.Duration
	var swaps int64
	for _, st := range samp.final {
		busy += st.applyBusy
		swaps += st.swaps
	}
	b.layer("shard.apply_busy_s", busy.Seconds(), "s")
	b.layer("shard.apply_busy_frac", busy.Seconds()/(r.writeWall*float64(max(len(samp.final), 1))), "ratio")
	b.layer("shard.swaps", float64(swaps), "count")
	b.layer("shard.queued_peak", float64(samp.queuedPeak), "count")
	b.layer("shard.resident_bytes_max", float64(samp.residentMax), "bytes")

	b.layer("wal.records", float64(files.walRecords), "count")
	b.layer("wal.bytes_per_profile", float64(files.walBytes)/float64(r.inserted), "bytes")
	b.layer("snapshot.files", float64(files.snapFiles), "count")
	b.layer("snapshot.bytes", float64(files.snapBytes), "bytes")
	b.layer("loadgen.read_late_p99_ms", quantile(micros(late), 0.99)/1000, "ms")
}

// replay repeats the session's operations in process on a fresh
// directory and times each Server call.
func replay(ctx context.Context, b *bench, seed *model.Dataset, inserts []model.Profile, mixedIDs, readIDs []int) error {
	tr := b.tr
	dir := filepath.Join(b.dir, "replay")
	root := tr.begin("replay", 0)
	defer tr.end(root)
	start := func(name string) (*blast.Server, error) {
		id := tr.begin(name, root)
		defer tr.end(id)
		p, err := blast.NewPipeline(blast.DefaultOptions())
		if err != nil {
			return nil, err
		}
		sch, err := p.InduceSchema(ctx, seed)
		if err != nil {
			return nil, err
		}
		blocks, err := p.Block(ctx, seed, sch)
		if err != nil {
			return nil, err
		}
		return p.ServeBlocks(ctx, blocks, serverOptions(dir))
	}
	srv, err := start("server.cold_start")
	if !b.op("replay cold start", err) {
		return err
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < len(inserts); i += insertBatch {
			id := tr.begin("server.insert_all", root)
			_, err := srv.InsertAll(ctx, inserts[i:min(i+insertBatch, len(inserts))])
			tr.end(id)
			b.op("replay insert", err)
		}
		id := tr.begin("server.quiesce", root)
		b.op("replay quiesce", srv.Quiesce(ctx))
		tr.end(id)
	}()
	openLoop(mixedRate, func(time.Time) bool { return done.Load() || len(mixedIDs) == 0 }, func(i int) time.Time {
		id := tr.begin("server.candidates", root)
		srv.Candidates(mixedIDs[i%len(mixedIDs)])
		tr.end(id)
		return time.Now()
	})
	wg.Wait()
	for _, p := range readIDs {
		id := tr.begin("server.candidates", root)
		srv.Candidates(p)
		tr.end(id)
	}
	id := tr.begin("server.pairs", root)
	_, err = srv.Pairs(ctx)
	tr.end(id)
	b.op("replay pairs", err)
	id = tr.begin("server.close", root)
	err = srv.Close()
	tr.end(id)
	b.op("replay close", err)
	srv, err = start("server.reopen")
	if b.op("replay reopen", err) {
		b.op("replay close", srv.Close())
	}

	spans := tr.snapshot()
	for _, name := range []string{"server.cold_start", "server.insert_all", "server.candidates", "server.pairs", "server.quiesce", "server.close", "server.reopen"} {
		var d []float64
		for _, s := range named(spans, name) {
			d = append(d, s.dur().Seconds())
		}
		b.layer(name+".s", median(d), "s")
		if name == "server.insert_all" || name == "server.candidates" {
			b.layer(name+".s.p99", quantile(d, 0.99), "s")
		}
	}
	return nil
}

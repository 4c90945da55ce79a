package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// span is one traced interval. Spans of a run share Run; Parent is the id
// of the span that caused this one (0 for a root). Times are offsets from
// the tracer's start; Alloc* are the process's cumulative heap allocation
// in bytes at the span's two boundaries.
type span struct {
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Name       string `json:"name"`
	Run        string `json:"run"`
	StartNS    int64  `json:"start_ns"`
	EndNS      int64  `json:"end_ns"`
	AllocStart uint64 `json:"alloc_start"`
	AllocEnd   uint64 `json:"alloc_end"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	a := allocBytes()
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Run: t.run, StartNS: now, AllocStart: a})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	a := allocBytes()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = now
	t.spans[id-1].AllocEnd = a
}

// add records a span whose end is now and whose start lies d earlier,
// the shape the pipeline's Progress callback reports stages in.
// allocStart is the allocation counter read at the previous boundary;
// add returns the counter read at this one.
func (t *tracer) add(name string, parent int, d time.Duration, allocStart uint64) uint64 {
	if t == nil {
		return 0
	}
	end := time.Since(t.t0).Nanoseconds()
	a := allocBytes()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Run: t.run,
		StartNS: end - d.Nanoseconds(), EndNS: end, AllocStart: allocStart, AllocEnd: a})
	return a
}

// now is the tracer clock, for samples taken outside spans.
func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	buf, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// named returns the spans called name.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(s span, spans []span) time.Duration {
	var kids [][2]int64
	for _, c := range spans {
		if c.Parent == s.ID {
			kids = append(kids, [2]int64{max(c.StartNS, s.StartNS), min(c.EndNS, s.EndNS)})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	covered, reach := int64(0), s.StartNS
	for _, k := range kids {
		lo := max(k[0], reach)
		if k[1] > lo {
			covered += k[1] - lo
			reach = k[1]
		}
	}
	return s.dur() - time.Duration(covered)
}

// nested reports whether every span lies within its parent's interval.
func nested(spans []span) bool {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS {
			return false
		}
		if p, ok := byID[s.Parent]; ok && (s.StartNS < p.StartNS || s.EndNS > p.EndNS) {
			return false
		}
	}
	return true
}

var (
	allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	allocMu     sync.Mutex
)

// allocBytes reads the cumulative bytes allocated on the heap.
func allocBytes() uint64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// heapSampler records live heap-object bytes every millisecond, so a
// stage's peak heap can be read off the samples inside its span.
type heapSampler struct {
	tr      *tracer
	stop    chan struct{}
	done    chan struct{}
	samples [][2]int64 // tracer time, bytes
}

func startHeapSampler(tr *tracer) *heapSampler {
	h := &heapSampler{tr: tr, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, [2]int64{tr.now(), int64(s[0].Value.Uint64())})
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and waits for it; samples is safe to read after.
func (h *heapSampler) finish() {
	close(h.stop)
	<-h.done
}

// peakWithin is the largest sample taken inside the span.
func (h *heapSampler) peakWithin(s span) int64 {
	var peak int64
	for _, x := range h.samples {
		if x[0] >= s.StartNS && x[0] <= s.EndNS && x[1] > peak {
			peak = x[1]
		}
	}
	return peak
}

// peakRSS is the process's maximum resident set size in bytes.
func peakRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024
}

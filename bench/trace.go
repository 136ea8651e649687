package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/partition"
)

// span is one timed call into a layer, recorded by the bench around the
// layer's public function. Parent 0 marks a repetition's root.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Count    int64  `json:"count"`
}

// tracer keeps the spans of a traced run in memory until the workload
// ends. A nil *tracer records nothing, so repetitions take the same
// code path traced and untraced.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// add records a finished span and returns its id.
func (t *tracer) add(parent int, name string, start, end time.Time, count int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(), Count: count,
	})
	return id
}

// begin opens a span whose end is not known yet; finish closes it.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(parent, name, now, now, 0)
}

func (t *tracer) finish(id int, count int64) {
	if t == nil {
		return
	}
	end := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = end
	t.spans[id-1].Count = count
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span id, the span's duration minus the part of
// it that its child spans cover (children may overlap each other, as
// parallel workers do, so the cover is the union of their intervals).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		var covered int64
		at := s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, at), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return self
}

// sumSelf totals the self time and counts of the spans whose name
// (without any [index]) equals name.
func sumSelf(spans []span, self map[int]time.Duration, name string) (time.Duration, int64) {
	var d time.Duration
	var n int64
	for _, s := range spans {
		if base, _, _ := strings.Cut(s.Name, "["); base == name {
			d += self[s.ID]
			n += s.Count
		}
	}
	return d, n
}

// tracedSinks wraps a sink factory so a traced repetition sees inside
// core's worker loop through the only hook core offers from outside:
// the factory is called once per worker before the workers start, and
// each worker closes its own writer when its range is done. That gives
// one core.worker[i] span per worker (last factory call → Close
// returned) and one gformat.write child carrying the time accumulated
// inside WriteScope/Close and the edges written. The child is placed at
// the worker's start with the accumulated time as its length, so the
// worker's self time is its wall minus the sink — the draw.
type tracedSinks struct {
	tr     *tracer
	parent int
	inner  core.SinkFactory

	mu      sync.Mutex
	first   time.Time // first factory call: the plan before it is done
	last    time.Time // last factory call: workers start after it
	writers []*timedWriter
}

func newTracedSinks(tr *tracer, parent int, inner core.SinkFactory) *tracedSinks {
	return &tracedSinks{tr: tr, parent: parent, inner: inner}
}

func (ts *tracedSinks) factory(worker int, r partition.Range) (gformat.Writer, error) {
	w, err := ts.inner(worker, r)
	if err != nil {
		return nil, err
	}
	now := time.Now()
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.first.IsZero() {
		ts.first = now
	}
	ts.last = now
	tw := &timedWriter{Writer: w, index: worker, epoch: now}
	ts.writers = append(ts.writers, tw)
	return tw, nil
}

// record emits the worker and writer spans once the generating call has
// returned, and gives back the summed sink time.
func (ts *tracedSinks) record() (sink time.Duration) {
	for _, w := range ts.writers {
		if w.closed.IsZero() {
			continue
		}
		id := ts.tr.add(ts.parent, spanName("core.worker", w.index), ts.last, w.closed, w.EdgesWritten())
		ts.tr.add(id, "gformat.write", ts.last, ts.last.Add(w.busy), w.EdgesWritten())
		sink += w.busy
	}
	return sink
}

// timedWriter accumulates the wall time spent inside the wrapped writer.
// It is on the per-scope path of a traced repetition, so it reads the
// clock as cheaply as it can: time.Since against a fixed epoch is one
// monotonic read, time.Now two reads.
type timedWriter struct {
	gformat.Writer
	index  int
	epoch  time.Time
	busy   time.Duration
	closed time.Time
}

func (t *timedWriter) WriteScope(src int64, dsts []int64) error {
	start := time.Since(t.epoch)
	err := t.Writer.WriteScope(src, dsts)
	t.busy += time.Since(t.epoch) - start
	return err
}

func (t *timedWriter) Close() error {
	start := time.Now()
	err := t.Writer.Close()
	t.closed = time.Now()
	t.busy += t.closed.Sub(start)
	return err
}

func spanName(base string, i int) string {
	return base + "[" + strconv.Itoa(i) + "]"
}

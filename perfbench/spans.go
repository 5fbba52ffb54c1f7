package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one bid
// share its task ID; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Task   uint64 `json:"task,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced runs stay free of its cost.
type tracer struct {
	origin time.Time
	next   atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// id reserves a span ID, so a parent can be named before its children end.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a finished span under a reserved ID (0 reserves one).
func (t *tracer) record(id, parent, task uint64, name string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.id()
	}
	s := span{ID: id, Parent: parent, Task: task, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, task uint64, fn func()) {
	if t == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	t.record(0, parent, task, name, start, time.Now())
}

// selfTimes returns each span name's total self time: its spans' durations
// minus the part of each interval its children cover, overlaps counted
// once.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[uint64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{time.Duration(s.Start), time.Duration(s.End)})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		iv := interval{time.Duration(s.Start), time.Duration(s.End)}
		out[s.Name] += iv.hi - iv.lo - covered(iv, children[s.ID])
	}
	return out
}

// write dumps the spans as JSON lines, ordered by start.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
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

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

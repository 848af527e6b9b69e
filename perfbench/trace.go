package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side timed call into a layer. Spans of one job
// share a trace ID; Parent is 0 for a job's root span.
type span struct {
	Name   string    `json:"name"`
	ID     int64     `json:"id"`
	Parent int64     `json:"parent"`
	Trace  int64     `json:"trace"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, so untraced jobs pay only the clock reads.
type tracer struct {
	mu    sync.Mutex
	next  int64
	spans []span
}

// start opens a span under parent (0 for a root) in trace tid and
// returns its ID; pass it to end.
func (t *tracer) start(name string, parent, tid int64, at time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{Name: name, ID: t.next, Parent: parent, Trace: tid, Start: at})
	return t.next
}

func (t *tracer) end(id int64, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = at
	t.mu.Unlock()
}

// record adds an already-finished span (used for spans read back from
// the program's own instrumentation).
func (t *tracer) record(name string, parent, tid int64, start, end time.Time) {
	if id := t.start(name, parent, tid, start); id != 0 {
		t.end(id, end)
	}
}

// call times fn as a span named name under parent.
func (t *tracer) call(name string, parent, tid int64, fn func()) {
	id := t.start(name, parent, tid, time.Now())
	fn()
	t.end(id, time.Now())
}

// selfTimes returns each span name's total self time: its duration
// minus the part covered by its children. Children of one parent never
// overlap here (layer calls run one after another).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Name] += s.dur() - child[s.ID]
	}
	return out
}

// write dumps the spans as JSON, sorted by start time.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

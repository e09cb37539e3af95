package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. Spans
// stay in memory and are written out once, at exit. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []spanRecord
	nextID uint64
}

// spanRecord is one finished or open span; times are offsets from the
// tracer's origin. Spans of one pass or request share a Trace id.
type spanRecord struct {
	Name   string        `json:"name"`
	Trace  uint64        `json:"trace"`
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// span is a handle on an open span.
type span struct {
	t     *tracer
	idx   int
	id    uint64
	trace uint64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// root opens a span that starts a new trace.
func (t *tracer) root(name string) span {
	if t == nil {
		return span{}
	}
	return t.open(name, 0, 0)
}

func (t *tracer) open(name string, trace, parent uint64) span {
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	if trace == 0 {
		trace = t.nextID
	}
	t.spans = append(t.spans, spanRecord{Name: name, Trace: trace, ID: t.nextID, Parent: parent, Start: now, End: -1})
	return span{t: t, idx: len(t.spans) - 1, id: t.nextID, trace: trace}
}

// child opens a span under s, in s's trace.
func (s span) child(name string) span {
	if s.t == nil {
		return span{}
	}
	return s.t.open(name, s.trace, s.id)
}

// end closes the span.
func (s span) end() {
	if s.t == nil {
		return
	}
	now := time.Since(s.t.origin)
	s.t.mu.Lock()
	s.t.spans[s.idx].End = now
	s.t.mu.Unlock()
}

// within runs f inside a child span of s.
func (s span) within(name string, f func() error) error {
	c := s.child(name)
	defer c.end()
	return f()
}

// count is the number of spans recorded.
func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// layerTimes sums, per span name, total and self time over the closed
// spans of the given traces (all traces when traces is nil). Self time is a
// span's duration minus the part of it its children cover.
func (t *tracer) layerTimes(traces map[uint64]bool) (total, self map[string]time.Duration) {
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	if t == nil {
		return total, self
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][]spanRecord{}
	for _, s := range t.spans {
		if s.End >= 0 && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		if s.End < 0 || (traces != nil && !traces[s.Trace]) {
			continue
		}
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d - covered(s, children[s.ID])
	}
	return total, self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent spanRecord, kids []spanRecord) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
	var sum, curS, curE time.Duration
	curS, curE = -1, -1
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				sum += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		sum += curE - curS
	}
	return sum
}

// writeJSON dumps every span, one JSON object per line.
func (t *tracer) writeJSON(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

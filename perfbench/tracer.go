package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans in memory around the benchmark's calls into the
// repository's packages; write saves them when the run ends. A nil
// *tracer records nothing, so untraced phases pass nil.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call. Trace groups the spans of one sweep, request or
// job; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Trace   string `json:"trace"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span; end closes it. A nil *active, which a nil
// tracer returns, is inert.
type active struct {
	tr    *tracer
	id    int
	start time.Time
}

// start opens a span under parent (nil for a root span of trace).
func (t *tracer) start(name, trace string, parent *active) *active {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	pid := 0
	if parent != nil {
		pid = parent.id
	}
	t.spans = append(t.spans, span{ID: id, Parent: pid, Trace: trace, Name: name})
	t.mu.Unlock()
	return &active{tr: t, id: id, start: time.Now()}
}

// end closes the span and returns its duration.
func (a *active) end() time.Duration {
	if a == nil {
		return 0
	}
	now := time.Now()
	t := a.tr
	t.mu.Lock()
	s := &t.spans[a.id-1]
	s.StartNS = a.start.Sub(t.t0).Nanoseconds()
	s.EndNS = now.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
	return now.Sub(a.start)
}

// durationsMs returns the durations of every span named name, in ms.
func (t *tracer) durationsMs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e6)
		}
	}
	return out
}

// selfMs sums, per span name, each span's duration minus the part of its
// interval its child spans cover.
func (t *tracer) selfMs() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		covered := coveredNS(s.StartNS, s.EndNS, children[s.ID])
		out[s.Name] += float64(s.EndNS-s.StartNS-covered) / 1e6
	}
	return out
}

// coveredNS is the length of the union of the children's intervals,
// clipped to [lo, hi].
func coveredNS(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.StartNS, lo), min(k.EndNS, hi)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// write saves the spans and the per-name self times as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	self := t.selfMs()
	t.mu.Lock()
	doc := struct {
		SelfMs map[string]float64 `json:"self_ms"`
		Spans  []span             `json:"spans"`
	}{self, t.spans}
	buf, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public functions (spans inside the program are a later change).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0: a root
	Name   string `json:"name"`
	// Req ties the spans of one request together: session index << 32 | seq.
	Req   uint64 `json:"req"`
	Start int64  `json:"start_ns"` // since the trace began
	End   int64  `json:"end_ns"`
	// Replayed marks a child that was re-run from the parent's inputs
	// after the parent returned (the parent's internals are not public)
	// and laid out inside the parent's interval, end to end.
	Replayed bool `json:"replayed,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<15)} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent int32, req uint64, start, end int64, replayed bool) int32 {
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end, Replayed: replayed})
	return id
}

// time runs fn inside a span.
func (t *tracer) time(name string, parent int32, req uint64, fn func()) int32 {
	start := t.now()
	fn()
	return t.add(name, parent, req, start, t.now(), false)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval its children cover (overlapping children are not counted twice,
// and a child reaching outside its parent is clipped).
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]*span)
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	self := make(map[int32]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanTotal gathers the spans of one name: each span's duration and self
// time in microseconds. Layer rows are medians over these — on a shared box
// a mean is at the mercy of the few spans a neighbour preempted.
type spanTotal struct {
	DurUS  []float64
	SelfUS []float64
}

func totalsByName(spans []span) map[string]*spanTotal {
	self := selfTimes(spans)
	out := make(map[string]*spanTotal)
	for i := range spans {
		s := &spans[i]
		t := out[s.Name]
		if t == nil {
			t = &spanTotal{}
			out[s.Name] = t
		}
		t.DurUS = append(t.DurUS, float64(s.End-s.Start)/1e3)
		t.SelfUS = append(t.SelfUS, float64(self[s.ID])/1e3)
	}
	return out
}

// traceFile is what a traced run leaves in benchmark/out/.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(dir string, tf *traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+tf.Workload+".json")
	b, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

package stream

import (
	"errors"
	"fmt"
	"sync"

	"arbd/internal/metrics"
)

// Pipeline errors.
var (
	ErrStarted    = errors.New("stream: pipeline already started")
	ErrNotStarted = errors.New("stream: pipeline not started")
	ErrClosed     = errors.New("stream: pipeline closed")
)

// Pipeline is a DAG of operators that runs on the goroutine calling Push.
// Build the topology first (Source, Window, Sink), then Start it, Push
// events, and Drain to flush windows. One mutex serialises Push and Drain,
// so a pipeline may be fed from several goroutines; each event has reached
// every sink it will reach when its Push returns.
type Pipeline struct {
	name    string
	reg     *metrics.Registry
	stages  []*stage
	sources map[string]*stage

	mu      sync.Mutex
	started bool
	closed  bool
}

// PipelineOption configures a pipeline.
type PipelineOption func(*Pipeline)

// WithRegistry points the pipeline's metrics at an external registry.
func WithRegistry(r *metrics.Registry) PipelineOption {
	return func(p *Pipeline) { p.reg = r }
}

// NewPipeline returns an empty pipeline.
func NewPipeline(name string, opts ...PipelineOption) *Pipeline {
	p := &Pipeline{
		name:    name,
		reg:     metrics.NewRegistry(),
		sources: make(map[string]*stage),
	}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

// stage is one node of the DAG. Stages are kept in build order, which is
// upstream before downstream, so Drain flushes a window before any window
// its results feed.
type stage struct {
	// in takes one event from upstream and forwards through send whatever
	// it emits.
	in func(Event)
	// flush emits every open window (Drain); nil for sources and sinks.
	flush func()
	out   []*stage
}

// send hands e to every downstream stage.
func (st *stage) send(e Event) {
	for _, to := range st.out {
		to.in(e)
	}
}

// Stream is a handle to a stage's output used to chain operators.
type Stream struct {
	p  *Pipeline
	st *stage
}

// then appends st downstream of s.
func (s *Stream) then(st *stage) *Stream {
	s.st.out = append(s.st.out, st)
	s.p.stages = append(s.p.stages, st)
	return &Stream{p: s.p, st: st}
}

// Source declares a named external input. Push delivers events to it.
func (p *Pipeline) Source(name string) *Stream {
	st := &stage{}
	st.in = st.send
	p.stages = append(p.stages, st)
	p.sources[name] = st
	return &Stream{p: p, st: st}
}

// Window applies windowed aggregation per key. Keys hash onto partitions
// window states, each with its own watermark and late-drop count: the
// results depend on the partition count, and an event one partition has
// moved past may still be on time in another. Results carry a WindowResult
// payload.
func (s *Stream) Window(name string, partitions int, spec WindowSpec, agg Aggregator) *Stream {
	if !spec.valid() {
		panic(fmt.Sprintf("stream: invalid window spec in %q", name))
	}
	lateCtr := s.p.reg.Counter("stream." + s.p.name + ".late_dropped." + name)
	states := make([]*windowState, max(partitions, 1))
	for i := range states {
		states[i] = newWindowState(spec, agg)
	}
	st := &stage{}
	st.in = func(e Event) {
		ws := states[partitionOf(e.Key, len(states))]
		before := ws.lateDrops
		for _, r := range ws.add(e) {
			st.send(r)
		}
		if ws.lateDrops > before {
			lateCtr.Add(int64(ws.lateDrops - before))
		}
	}
	st.flush = func() {
		for _, ws := range states {
			for _, r := range ws.flush() {
				st.send(r)
			}
		}
	}
	return s.then(st)
}

// Sink terminates the stream, delivering every event to fn. fn runs under
// the pipeline's lock, one event at a time, so it needs no locking for its
// own state; it must not call back into the pipeline.
func (s *Stream) Sink(name string, fn func(Event)) {
	s.then(&stage{in: fn})
}

// Start freezes the topology; Push and Drain refuse a pipeline not started.
func (p *Pipeline) Start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return ErrStarted
	}
	p.started = true
	return nil
}

// Push runs an event through the named source and everything downstream of
// it before returning: a window the event closes has reached its sinks.
// After Drain it returns ErrClosed.
func (p *Pipeline) Push(source string, e Event) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started {
		return ErrNotStarted
	}
	if p.closed {
		return ErrClosed
	}
	st, ok := p.sources[source]
	if !ok {
		return fmt.Errorf("stream: unknown source %q", source)
	}
	st.in(e)
	return nil
}

// Drain flushes every open window downstream and closes the pipeline. It
// cannot be restarted.
func (p *Pipeline) Drain() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started {
		return ErrNotStarted
	}
	if p.closed {
		return nil
	}
	p.closed = true
	for _, st := range p.stages {
		if st.flush != nil {
			st.flush()
		}
	}
	return nil
}

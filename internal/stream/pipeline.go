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
	ErrBadSpec    = errors.New("stream: invalid window spec")
	ErrClosed     = errors.New("stream: pipeline closed")
)

// defaultChannelSize is the per-worker input buffer. A bounded buffer gives
// backpressure: producers block when a stage falls behind. The value trades
// throughput (bigger batches between scheduler switches) against memory and
// latency; 256 events keeps worst-case buffering per edge small while
// avoiding lockstep handoffs.
const defaultChannelSize = 256

// Pipeline is a DAG of processing stages executed by goroutine pools. Build
// the topology first (Source/Map/Filter/Window/.../Sink), then Start it, Push
// events, and Drain to flush windows and stop cleanly.
type Pipeline struct {
	name    string
	reg     *metrics.Registry
	stages  []*stage
	sources map[string]*stage
	chanSz  int

	mu      sync.Mutex
	started bool
	closed  bool
	// pushing counts pushes past the closed check whose send may not have
	// landed; Drain waits for it to reach zero before any source closes.
	pushing sync.WaitGroup
}

// PipelineOption configures a pipeline.
type PipelineOption func(*Pipeline)

// WithChannelSize overrides the per-worker channel buffer.
func WithChannelSize(n int) PipelineOption {
	return func(p *Pipeline) {
		if n > 0 {
			p.chanSz = n
		}
	}
}

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
		chanSz:  defaultChannelSize,
	}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

// Metrics returns the pipeline's registry.
func (p *Pipeline) Metrics() *metrics.Registry { return p.reg }

// stage is one node of the DAG.
type stage struct {
	p           *Pipeline
	name        string
	parallelism int
	in          []chan Event
	// run processes one worker's input; emit forwards downstream.
	run  func(worker int, in <-chan Event, emit func(Event))
	out  []edge
	inWG sync.WaitGroup // counts upstream producers; inputs close at zero
	wkWG sync.WaitGroup // counts this stage's workers
}

// edge routes events from a stage to a downstream stage, optionally
// transforming them in transit (used to tag join sides).
type edge struct {
	to        *stage
	transform func(Event) Event
}

// send routes e to the destination worker by key hash, applying the edge
// transform.
func (ed edge) send(e Event) {
	if ed.transform != nil {
		e = ed.transform(e)
	}
	ed.to.in[partitionOf(e.Key, ed.to.parallelism)] <- e
}

// Stream is a handle to a stage's output used to chain operators.
type Stream struct {
	p  *Pipeline
	st *stage
}

func (p *Pipeline) addStage(name string, parallelism int, run func(int, <-chan Event, func(Event))) *stage {
	if parallelism <= 0 {
		parallelism = 1
	}
	st := &stage{p: p, name: name, parallelism: parallelism, run: run}
	st.in = make([]chan Event, parallelism)
	for i := range st.in {
		st.in[i] = make(chan Event, p.chanSz)
	}
	p.stages = append(p.stages, st)
	return st
}

// connect wires from -> to and accounts the producer count.
func connect(from, to *stage, transform func(Event) Event) {
	from.out = append(from.out, edge{to: to, transform: transform})
	to.inWG.Add(from.parallelism)
}

// Source declares a named external input. Push delivers events to it.
func (p *Pipeline) Source(name string) *Stream {
	st := p.addStage("source:"+name, 1, func(_ int, in <-chan Event, emit func(Event)) {
		for e := range in {
			emit(e)
		}
	})
	st.inWG.Add(1) // the Push handle is the producer; Drain releases it
	p.sources[name] = st
	return &Stream{p: p, st: st}
}

// Map transforms each event. Stateless; runs with the given parallelism.
func (s *Stream) Map(name string, parallelism int, fn func(Event) Event) *Stream {
	st := s.p.addStage("map:"+name, parallelism, func(_ int, in <-chan Event, emit func(Event)) {
		for e := range in {
			emit(fn(e))
		}
	})
	connect(s.st, st, nil)
	return &Stream{p: s.p, st: st}
}

// Filter drops events for which fn returns false.
func (s *Stream) Filter(name string, parallelism int, fn func(Event) bool) *Stream {
	st := s.p.addStage("filter:"+name, parallelism, func(_ int, in <-chan Event, emit func(Event)) {
		for e := range in {
			if fn(e) {
				emit(e)
			}
		}
	})
	connect(s.st, st, nil)
	return &Stream{p: s.p, st: st}
}

// FlatMap maps one event to zero or more events via the out callback.
func (s *Stream) FlatMap(name string, parallelism int, fn func(Event, func(Event))) *Stream {
	st := s.p.addStage("flatmap:"+name, parallelism, func(_ int, in <-chan Event, emit func(Event)) {
		for e := range in {
			fn(e, emit)
		}
	})
	connect(s.st, st, nil)
	return &Stream{p: s.p, st: st}
}

// Window applies windowed aggregation per key. Events are partitioned by key
// across parallel workers; each worker owns its keys' window state. Results
// carry a WindowResult payload.
func (s *Stream) Window(name string, parallelism int, spec WindowSpec, agg Aggregator) *Stream {
	if !spec.valid() {
		panic(fmt.Sprintf("stream: invalid window spec in %q", name))
	}
	lateCtr := s.p.reg.Counter("stream." + s.p.name + ".late_dropped." + name)
	st := s.p.addStage("window:"+name, parallelism, func(_ int, in <-chan Event, emit func(Event)) {
		ws := newWindowState(spec, agg)
		for e := range in {
			before := ws.lateDrops
			for _, r := range ws.add(e) {
				emit(r)
			}
			if ws.lateDrops > before {
				lateCtr.Add(int64(ws.lateDrops - before))
			}
		}
		for _, r := range ws.flush() {
			emit(r)
		}
	})
	connect(s.st, st, nil)
	return &Stream{p: s.p, st: st}
}

// Sink terminates the stream, delivering every event to fn from a single
// goroutine (fn needs no locking for its own state).
func (s *Stream) Sink(name string, fn func(Event)) {
	st := s.p.addStage("sink:"+name, 1, func(_ int, in <-chan Event, _ func(Event)) {
		for e := range in {
			fn(e)
		}
	})
	connect(s.st, st, nil)
}

// joinTag wraps events in transit to a join stage.
type joinTag struct {
	side  int
	inner any
}

// JoinWindow joins s (left) with other (right) on key within tumbling
// windows of the given size: when a window fires, fn receives all left and
// right events of one key and returns the events to emit. Both inputs are
// partitioned identically so a key's state lives on one worker.
func (s *Stream) JoinWindow(name string, parallelism int, other *Stream, spec WindowSpec, fn func(key string, win Window, left, right []Event) []Event) *Stream {
	if !spec.valid() || spec.kind == windowSession {
		panic(fmt.Sprintf("stream: invalid window spec in join %q (session joins unsupported)", name))
	}
	st := s.p.addStage("join:"+name, parallelism, func(_ int, in <-chan Event, emit func(Event)) {
		js := newJoinState(spec, fn)
		for e := range in {
			for _, out := range js.add(e) {
				emit(out)
			}
		}
		for _, out := range js.flush() {
			emit(out)
		}
	})
	connect(s.st, st, func(e Event) Event {
		e.Payload = joinTag{side: 0, inner: e.Payload}
		return e
	})
	connect(other.st, st, func(e Event) Event {
		e.Payload = joinTag{side: 1, inner: e.Payload}
		return e
	})
	return &Stream{p: s.p, st: st}
}

// Start launches every stage's workers. The topology is frozen afterwards.
func (p *Pipeline) Start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return ErrStarted
	}
	p.started = true
	for _, st := range p.stages {
		st := st
		for w := 0; w < st.parallelism; w++ {
			w := w
			st.wkWG.Add(1)
			go func() {
				defer st.wkWG.Done()
				emit := func(e Event) {
					for _, ed := range st.out {
						ed.send(e)
					}
				}
				st.run(w, st.in[w], emit)
			}()
		}
		// Close this stage's inputs once all upstream producers finish.
		go func() {
			st.inWG.Wait()
			for _, ch := range st.in {
				close(ch)
			}
		}()
		// Signal downstream when our workers are done.
		go func() {
			st.wkWG.Wait()
			for _, ed := range st.out {
				ed.to.inWG.Add(-st.parallelism)
			}
		}()
	}
	return nil
}

// Push delivers an event into the named source, blocking under
// backpressure. A push racing Drain either lands before the sources close
// or returns ErrClosed.
func (p *Pipeline) Push(source string, e Event) error {
	p.mu.Lock()
	if !p.started {
		p.mu.Unlock()
		return ErrNotStarted
	}
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	st, ok := p.sources[source]
	if ok {
		p.pushing.Add(1)
	}
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("stream: unknown source %q", source)
	}
	st.in[0] <- e
	p.pushing.Done()
	return nil
}

// Drain closes all sources and waits for every stage to finish, flushing
// window state. The pipeline cannot be restarted.
func (p *Pipeline) Drain() error {
	p.mu.Lock()
	if !p.started {
		p.mu.Unlock()
		return ErrNotStarted
	}
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	// No push starts after closed is set; wait out those already sending.
	p.pushing.Wait()
	for _, st := range p.sources {
		st.inWG.Done() // release the Push producer slot
	}
	for _, st := range p.stages {
		st.wkWG.Wait()
	}
	return nil
}

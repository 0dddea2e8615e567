package server

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"time"

	"arbd/internal/core"
	"arbd/internal/metrics"
)

// Scheduler errors.
var (
	// ErrSchedulerClosed is returned for frames submitted after Close.
	ErrSchedulerClosed = errors.New("server: frame scheduler closed")
	// ErrFrameShed is returned when a frame request waited in the queue
	// past its deadline and was dropped instead of rendered late — the
	// paper's timeliness rule applied to scheduling: a stale AR overlay is
	// worse than none.
	ErrFrameShed = errors.New("server: frame shed: queue delay exceeded deadline")
)

// defaultFrameDeadline is the queue-wait budget every role admits frames
// against: the engine's scheduler and the router's per-shard shedding. It is
// generous: shedding should only trip under overload, not on a transient
// queue blip.
const defaultFrameDeadline = 250 * time.Millisecond

// SchedulerConfig parameterises a FrameScheduler. The zero value runs
// GOMAXPROCS workers with no shedding; a serving node's engine adds the
// shedding deadline.
type SchedulerConfig struct {
	// workers is the worker-pool size (default GOMAXPROCS). Frame work is
	// CPU-bound, so more workers than cores only adds contention. Tests set
	// one to stall the pool on purpose.
	workers int
	// deadline is the maximum time a request may wait for a worker before
	// being shed. Zero disables shedding.
	deadline time.Duration
}

// FrameScheduler executes session frame jobs on a bounded worker pool with
// per-frame deadlines. It decouples "how many devices are connected" from
// "how many frames render at once": N connections share the pool's renderers
// instead of each connection burning a core whenever it pleases.
//
// Jobs wait in one FIFO and run in submit order. Submitting never blocks:
// the queue is bounded by its producers instead — a stream has at most one
// frame in flight, and a connection's read loop parks once replyWindow
// replies are owed to it, counting polled frames from the request's read.
type FrameScheduler struct {
	cfg SchedulerConfig
	reg *metrics.Registry

	// Per-frame instruments, resolved once at construction: the run hot
	// path must not pay a name concat + registry map lookup per frame.
	queueWait  *metrics.Histogram
	frameLat   *metrics.Histogram
	framesDone *metrics.Counter
	framesShed *metrics.Counter

	mu     sync.Mutex
	q      []frameJob // FIFO; queued jobs are q[head:]
	head   int        // index of the oldest job: pops are O(1), not a memmove
	ready  sync.Cond  // on mu: a job was queued, or the scheduler closed
	closed bool

	wg        sync.WaitGroup
	closeOnce sync.Once
}

// frameJob is the scheduler's one job shape: visit runs under the session
// lock with the rendered frame (Session.FrameVisit) — reply paths encode
// there, so a concurrent frame for the same session cannot clobber the
// layout the encoder is reading — and done then fires exactly once with
// the outcome, from the worker (or Close) that settled the job. A shed or
// unanswered job skips visit.
type frameJob struct {
	sess  *core.Session
	enq   time.Time
	visit func(*core.Frame)
	done  func(error)
}

// NewFrameScheduler starts the worker pool. reg may be nil.
func NewFrameScheduler(cfg SchedulerConfig, reg *metrics.Registry) *FrameScheduler {
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	fs := &FrameScheduler{
		cfg: cfg,
		reg: reg,

		queueWait:  reg.Histogram("server.frame.queue_wait"),
		frameLat:   reg.Histogram("server.frame.latency"),
		framesDone: reg.Counter("server.frames.done"),
		framesShed: reg.Counter("server.frames.shed"),
	}
	fs.ready.L = &fs.mu
	for i := 0; i < cfg.workers; i++ {
		fs.wg.Add(1)
		go fs.worker()
	}
	return fs
}

func (fs *FrameScheduler) worker() {
	defer fs.wg.Done()
	// A worker runs one frame at a time, so every session it renders
	// borrows the same scratch: the scheduler holds one per worker.
	sc := core.NewFrameScratch()
	for {
		fs.mu.Lock()
		for fs.head == len(fs.q) && !fs.closed {
			fs.ready.Wait()
		}
		if fs.closed {
			fs.mu.Unlock()
			return
		}
		job := fs.q[fs.head]
		fs.q[fs.head] = frameJob{} // don't retain the callbacks
		fs.head++
		if fs.head == len(fs.q) {
			fs.q, fs.head = fs.q[:0], 0
		}
		fs.mu.Unlock()
		fs.run(job, sc)
	}
}

//arbd:hotpath
func (fs *FrameScheduler) run(job frameJob, sc *core.FrameScratch) {
	wait := time.Since(job.enq)
	fs.queueWait.Observe(wait)
	if fs.cfg.deadline > 0 && wait > fs.cfg.deadline {
		fs.framesShed.Inc()
		job.done(ErrFrameShed)
		return
	}
	start := time.Now()
	err := job.sess.FrameVisit(start, sc, job.visit)
	fs.frameLat.Observe(time.Since(start))
	fs.framesDone.Inc()
	job.done(err)
}

// Submit queues a frame job whose visit callback runs under the session
// lock with the rendered frame (see Session.FrameVisit); done then fires
// exactly once with the render error. A job that waits past the configured
// deadline is shed: visit is skipped and done gets ErrFrameShed. Both
// callbacks run on a worker goroutine (or in Close), visit strictly before
// done — no per-job goroutine is spawned. Submit never blocks; after Close
// it fails with ErrSchedulerClosed and done never fires.
//
//arbd:hotpath
func (fs *FrameScheduler) Submit(sess *core.Session, visit func(*core.Frame), done func(error)) error {
	job := frameJob{sess: sess, enq: time.Now(), visit: visit, done: done}
	fs.mu.Lock()
	if fs.closed {
		fs.mu.Unlock()
		return ErrSchedulerClosed
	}
	if fs.head > 0 && len(fs.q) == cap(fs.q) {
		// Compact the consumed prefix instead of growing the array.
		n := copy(fs.q, fs.q[fs.head:])
		clear(fs.q[n:])
		fs.q, fs.head = fs.q[:n], 0
	}
	fs.q = append(fs.q, job)
	fs.mu.Unlock()
	fs.ready.Signal()
	return nil
}

// Frame schedules one frame for the session and blocks for the result. No
// serving path uses it (connections Submit and reply from the worker);
// benchmark/layers.go calls it to time the scheduler and discards the
// frame. The layout lives in the worker's scratch, which its next job
// reuses, so Frame copies the struct and its Annotations inside the visit:
// the returned frame is the caller's. TagsFor and Recommended are left
// nil, and the frame carries no delta base. Every queued job is answered
// (worker or Close), so the wait cannot leak.
func (fs *FrameScheduler) Frame(sess *core.Session) (*core.Frame, error) {
	var frame *core.Frame
	reply := make(chan error, 1)
	visit := func(f *core.Frame) {
		frame = &core.Frame{
			Time:        f.Time,
			Pose:        f.Pose,
			Annotations: slices.Clone(f.Annotations),
			Elapsed:     f.Elapsed,
			Level:       f.Level,
			Index:       f.Index,
		}
	}
	if err := fs.Submit(sess, visit, func(err error) { reply <- err }); err != nil {
		return nil, err
	}
	err := <-reply
	return frame, err
}

// Close answers every queued job ErrSchedulerClosed, then waits for the
// workers to finish the jobs they are running. It is idempotent.
func (fs *FrameScheduler) Close() {
	fs.closeOnce.Do(func() {
		fs.mu.Lock()
		fs.closed = true
		queued := fs.q[fs.head:]
		fs.q, fs.head = nil, 0
		fs.mu.Unlock()
		fs.ready.Broadcast()
		for _, job := range queued {
			job.done(ErrSchedulerClosed)
		}
		fs.wg.Wait()
	})
}

package server

import (
	"errors"
	"runtime"
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

// SchedulerConfig parameterises a FrameScheduler. The zero value runs
// GOMAXPROCS workers with no shedding; a serving node's engine adds the
// shedding deadline and its platform's load signal.
type SchedulerConfig struct {
	// workers is the worker-pool size (default GOMAXPROCS). Frame work is
	// CPU-bound, so more workers than cores only adds contention. Tests set
	// one to stall the pool on purpose.
	workers int
	// deadline is the maximum time a request may wait for a worker before
	// being shed. Zero disables shedding.
	deadline time.Duration
	// load reports backend pressure (telemetry flush latency and analytics
	// backlog). When set alongside a deadline, admission becomes lag-aware:
	// the effective shedding deadline tightens as pressure grows, so the
	// server sheds earlier when the big-data plane falls behind instead of
	// rendering frames whose context analytics are already stale.
	load func() core.LoadSignal
}

const (
	// queuePerWorker sizes the job channel: when it is full, SubmitVisit
	// blocks — backpressure reaches the connection instead of growing an
	// unbounded goroutine pile.
	queuePerWorker = 16
	// loadPollEvery bounds how often the load source is consulted, so
	// admission stays cheap at frame rates.
	loadPollEvery = 10 * time.Millisecond
)

// FrameScheduler executes session frame jobs on a bounded worker pool with
// per-frame deadlines. It decouples "how many devices are connected" from
// "how many frames render at once": N connections share the pool's renderers
// instead of each connection burning a core whenever it pleases.
type FrameScheduler struct {
	cfg  SchedulerConfig
	gate loadGate
	reg  *metrics.Registry
	jobs chan frameJob

	// Per-frame instruments, resolved once at construction: the run hot
	// path must not pay a name concat + registry map lookup per frame.
	queueWait   *metrics.Histogram
	frameLat    *metrics.Histogram
	framesDone  *metrics.Counter
	framesShed  *metrics.Counter
	framesShedL *metrics.Counter

	// loadMu guards the cached backend-load sample; cfg.load is polled at
	// most every loadPollEvery.
	loadMu  sync.Mutex
	loadAt  time.Time
	loadSig core.LoadSignal

	// Overflow FIFO for visit jobs admitted past the channel's capacity
	// (QueueVisit): at most one per paced stream, drained in order by
	// workers as they finish queued work. It preserves the blocking
	// submitter's fairness — every admitted job eventually runs, oldest
	// first — without ever blocking the shared pacing goroutine.
	ovMu sync.Mutex
	ov   []frameJob
	// ovKick wakes an idle worker when a job parks on the overflow: the
	// drain is normally completion-driven, but a job parked in the moment
	// the channel ran dry would otherwise wait for traffic that may never
	// come.
	ovKick chan struct{}

	wg        sync.WaitGroup
	quit      chan struct{}
	closeOnce sync.Once
	// closeMu orders a submitter's enqueue against Close: any job that made
	// it into the channel is guaranteed an answer (worker or close drain).
	closeMu sync.RWMutex
	closed  bool
}

// frameJob is the scheduler's one job shape: visit runs under the session
// lock with the rendered frame (Session.FrameVisit) — reply paths encode
// there, so a concurrent frame for the same session cannot clobber the
// scratch the encoder is reading — and done then fires exactly once with
// the outcome, from the worker (or the close drain) that settled the job.
// A shed or unanswered job skips visit.
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
		cfg:    cfg,
		gate:   loadGate{deadline: cfg.deadline},
		reg:    reg,
		jobs:   make(chan frameJob, cfg.workers*queuePerWorker),
		ovKick: make(chan struct{}, 1),
		quit:   make(chan struct{}),

		queueWait:   reg.Histogram("server.frame.queue_wait"),
		frameLat:    reg.Histogram("server.frame.latency"),
		framesDone:  reg.Counter("server.frames.done"),
		framesShed:  reg.Counter("server.frames.shed"),
		framesShedL: reg.Counter("server.frames.shed_lag"),
	}
	for i := 0; i < cfg.workers; i++ {
		fs.wg.Add(1)
		go fs.worker()
	}
	return fs
}

// Metrics returns the registry the scheduler records into
// (server.frame.latency, server.frame.queue_wait, server.frames.*).
func (fs *FrameScheduler) Metrics() *metrics.Registry { return fs.reg }

func (fs *FrameScheduler) worker() {
	defer fs.wg.Done()
	for {
		select {
		case <-fs.quit:
			return
		case job := <-fs.jobs:
			// Refill before the render: the receive just freed a channel
			// slot, and handing it to the overflow head now (rather than
			// after the render) keeps the queue's order intact and the
			// channel hot for the other workers.
			fs.refillFromOverflow()
			fs.run(job)
		case <-fs.ovKick:
			fs.refillFromOverflow()
		}
	}
}

// refillFromOverflow tops the channel up from the overflow FIFO, in order.
// It only MOVES jobs — it never runs one inline: a worker that rendered
// overflow jobs while the channel sat full would stop receiving, and with
// every worker doing that the channel's own jobs freeze — exactly the
// streams whose jobs won a channel slot would starve, and a stopStream
// waiting on one of them would wedge connection teardown behind it.
func (fs *FrameScheduler) refillFromOverflow() {
	fs.ovMu.Lock()
	defer fs.ovMu.Unlock()
	for len(fs.ov) > 0 {
		select {
		case fs.jobs <- fs.ov[0]:
			fs.ov[0] = frameJob{}
			fs.ov = fs.ov[1:]
		default:
			return
		}
	}
	fs.ov = nil // release the drained backing array
}

// currentLoad returns the most recent backend-load sample, refreshing it
// from cfg.load at most every loadPollEvery.
func (fs *FrameScheduler) currentLoad() core.LoadSignal {
	fs.loadMu.Lock()
	defer fs.loadMu.Unlock()
	if now := time.Now(); now.Sub(fs.loadAt) >= loadPollEvery {
		fs.loadSig = fs.cfg.load()
		fs.loadAt = now
	}
	return fs.loadSig
}

// EffectiveDeadline returns the queue-wait budget currently applied to
// frame jobs: the configured deadline, tightened by backend pressure when a
// Load source is configured (see loadGate for the rule, which the Router
// shares for remote shards).
func (fs *FrameScheduler) EffectiveDeadline() time.Duration {
	if fs.cfg.deadline <= 0 || fs.cfg.load == nil {
		return fs.cfg.deadline
	}
	return fs.gate.effective(fs.currentLoad())
}

//arbd:hotpath
func (fs *FrameScheduler) run(job frameJob) {
	wait := time.Since(job.enq)
	fs.queueWait.Observe(wait)
	if deadline := fs.EffectiveDeadline(); deadline > 0 && wait > deadline {
		fs.framesShed.Inc()
		if wait <= fs.cfg.deadline {
			// Inside the base deadline: this frame was shed only because
			// backend pressure tightened admission.
			fs.framesShedL.Inc()
		}
		job.done(ErrFrameShed)
		return
	}
	start := time.Now()
	err := job.sess.FrameVisit(start, job.visit)
	fs.frameLat.Observe(time.Since(start))
	fs.framesDone.Inc()
	job.done(err)
}

// SubmitVisit enqueues a frame job whose visit callback runs under the
// session lock with the rendered frame (see Session.FrameVisit); done then
// fires exactly once with the render error. Shed and closed-scheduler
// outcomes skip visit and surface through done. Both callbacks run on the
// worker goroutine (or the close drain), visit strictly before done — no
// per-job goroutine is spawned. SubmitVisit blocks while the queue is full
// — backpressure reaches the submitting connection's read loop — and fails
// with ErrSchedulerClosed after Close.
func (fs *FrameScheduler) SubmitVisit(sess *core.Session, visit func(*core.Frame), done func(error)) error {
	job := frameJob{sess: sess, enq: time.Now(), visit: visit, done: done}
	fs.closeMu.RLock()
	defer fs.closeMu.RUnlock()
	if fs.closed {
		return ErrSchedulerClosed
	}
	select {
	case fs.jobs <- job:
		return nil
	case <-fs.quit:
		return ErrSchedulerClosed
	}
}

// QueueVisit is SubmitVisit without the blocking admission: the streaming
// pacer wheel uses it, because one shared goroutine paces every stream
// and must never block on a saturated queue. A full channel parks the job
// on the overflow FIFO instead of rejecting it — admission never fails
// (except after Close), every admitted job is answered exactly once, and
// overflow jobs run oldest-first as workers free up, so a saturated
// scheduler degrades every stream's cadence fairly instead of starving
// whichever streams the pacing order happens to disfavour. Jobs that
// wait past the effective deadline still shed in the worker, surfacing
// ErrFrameShed through done.
func (fs *FrameScheduler) QueueVisit(sess *core.Session, visit func(*core.Frame), done func(error)) error {
	fs.closeMu.RLock()
	defer fs.closeMu.RUnlock()
	if fs.closed {
		return ErrSchedulerClosed
	}
	job := frameJob{sess: sess, enq: time.Now(), visit: visit, done: done}
	// A non-empty overflow means jobs are already waiting behind the
	// channel: park behind them rather than jumping the line, so a
	// saturated scheduler stays globally FIFO across every stream.
	fs.ovMu.Lock()
	waiting := len(fs.ov) > 0
	fs.ovMu.Unlock()
	if waiting {
		fs.parkOverflow(job)
		return nil
	}
	select {
	case fs.jobs <- job:
		return nil
	case <-fs.quit:
		return ErrSchedulerClosed
	default:
		fs.parkOverflow(job)
		return nil
	}
}

// parkOverflow appends a job to the overflow FIFO and kicks one worker:
// the channel may have drained (every worker idle) between the failed
// send and the park, and the parked job must not wait for traffic that
// may never come.
//
//arbd:hotpath
func (fs *FrameScheduler) parkOverflow(job frameJob) {
	fs.ovMu.Lock()
	fs.ov = append(fs.ov, job)
	fs.ovMu.Unlock()
	select {
	case fs.ovKick <- struct{}{}:
	default:
	}
}

// Frame schedules one frame for the session and blocks for the result. No
// serving path uses it (connections submit with SubmitVisit and reply from
// the worker); it is the synchronous entry for in-process callers, who get
// the frame Session.Frame would have returned: valid until the session's
// next frame. Every enqueued job is answered (worker or close drain), so
// the wait cannot leak.
func (fs *FrameScheduler) Frame(sess *core.Session) (*core.Frame, error) {
	var frame *core.Frame
	reply := make(chan error, 1)
	if err := fs.SubmitVisit(sess, func(f *core.Frame) { frame = f }, func(err error) { reply <- err }); err != nil {
		return nil, err
	}
	err := <-reply
	return frame, err
}

// Close stops the workers, then answers any still-queued jobs with
// ErrSchedulerClosed. quit is closed before taking closeMu so submitters
// blocked on a full queue wake up rather than deadlocking the close.
func (fs *FrameScheduler) Close() {
	fs.closeOnce.Do(func() {
		close(fs.quit)
		fs.closeMu.Lock()
		fs.closed = true
		fs.closeMu.Unlock()
		fs.wg.Wait()
		for {
			select {
			case job := <-fs.jobs:
				job.done(ErrSchedulerClosed)
			default:
				fs.ovMu.Lock()
				ov := fs.ov
				fs.ov = nil
				fs.ovMu.Unlock()
				for _, job := range ov {
					job.done(ErrSchedulerClosed)
				}
				return
			}
		}
	})
}

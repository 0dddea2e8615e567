// Package obs is the platform's observability plane: a zero-alloc frame
// flight recorder that captures per-stage span breakdowns for every frame a
// node serves, a bounded slow-frame exemplar store latching full traces for
// frames past a rolling p99, a Prometheus text encoder over
// metrics.Registry, and an HTTP introspection plane (served by
// `arbd-server -obs`) exposing all of it. Traces are node-local: a router
// and the shard behind it each record their own half of a push's journey,
// joined offline by (session, seq) — no wire or protocol change.
package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"arbd/internal/metrics"
)

// Stage indexes one span of a frame's flight through the serving path.
type Stage int

const (
	// StageAdmission is pacing delay: the time an owed tick waited for the
	// previous frame to complete before its submission (zero for frames
	// submitted directly on their tick).
	StageAdmission Stage = iota
	// StageQueue is scheduler queue wait: submit until a worker picked the
	// job up (including dispatch overhead).
	StageQueue
	// StageRender is the core render duration (core.Frame.Elapsed).
	StageRender
	// StageEncode is wire encoding under the session lock.
	StageEncode
	// StageOutbox is time queued on the connection's push outbox.
	StageOutbox
	// StageWrite is the connection write (shared across a batch).
	StageWrite

	// NumStages sizes per-record span arrays.
	NumStages
)

var stageNames = [NumStages]string{
	"admission", "queue", "render", "encode", "outbox", "write",
}

// String names the stage ("admission", "queue", ...).
func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// FrameRecord is one completed frame flight: identity, wall-clock start,
// per-stage spans, and outcome flags. Values, not pointers, flow through
// the ring and the exemplar store so records never alias live state.
type FrameRecord struct {
	Session uint64
	Seq     uint64
	Start   int64            // wall clock, Unix nanoseconds
	Spans   [NumStages]int64 // nanoseconds per stage
	Total   int64            // nanoseconds, start to settlement
	Dropped bool             // shed by an outbox (backpressure) before the write
	Shed    bool             // shed by the scheduler (deadline)
	Err     bool             // render error; no push produced
}

// SpanSum returns the sum of all stage spans in nanoseconds.
func (r *FrameRecord) SpanSum() int64 {
	var sum int64
	for _, s := range r.Spans {
		sum += s
	}
	return sum
}

// Blame returns the stage with the largest span.
func (r *FrameRecord) Blame() Stage {
	best := Stage(0)
	for s := Stage(1); s < NumStages; s++ {
		if r.Spans[s] > r.Spans[best] {
			best = s
		}
	}
	return best
}

// slot is one ring entry guarded by a try-lock nobody ever blocks on: a
// writer that fails the TryLock has been lapped by a concurrent commit (or
// raced a reader) and drops its record rather than waiting; a reader that
// fails it skips the slot mid-write. Uncontended, a commit costs two atomic
// ops — and never a blocked goroutine on the frame path.
type slot struct {
	mu  sync.Mutex
	set atomic.Bool // the slot has ever been written (readers skip empties)
	rec FrameRecord
	// pad keeps adjacent slots off one cache line under concurrent commits.
	_ [24]byte
}

// Recorder sizes.
const (
	// ringSize is the flight-record ring capacity, a power of two so the
	// cursor masks instead of dividing.
	ringSize = 4096
	// slowCapacity bounds the slow-frame exemplar store.
	slowCapacity = 64
	// slowRefreshEvery bounds how often the rolling p99 threshold is
	// recomputed from the totals histogram: a locked bucket scan at ~4 Hz
	// instead of per frame.
	slowRefreshEvery = 250 * time.Millisecond
)

// Recorder is a per-engine frame flight recorder: a fixed-size ring of the
// most recent FrameRecords plus a bounded exemplar store of slow outliers.
// The hot path — Begin, the Mark* calls, Finish — performs no steady-state
// allocation and never blocks: flights come from a pool and records are
// copied into pre-allocated slots under per-slot try-locks that drop a
// colliding commit instead of waiting.
type Recorder struct {
	slots []slot
	mask  uint64
	cur   atomic.Uint64

	pool sync.Pool

	// totals feeds the rolling p99; threshold caches its p99 in
	// nanoseconds, refreshed at most every slowRefreshEvery. A zero
	// threshold (cold start) latches everything — the store is bounded, so
	// early over-latching only warms it up.
	totals      *metrics.Histogram
	threshold   atomic.Int64
	refreshedAt atomic.Int64 // unix nanos of the last threshold refresh

	recorded *metrics.Counter
	slowCtr  *metrics.Counter
	dropped  *metrics.Counter

	// slow is the exemplar ring: a mutex is fine here, only frames already
	// classified slow (or dropped) take it.
	slowMu   sync.Mutex
	slow     []FrameRecord
	slowNext int
	slowLen  int
}

// NewRecorder builds a recorder. Its instruments (obs.frame.total,
// obs.frames.recorded, obs.frames.slow, obs.frames.dropped) register in
// reg; reg may be nil.
func NewRecorder(reg *metrics.Registry) *Recorder {
	return newRecorder(reg, ringSize, slowCapacity)
}

// newRecorder is NewRecorder with its ring of n slots (a power of two) and
// an exemplar store of slowCap records; tests shrink both to wrap them.
func newRecorder(reg *metrics.Registry, n, slowCap int) *Recorder {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	r := &Recorder{
		slots:    make([]slot, n),
		mask:     uint64(n - 1),
		totals:   reg.Histogram("obs.frame.total"),
		recorded: reg.Counter("obs.frames.recorded"),
		slowCtr:  reg.Counter("obs.frames.slow"),
		dropped:  reg.Counter("obs.frames.dropped"),
		slow:     make([]FrameRecord, slowCap),
	}
	r.pool.New = func() any { return new(Flight) }
	return r
}

// Begin starts a flight for one frame of session, whose clock began at
// `at` — an owed tick's original fire time, or now for a frame submitted
// directly on its tick. The gap between at and now is recorded as the
// admission span. The returned flight must be settled by exactly one
// Finish* call; it is pooled and must not be touched afterwards.
//
//arbd:hotpath
func (r *Recorder) Begin(session uint64, at time.Time) *Flight {
	fl := r.pool.Get().(*Flight)
	now := time.Now()
	fl.rec = r
	fl.start = at
	fl.mark = now
	fl.record = FrameRecord{Session: session, Start: at.UnixNano()}
	fl.record.Spans[StageAdmission] = now.Sub(at).Nanoseconds()
	return fl
}

// commit publishes one record into the ring. Slot claims collide only when
// writers lap the whole ring simultaneously (or a scrape is copying this
// slot); the failed TryLock then drops this record rather than blocking a
// frame-path goroutine.
//
//arbd:hotpath
func (r *Recorder) commit(rec *FrameRecord) {
	s := &r.slots[r.cur.Add(1)&r.mask]
	if !s.mu.TryLock() {
		return
	}
	s.rec = *rec
	s.set.Store(true)
	s.mu.Unlock()
}

// latch appends one record to the slow exemplar ring (cold path).
func (r *Recorder) latch(rec *FrameRecord) {
	r.slowCtr.Inc()
	r.slowMu.Lock()
	r.slow[r.slowNext] = *rec
	r.slowNext = (r.slowNext + 1) % len(r.slow)
	if r.slowLen < len(r.slow) {
		r.slowLen++
	}
	r.slowMu.Unlock()
}

// settleDelivered runs the delivered-frame bookkeeping: observe the total,
// refresh the cached p99 threshold if stale, latch an exemplar when slow.
//
//arbd:hotpath
func (r *Recorder) settleDelivered(rec *FrameRecord, now time.Time) {
	total := time.Duration(rec.Total)
	r.totals.Observe(total)
	last := r.refreshedAt.Load()
	if now.UnixNano()-last >= int64(slowRefreshEvery) &&
		r.refreshedAt.CompareAndSwap(last, now.UnixNano()) {
		// One winner per window recomputes; the quantile scan is a bounded
		// bucket walk under the histogram's own lock.
		r.threshold.Store(int64(r.totals.Quantile(0.99)))
	}
	if rec.Total >= r.threshold.Load() {
		r.latch(rec)
	}
}

// Records copies the ring's current contents into out (newest last,
// unordered across a wrap), skipping slots mid-write. Pass a slice with
// capacity for ringSize records to avoid growth.
func (r *Recorder) Records(out []FrameRecord) []FrameRecord {
	for i := range r.slots {
		s := &r.slots[i]
		if !s.set.Load() || !s.mu.TryLock() {
			continue
		}
		rec := s.rec
		s.mu.Unlock()
		out = append(out, rec)
	}
	return out
}

// Slow returns up to n slow-frame exemplars, newest first. n <= 0 returns
// all latched exemplars.
func (r *Recorder) Slow(n int) []FrameRecord {
	r.slowMu.Lock()
	defer r.slowMu.Unlock()
	if n <= 0 || n > r.slowLen {
		n = r.slowLen
	}
	out := make([]FrameRecord, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.slow[(r.slowNext-i+len(r.slow))%len(r.slow)])
	}
	return out
}

// SlowThreshold reports the current rolling-p99 latch threshold.
func (r *Recorder) SlowThreshold() time.Duration {
	return time.Duration(r.threshold.Load())
}

// Flight is one frame's in-progress trace. It is owned by exactly one
// goroutine at a time (ownership travels with the frame: pacer tick →
// scheduler worker → outbox writer) and returns to the recorder's pool on
// Finish — callers must drop every reference after settling it.
type Flight struct {
	rec    *Recorder
	start  time.Time
	mark   time.Time
	record FrameRecord
}

// SetSeq stamps the push sequence number once it is assigned (in the visit
// callback, after the stream's counter increments).
//
//arbd:hotpath
func (fl *Flight) SetSeq(seq uint64) { fl.record.Seq = seq }

// Mark closes the window since the previous mark as `stage`.
//
//arbd:hotpath
func (fl *Flight) Mark(stage Stage) {
	now := time.Now()
	fl.record.Spans[stage] += now.Sub(fl.mark).Nanoseconds()
	fl.mark = now
}

// MarkAt is Mark with a caller-supplied timestamp, so a batch settling
// many flights pays one time.Now for all of them.
//
//arbd:hotpath
func (fl *Flight) MarkAt(stage Stage, now time.Time) {
	fl.record.Spans[stage] += now.Sub(fl.mark).Nanoseconds()
	fl.mark = now
}

// MarkSplit closes the window since the previous mark as two stages: b
// takes bPart of it (measured externally — e.g. the render duration the
// core reports), a takes the remainder, clamped at zero.
//
//arbd:hotpath
func (fl *Flight) MarkSplit(a, b Stage, bPart time.Duration) {
	now := time.Now()
	win := now.Sub(fl.mark)
	rest := win - bPart
	if rest < 0 {
		rest = 0
	}
	fl.record.Spans[a] += rest.Nanoseconds()
	fl.record.Spans[b] += bPart.Nanoseconds()
	fl.mark = now
}

// FinishAt settles a delivered frame: the trace ends at `end` (the write
// completion), so Total equals the span sum exactly (modulo queue
// clamping). The flight returns to the pool.
//
//arbd:hotpath
func (fl *Flight) FinishAt(end time.Time) {
	fl.record.Total = end.Sub(fl.start).Nanoseconds()
	rec := fl.rec
	rec.recorded.Inc()
	rec.commit(&fl.record)
	rec.settleDelivered(&fl.record, end)
	rec.pool.Put(fl)
}

// FinishDropped settles a frame whose push was dropped under backpressure
// (or lost to a dying connection): the time since the last mark folds into
// the outbox span.
//
//arbd:hotpath
func (fl *Flight) FinishDropped() {
	now := time.Now()
	fl.record.Spans[StageOutbox] += now.Sub(fl.mark).Nanoseconds()
	fl.record.Total = now.Sub(fl.start).Nanoseconds()
	fl.record.Dropped = true
	rec := fl.rec
	rec.recorded.Inc()
	rec.dropped.Inc()
	rec.commit(&fl.record)
	rec.pool.Put(fl)
}

// FinishShed settles a frame the scheduler shed: the wait that killed it
// folds into the queue span.
//
//arbd:hotpath
func (fl *Flight) FinishShed() {
	now := time.Now()
	fl.record.Spans[StageQueue] += now.Sub(fl.mark).Nanoseconds()
	fl.record.Total = now.Sub(fl.start).Nanoseconds()
	fl.record.Shed = true
	rec := fl.rec
	rec.recorded.Inc()
	rec.commit(&fl.record)
	rec.pool.Put(fl)
}

// FinishError settles a frame whose render failed (no push produced).
//
//arbd:hotpath
func (fl *Flight) FinishError() {
	now := time.Now()
	fl.record.Total = now.Sub(fl.start).Nanoseconds()
	fl.record.Err = true
	rec := fl.rec
	rec.recorded.Inc()
	rec.commit(&fl.record)
	rec.pool.Put(fl)
}

// Subscription streaming: the push path. A client subscribes
// once with a target cadence and the server owns the frame clock — the
// engine's shared pacing wheel drives frames through the FrameScheduler,
// the reply is encoded under the session lock via the pooled encode path
// (a full MsgFramePush, or a MsgFrameDelta diff for v4 subscribers), and
// finished pushes queue on a per-connection drop-oldest outbox whose
// writer coalesces each wakeup's backlog into one vectored write. Load
// degrades cadence before it sheds: a tick that fires while the previous
// frame is still in flight is skipped outright.
package server

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"arbd/internal/core"
	"arbd/internal/metrics"
	"arbd/internal/obs"
	"arbd/internal/wire"
)

// Streaming defaults. A zero Subscribe field takes these; hard bounds keep
// a hostile subscription from ticking at MHz rates or queueing gigabytes.
const (
	defaultPushInterval = 33 * time.Millisecond // ≈30 Hz
	minPushInterval     = time.Millisecond
	defaultPushBudget   = 8
	maxPushBudget       = 1024
	// keyframeEvery bounds how many delta pushes a stream sends between
	// full keyframes: even a loss-free client re-syncs at worst 64 pushes
	// after a corrupt base, and a freshly joined observer of a long-lived
	// stream waits at most ~2s at 30 Hz for a decodable frame.
	keyframeEvery = 64
)

// pushInterval clamps a wire-requested cadence to the server's bounds.
func pushInterval(s wire.Subscribe) time.Duration {
	if s.IntervalMS == 0 {
		return defaultPushInterval
	}
	iv := time.Duration(s.IntervalMS) * time.Millisecond
	if iv < minPushInterval {
		iv = minPushInterval
	}
	return iv
}

// pushBudget clamps a wire-requested outbox budget.
func pushBudget(s wire.Subscribe) int {
	if s.Budget == 0 {
		return defaultPushBudget
	}
	if s.Budget > maxPushBudget {
		return maxPushBudget
	}
	return int(s.Budget)
}

// outMsg is one queued push: an envelope whose payload may alias a pooled
// encode buffer, released after the write (or on drop).
type outMsg struct {
	env wire.Envelope
	// buf is the pooled buffer backing env.Payload; it returns to pool
	// when the message leaves the outbox. A (buf, pool) pair instead of a
	// per-push closure: enqueue runs once per pushed frame, and binding a
	// closure there is a heap allocation the hot path must not pay.
	buf  *wire.Buffer
	pool *sync.Pool
	// flight is the frame's flight-recorder handle; it rides the outbox with
	// the payload so the write loop can close the trace at write completion.
	// Any path that releases the message without writing it settles the
	// flight as dropped.
	flight *obs.Flight
	// release is an optional cleanup hook for non-pooled payloads (tests).
	release func()
}

// releaseBuf settles the message's payload ownership: pooled buffers go
// back to their pool, then any hook runs. A flight still attached here was
// never written — drop-oldest, purge, drain, or enqueue-after-close — and
// is recorded as dropped.
//
//arbd:hotpath
func (m *outMsg) releaseBuf() {
	if m.flight != nil {
		m.flight.FinishDropped()
		m.flight = nil
	}
	if m.pool != nil && m.buf != nil {
		m.pool.Put(m.buf)
	}
	if m.release != nil {
		m.release()
	}
}

// outbox is the per-connection push queue: enqueue never blocks, a writer
// goroutine drains to the connection through the shared lockedWriter (so
// pushes and request/reply traffic interleave at envelope granularity),
// and when the queue is full the oldest push is dropped. It exists so that
// scheduler workers — which enqueue from frame callbacks — are never
// coupled to a client's read speed. Each writer wakeup drains the whole
// backlog into a single vectored write: a burst of pushes costs one
// syscall, not one per message.
type outbox struct {
	w       *lockedWriter
	dropped *metrics.Counter
	// onDrop, when set, is told the session whose oldest push was just
	// dropped under backpressure. Delta streams use it to key their next
	// push: the client never saw the dropped seq, so the next diff would
	// apply against a base the client doesn't hold.
	onDrop func(session uint64)

	mu      sync.Mutex
	q       []outMsg // FIFO; live entries are q[head:]
	head    int      // index of the oldest entry: pops are O(1), not a memmove
	cap     int
	reserve int // sum of live streams' budgets (addReserve); capacity floor
	closed  bool
	wake    chan struct{} // 1-buffered: writer nudge

	done chan struct{} // closed when the writer goroutine exits
}

// queueLenLocked returns the number of queued pushes; callers hold mu.
func (ob *outbox) queueLenLocked() int { return len(ob.q) - ob.head }

// popLocked removes and returns the oldest push; callers hold mu and have
// checked the queue is non-empty. The vacated slot is zeroed so the
// release closure isn't retained.
//
//arbd:hotpath
func (ob *outbox) popLocked() outMsg {
	msg := ob.q[ob.head]
	ob.q[ob.head] = outMsg{}
	ob.head++
	if ob.head == len(ob.q) {
		ob.q = ob.q[:0]
		ob.head = 0
	}
	return msg
}

// pushLocked appends one push, compacting the consumed prefix only when
// append would otherwise grow the array — amortised O(1).
//
//arbd:hotpath
func (ob *outbox) pushLocked(msg outMsg) {
	if ob.head > 0 && len(ob.q) == cap(ob.q) {
		n := copy(ob.q, ob.q[ob.head:])
		for i := n; i < len(ob.q); i++ {
			ob.q[i] = outMsg{}
		}
		ob.q = ob.q[:n]
		ob.head = 0
	}
	ob.q = append(ob.q, msg)
}

// newOutbox starts the writer goroutine. capacity is the drop-oldest
// bound; onDrop (optional) observes backpressure drops per session.
func newOutbox(w *lockedWriter, capacity int, dropped *metrics.Counter, onDrop func(session uint64)) *outbox {
	if capacity < 1 {
		capacity = 1
	}
	ob := &outbox{
		w:       w,
		dropped: dropped,
		onDrop:  onDrop,
		cap:     capacity,
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	go ob.writeLoop()
	return ob
}

// grow raises the outbox capacity (never shrinks below an earlier
// subscription's budget — connections multiplexing several streams keep
// the largest requested bound).
func (ob *outbox) grow(capacity int) {
	ob.mu.Lock()
	if capacity > ob.cap {
		ob.cap = capacity
	}
	ob.mu.Unlock()
}

// addReserve adjusts the capacity floor contributed by live streams
// (negative on stream stop). A connection multiplexing many streams — a
// shard's router link — needs room for the SUM of its streams' budgets:
// the shared wheel fires same-cadence streams in the same bucket, and a
// queue sized to the largest single budget would shed most of every
// synchronized burst, starving whichever streams enqueue earliest.
func (ob *outbox) addReserve(n int) {
	ob.mu.Lock()
	ob.reserve += n
	ob.mu.Unlock()
}

// capLocked is the effective drop-oldest bound; callers hold mu.
func (ob *outbox) capLocked() int {
	if ob.reserve > ob.cap {
		return ob.reserve
	}
	return ob.cap
}

// enqueue queues one push, dropping the oldest queued push when full.
// Safe from any goroutine; never blocks. After close it releases msg
// immediately and reports false.
//
//arbd:hotpath
func (ob *outbox) enqueue(msg outMsg) bool {
	ob.mu.Lock()
	if ob.closed {
		ob.mu.Unlock()
		msg.releaseBuf()
		return false
	}
	var droppedSession uint64
	droppedOne := false
	if ob.queueLenLocked() >= ob.capLocked() {
		old := ob.popLocked()
		if ob.dropped != nil {
			ob.dropped.Inc()
		}
		old.releaseBuf()
		droppedSession, droppedOne = old.env.Session, true
	}
	wasEmpty := ob.queueLenLocked() == 0
	ob.pushLocked(msg)
	ob.mu.Unlock()
	if droppedOne && ob.onDrop != nil {
		ob.onDrop(droppedSession)
	}
	// The writer only parks on an empty queue, so only the empty→nonempty
	// transition needs a nudge: a burst of enqueues costs one wakeup.
	if wasEmpty {
		select {
		case ob.wake <- struct{}{}:
		default:
		}
	}
	return true
}

//arbd:hotpath
func (ob *outbox) writeLoop() {
	defer close(ob.done)
	// Presized once per connection writer, reused across every drain;
	// growth past the floor amortises against the connection's lifetime.
	//arbd:alloc-ok one-time per-connection setup
	batch := make([]outMsg, 0, defaultPushBudget)
	for {
		ob.mu.Lock()
		n := ob.queueLenLocked()
		if n == 0 {
			closed := ob.closed
			ob.mu.Unlock()
			if closed {
				return
			}
			<-ob.wake
			continue
		}
		// Drain the whole backlog under one lock hold and write it as one
		// batch: everything queued since the last write goes out in a
		// single writev instead of one write+flush per message.
		batch = batch[:0]
		for i := 0; i < n; i++ {
			batch = append(batch, ob.popLocked())
		}
		ob.mu.Unlock()
		// One timestamp pair bounds the whole batch: outbox wait ends and the
		// vectored write begins for every message at writeStart, and the
		// write's cost lands on each flight at end.
		writeStart := time.Now()
		for i := range batch {
			if fl := batch[i].flight; fl != nil {
				fl.MarkAt(obs.StageOutbox, writeStart)
			}
		}
		err := ob.w.writeBatch(batch)
		end := time.Now()
		for i := range batch {
			if fl := batch[i].flight; fl != nil {
				if err == nil {
					fl.MarkAt(obs.StageWrite, end)
					fl.FinishAt(end)
				} else {
					fl.FinishDropped()
				}
				batch[i].flight = nil
			}
			batch[i].releaseBuf()
			batch[i] = outMsg{}
		}
		if err != nil {
			// Connection dead: the conn's read loop will tear everything
			// down. Keep draining so enqueuers can release buffers.
			ob.drain()
			return
		}
	}
}

// purge drops every queued push for one session, releasing their buffers.
// Session migration uses it after stopping the session's stream: pushes
// already queued behind other sessions' traffic must not trail onto the
// wire after the export reply that hands the session away.
func (ob *outbox) purge(session uint64) {
	ob.mu.Lock()
	var dropped []outMsg
	w := ob.head
	for i := ob.head; i < len(ob.q); i++ {
		if ob.q[i].env.Session == session {
			dropped = append(dropped, ob.q[i])
			continue
		}
		ob.q[w] = ob.q[i]
		w++
	}
	for i := w; i < len(ob.q); i++ {
		ob.q[i] = outMsg{}
	}
	ob.q = ob.q[:w]
	ob.mu.Unlock()
	for _, m := range dropped {
		m.releaseBuf()
	}
}

// drain marks the outbox closed and releases everything queued.
func (ob *outbox) drain() {
	ob.mu.Lock()
	ob.closed = true
	q := ob.q[ob.head:]
	ob.q = nil
	ob.head = 0
	ob.mu.Unlock()
	for _, m := range q {
		m.releaseBuf()
	}
	select {
	case ob.wake <- struct{}{}:
	default:
	}
}

// close stops the writer after the queue empties naturally (or immediately
// when the writer already died) and releases anything still queued.
func (ob *outbox) close() {
	ob.drain()
	<-ob.done
}

// Pacing-wheel geometry: 500µs buckets over 1024 slots give a ~512ms
// horizon per revolution; longer intervals ride the per-entry rounds
// counter. The granularity sits well under the 1ms minimum push interval,
// so quantisation error stays a fraction of the tightest cadence.
const (
	wheelTick  = 500 * time.Microsecond
	wheelSlots = 1024
)

// wheelEntry is one armed tick: the stream to fire and how many more full
// revolutions must pass first.
type wheelEntry struct {
	st     *frameStream
	rounds int
}

// pacerWheel is the engine's shared pacing clock: a hashed timing wheel
// walked by a single goroutine, replacing the goroutine-plus-timer every
// subscription used to own. 512 streams previously meant 512 independent
// pacer wakeups per interval; the wheel batches every stream due in the
// same 500µs bucket into one wakeup, and the engine's pacer-goroutine
// count stays O(1) regardless of subscription count (the
// server.stream.pacers gauge, which E19 asserts on). Streams are armed
// one tick at a time — relative pacing, as before: each tick schedules
// the next relative to when it actually ran, so a late tick stretches the
// gap instead of snapping back and pairing over/under gaps.
type pacerWheel struct {
	mu     sync.Mutex
	slots  [][]wheelEntry
	cur    int       // slot the walk last visited
	base   time.Time // wall time of slot cur's tick
	armed  int       // live entries across all slots
	parked bool      // goroutine is waiting on wake, no timer armed
	nextAt time.Time // deadline the goroutine's timer is armed for
	fired  []*frameStream

	wake     chan struct{} // 1-buffered: earlier-deadline (or unpark) nudge
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	gauge    *metrics.Gauge // server.stream.pacers: 1 while running
}

func newPacerWheel(gauge *metrics.Gauge) *pacerWheel {
	w := &pacerWheel{
		slots: make([][]wheelEntry, wheelSlots),
		base:  time.Now(),
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		gauge: gauge,
	}
	go w.run()
	return w
}

func (w *pacerWheel) close() {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
}

// schedule arms one tick for st, delay from now. Ticks round up to the
// wheel granularity — a stream never fires early, preserving the "at the
// requested rate or slower, never faster" cadence contract.
//
//arbd:hotpath
func (w *pacerWheel) schedule(st *frameStream, delay time.Duration) {
	if delay < wheelTick {
		delay = wheelTick
	}
	w.mu.Lock()
	now := time.Now()
	if w.armed == 0 {
		// Nothing in flight: base may be stale from an idle stretch.
		w.base = now
	}
	target := now.Add(delay)
	ticks := int((target.Sub(w.base) + wheelTick - 1) / wheelTick)
	if ticks < 1 {
		ticks = 1
	}
	idx := (w.cur + ticks) % wheelSlots
	w.slots[idx] = append(w.slots[idx], wheelEntry{st: st, rounds: (ticks - 1) / wheelSlots})
	w.armed++
	// Nudge the walker only when this entry beats its armed deadline (or
	// it is parked): the common case — a stream rescheduling its next
	// interval — re-arms behind already-armed work and costs nothing.
	nudge := w.parked || target.Before(w.nextAt)
	w.mu.Unlock()
	if nudge {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

func (w *pacerWheel) run() {
	defer close(w.done)
	if w.gauge != nil {
		w.gauge.Set(1)
		defer w.gauge.Set(0)
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		now := time.Now()
		for _, st := range w.advance(now) {
			st.tick(now)
		}
		w.mu.Lock()
		d, any := w.nextDelayLocked(time.Now())
		w.parked = !any
		if any {
			w.nextAt = time.Now().Add(d)
		}
		w.mu.Unlock()
		if !any {
			select {
			case <-w.stop:
				return
			case <-w.wake:
			}
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(d)
		select {
		case <-w.stop:
			return
		case <-w.wake:
		case <-timer.C:
		}
	}
}

// advance walks the wheel up to now, collecting every due stream. Entries
// with rounds left are decremented in place and kept for a later pass.
//
//arbd:hotpath
func (w *pacerWheel) advance(now time.Time) []*frameStream {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.fired = w.fired[:0]
	if w.armed == 0 {
		w.base = now
		return nil
	}
	steps := int(now.Sub(w.base) / wheelTick)
	// Bound one sweep; after a clock jump the remainder is caught up by
	// the next loop iteration instead of spinning here.
	if steps > 4*wheelSlots {
		steps = 4 * wheelSlots
	}
	for s := 0; s < steps; s++ {
		w.base = w.base.Add(wheelTick)
		w.cur++
		if w.cur == wheelSlots {
			w.cur = 0
		}
		slot := w.slots[w.cur]
		if len(slot) == 0 {
			continue
		}
		keep := slot[:0]
		for i := range slot {
			if slot[i].rounds > 0 {
				slot[i].rounds--
				keep = append(keep, slot[i])
				continue
			}
			w.fired = append(w.fired, slot[i].st)
			w.armed--
		}
		for i := len(keep); i < len(slot); i++ {
			slot[i] = wheelEntry{} // don't retain stream pointers
		}
		w.slots[w.cur] = keep
		if w.armed == 0 {
			w.base = now
			break
		}
	}
	return w.fired
}

// nextDelayLocked returns how long until the nearest due slot; callers
// hold mu. With only rounds-bearing entries left, one full revolution is
// the answer (their rounds tick down as the walk passes them).
func (w *pacerWheel) nextDelayLocked(now time.Time) (time.Duration, bool) {
	if w.armed == 0 {
		return 0, false
	}
	for k := 1; k <= wheelSlots; k++ {
		i := w.cur + k
		if i >= wheelSlots {
			i -= wheelSlots
		}
		for j := range w.slots[i] {
			if w.slots[i][j].rounds == 0 {
				d := w.base.Add(time.Duration(k) * wheelTick).Sub(now)
				if d < 0 {
					d = 0
				}
				return d, true
			}
		}
	}
	return wheelSlots * wheelTick, true
}

// frameStream is one active subscription, paced by the engine's shared
// wheel. At most one frame is in flight per stream — a tick that fires
// while the previous frame is still rendering (or queued) marks the
// stream awaiting instead of piling up jobs, and the frame's completion
// submits the owed tick immediately. That keeps the degraded stream
// completion-paced, exactly as the old blocking-token pacer did: under
// load gaps stretch smoothly with render time rather than snapping to
// interval multiples.
type frameStream struct {
	eng      *Engine
	sess     *core.Session
	session  uint64 // wire session ID (equals sess.ID today; kept explicit)
	interval time.Duration
	out      *outbox
	budget   int  // outbox slots reserved for this stream (released on stop)
	delta    bool // v4 subscriber: push MsgFrameDelta instead of MsgFramePush

	pushes, skipped, sheds, renderErrs, keyframes *metrics.Counter

	// forceKey schedules a keyframe for the next push: set by client acks
	// requesting resync, and by the outbox when it drops one of this
	// session's pushes (the client never saw that seq, so the next diff
	// would be against a base it doesn't hold).
	forceKey atomic.Bool
	ackedSeq atomic.Uint64 // highest client-acked push seq (observability)

	mu       sync.Mutex
	stopped  bool
	inFlight bool      // the single submission token
	awaiting bool      // a tick fired while in flight; owed on completion
	awaitAt  time.Time // when the owed tick fired
	jobs     sync.WaitGroup

	// pushSeq is written only inside visit callbacks (ordered by the
	// in-flight token) but read unsynchronised by stream summaries.
	pushSeq   atomic.Uint64
	lastIndex uint64 // core frame index of the last pushed frame
	sinceKey  int    // delta pushes since the last keyframe

	// reply, pooled, and fl stage the in-flight frame between the tick,
	// visit, and done callbacks; the single in-flight token orders access
	// (at most one frame of this stream is ever inside the scheduler).
	// visitFn/doneFn are bound once at startStream so submit hands the
	// scheduler the same two values every frame instead of allocating fresh
	// closures.
	reply   wire.Envelope
	pooled  *wire.Buffer
	fl      *obs.Flight
	visitFn func(*core.Frame)
	doneFn  func(error)
}

// startStream begins pushing frames for sess on out at the subscription's
// cadence. delta selects MsgFrameDelta encoding (the caller has verified
// the subscriber negotiated protocol v4 and asked for it). The caller owns
// the stream and must stopStream it when the subscription ends or the
// connection dies.
func (e *Engine) startStream(sess *core.Session, sub wire.Subscribe, out *outbox, delta bool) *frameStream {
	reg := e.sched.Metrics()
	st := &frameStream{
		eng:        e,
		sess:       sess,
		session:    sess.ID,
		interval:   pushInterval(sub),
		out:        out,
		budget:     pushBudget(sub),
		delta:      delta,
		pushes:     reg.Counter("server.stream.pushes"),
		skipped:    reg.Counter("server.stream.skipped"),
		sheds:      reg.Counter("server.stream.shed"),
		renderErrs: reg.Counter("server.stream.render_errors"),
		keyframes:  reg.Counter("server.stream.keyframes"),
	}
	st.visitFn, st.doneFn = st.visit, st.done
	out.addReserve(st.budget)
	e.registerStream(st)
	e.wheel.schedule(st, st.interval)
	return st
}

// stopStream halts pacing and waits for any frame still in the scheduler,
// so the caller may safely end the session afterwards. The last frame's
// push lands in the outbox (or is released if the outbox has closed). A
// wheel entry still armed for the stream fires as a no-op and is not
// waited for.
func (st *frameStream) stopStream() {
	st.mu.Lock()
	already := st.stopped
	st.stopped = true
	st.mu.Unlock()
	if !already {
		st.out.addReserve(-st.budget)
		st.eng.unregisterStream(st)
	}
	st.jobs.Wait()
}

// ack applies a client frame-ack: record progress, force a keyframe when
// the client says its delta base is gone.
func (st *frameStream) ack(a wire.FrameAck) {
	st.ackedSeq.Store(a.AppliedSeq)
	if a.WantKeyframe {
		st.forceKey.Store(true)
	}
}

// tick is the wheel's fire callback: submit a frame if the stream is
// idle, otherwise mark the tick owed (cadence degradation). Runs on the
// wheel goroutine — everything here is non-blocking.
//
//arbd:hotpath
func (st *frameStream) tick(now time.Time) {
	st.mu.Lock()
	if st.stopped {
		st.mu.Unlock()
		return
	}
	if st.inFlight {
		// Previous frame still queued or rendering: degrade cadence rather
		// than pile up jobs the scheduler would shed anyway. The owed tick
		// is submitted the moment the frame completes — completion pacing.
		if !st.awaiting {
			st.awaiting = true
			st.awaitAt = now
			st.skipped.Inc()
		}
		st.mu.Unlock()
		return
	}
	st.inFlight = true
	st.jobs.Add(1)
	st.mu.Unlock()
	// The flight opens at the tick: admission is the gap between the wheel
	// firing and the scheduler accepting the job.
	st.fl = st.eng.rec.Begin(st.session, now)
	st.submit()
	st.scheduleNext(now)
}

// scheduleNext arms the next wheel tick relative to when the previous one
// actually ran, clamped to the minimum interval.
func (st *frameStream) scheduleNext(tickAt time.Time) {
	d := st.interval - time.Since(tickAt)
	if d < minPushInterval {
		d = minPushInterval
	}
	st.eng.wheel.schedule(st, d)
}

// visit encodes one frame into the stream's staged reply. It runs under
// the session lock — the scratch-backed frame cannot be clobbered by a
// concurrent Frame call mid-encode — and only while this stream holds its
// in-flight token, which is what makes the staging fields safe.
//
//arbd:hotpath
func (st *frameStream) visit(f *core.Frame) {
	seq := st.pushSeq.Add(1)
	t, key := wire.MsgFramePush, false
	if st.delta {
		// Keyframe on the first push, on request (ack resync, outbox
		// drop), every Nth push, and whenever the session rendered for
		// someone else in between — f.PrevAnnotations is then not the
		// frame this stream last pushed, so a diff would corrupt.
		t = wire.MsgFrameDelta
		key = st.forceKey.Swap(false) || seq == 1 ||
			st.sinceKey >= keyframeEvery-1 || f.Index != st.lastIndex+1
		if key {
			st.sinceKey = 0
			st.keyframes.Inc()
		} else {
			st.sinceKey++
		}
	}
	st.pooled = st.eng.encodeFrame(st.fl, &st.reply, t, st.session, seq, f, key)
	st.lastIndex = f.Index
}

// done settles one frame job: a successful render's staged reply moves to
// the outbox (buffer ownership travels with it), sheds and render errors
// only count. Runs on a scheduler worker, still under the in-flight token.
//
//arbd:hotpath
func (st *frameStream) done(err error) {
	if err == nil {
		st.pushes.Inc()
		// The flight travels with the push; the outbox write loop closes it
		// at write completion (or as dropped if the push never writes).
		st.out.enqueue(outMsg{env: st.reply, buf: st.pooled, pool: &st.eng.bufs, flight: st.fl})
		st.pooled = nil
	} else if settleUnsent(st.fl, err) {
		st.sheds.Inc()
	} else {
		// Render errors (no pose yet, session ended) are not pushed: an
		// AR stream with nothing to show stays silent until the
		// device's sensors give it something. Counted so a persistently
		// failing stream is visible in metrics.
		st.renderErrs.Inc()
	}
	st.fl = nil
	st.complete()
}

// settleUnsent closes the flight of a frame that produced nothing to send
// and reports how: shed by the scheduler (or by its closing), or a render
// error.
//
//arbd:hotpath
func settleUnsent(fl *obs.Flight, err error) (shed bool) {
	if errors.Is(err, ErrFrameShed) || errors.Is(err, ErrSchedulerClosed) {
		fl.FinishShed()
		return true
	}
	fl.FinishError()
	return false
}

// submit hands one frame job to the scheduler. The caller holds the
// in-flight token and has bumped jobs; both are settled by complete (or
// here, when the scheduler rejects the job synchronously).
//
//arbd:hotpath
func (st *frameStream) submit() {
	err := st.eng.sched.QueueVisit(st.sess, st.visitFn, st.doneFn)
	if err != nil {
		// Scheduler closed (QueueVisit admits everything else): the server
		// is going down; stop pacing. done will not fire for this job.
		st.fl.FinishError()
		st.fl = nil
		st.mu.Lock()
		st.stopped = true
		st.inFlight = false
		st.awaiting = false
		st.mu.Unlock()
		st.jobs.Done()
	}
}

// complete returns the in-flight token after a frame job settled. A tick
// that fired while the frame was in flight is owed: the next frame is
// submitted immediately and the following tick is scheduled relative to
// the starved tick, matching the old token-blocking pacer's behaviour.
//
//arbd:hotpath
func (st *frameStream) complete() {
	st.mu.Lock()
	if st.awaiting && !st.stopped {
		tickAt := st.awaitAt
		st.awaiting = false
		st.jobs.Add(1) // the owed job, added before this one's Done
		st.mu.Unlock()
		// The owed frame's flight opens at the starved tick, so its
		// admission span is the full completion-pacing wait.
		st.fl = st.eng.rec.Begin(st.session, tickAt)
		st.submit()
		st.scheduleNext(tickAt)
		st.jobs.Done()
		return
	}
	st.awaiting = false
	st.inFlight = false
	st.mu.Unlock()
	st.jobs.Done()
}

// streamSet tracks the live subscriptions on one connection, keyed by wire
// session ID (the standalone server has exactly one; a shard's backend
// connection multiplexes many).
type streamSet struct {
	mu      sync.Mutex
	streams map[uint64]*frameStream
}

// add registers a stream for the session, replacing (and stopping) any
// existing one — a re-subscribe is "change my cadence", not an error.
func (ss *streamSet) add(session uint64, st *frameStream) {
	ss.mu.Lock()
	if ss.streams == nil {
		ss.streams = make(map[uint64]*frameStream)
	}
	prev := ss.streams[session]
	ss.streams[session] = st
	ss.mu.Unlock()
	if prev != nil {
		prev.stopStream()
	}
}

// get returns the session's live stream, if any.
func (ss *streamSet) get(session uint64) *frameStream {
	ss.mu.Lock()
	st := ss.streams[session]
	ss.mu.Unlock()
	return st
}

// ack routes a client frame-ack to the session's live stream. Acks are
// fire-and-forget and race teardown, so a missing stream is a no-op.
func (ss *streamSet) ack(session uint64, a wire.FrameAck) {
	if st := ss.get(session); st != nil {
		st.ack(a)
	}
}

// forceKeyframe keys the session's next push (outbox-drop self-heal).
func (ss *streamSet) forceKeyframe(session uint64) {
	if st := ss.get(session); st != nil && st.delta {
		st.forceKey.Store(true)
	}
}

// remove stops and forgets the session's stream, reporting whether one
// existed.
func (ss *streamSet) remove(session uint64) bool {
	ss.mu.Lock()
	st := ss.streams[session]
	delete(ss.streams, session)
	ss.mu.Unlock()
	if st == nil {
		return false
	}
	st.stopStream()
	return true
}

// stopAll stops every stream (connection teardown).
func (ss *streamSet) stopAll() {
	ss.mu.Lock()
	streams := ss.streams
	ss.streams = nil
	ss.mu.Unlock()
	for _, st := range streams {
		st.stopStream()
	}
}

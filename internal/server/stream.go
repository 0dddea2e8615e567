// Frame delivery and subscription streaming. Everything a connection is
// sent after its handshake — polled replies, pushed frames, acks, errors,
// migrate replies, load reports, a router's forwards — is enqueued on the
// connection's outbox, whose writer goroutine is the connection's only
// writer and coalesces each wakeup's backlog into one write; a delivery
// stages a rendered frame between the scheduler worker and that enqueue,
// for polls and streams alike. A subscribing client hands the
// frame clock to the server: the engine's shared pacer drives frames
// through the FrameScheduler, each encoded under the session lock via the
// pooled encode path (a full MsgFramePush, or a MsgFrameDelta diff for v4
// subscribers). Load degrades cadence before it sheds: a tick that fires
// while the previous frame is still in flight is skipped outright.
package server

import (
	"errors"
	"io"
	"math"
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

// outMsg is one queued message: an envelope whose payload may alias a pooled
// encode buffer, released after the write (or on drop).
type outMsg struct {
	env wire.Envelope
	// reply selects the class. A push (false) is subject to the drop-oldest
	// capacity; a reply (true) is never dropped and never counted against
	// it — replies are bounded by replyWindow instead.
	reply bool
	// buf is the pooled buffer backing env.Payload; it returns to pool
	// when the message leaves the outbox. A (buf, pool) pair instead of a
	// per-message closure: enqueue runs once per delivered frame, and binding
	// a closure there is a heap allocation the hot path must not pay.
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

// outbox is a connection's write side: an accepted connection's, or a
// router's backend connection's. Once the handshake is over its writer
// goroutine is the only goroutine that writes to the connection: read
// loops, scheduler workers, shard readers and load tickers all enqueue,
// enqueue never blocks, and wire order is queue order. It exists so that no
// goroutine shared between peers — a scheduler worker, a router's shard
// reader or client read loop — is ever coupled to one peer's read speed.
// Each writer wakeup drains the whole backlog into a single write: a burst
// costs one syscall, not one per message.
//
// The queue carries two classes. Pushes (streamed frames, load reports,
// stream obituaries) are bounded by dropping the oldest queued push when
// the capacity is reached. Replies (and forwards) are never dropped; they
// are bounded because the read loop producing them calls awaitReplies
// before taking each envelope and parks while replyWindow of them are owed
// (unwritten, or expected: not queued yet) — a peer that does not read
// stalls itself through TCP, and nothing else.
type outbox struct {
	w     io.Writer          // the connection
	batch wire.EnvelopeBatch // writer goroutine only
	// onDrop, when set, is told each push dropped under backpressure. Delta
	// streams use it to key their next push: the client never saw the
	// dropped seq, so the next diff would apply against a base the client
	// doesn't hold.
	onDrop func(t wire.MsgType, session uint64)

	mu      sync.Mutex
	q       []outMsg // FIFO; live entries are q[head:]
	head    int      // index of the oldest entry: pops are O(1), not a memmove
	pushes  int      // queued push-class entries: what the capacity bounds
	replies int      // reply-class entries queued or being written, plus expected ones
	cap     int
	reserve int       // sum of live streams' budgets (addReserve); capacity floor
	room    sync.Cond // on mu: replies fell, or the outbox closed; read loops wait
	closed  bool
	wake    chan struct{} // 1-buffered: writer nudge

	done chan struct{} // closed when the writer goroutine exits
}

// queueLenLocked returns the number of queued messages; callers hold mu.
func (ob *outbox) queueLenLocked() int { return len(ob.q) - ob.head }

// popLocked removes and returns the oldest message; callers hold mu and
// have checked the queue is non-empty. The vacated slot is zeroed so the
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

// dropOldestPushLocked removes and returns the oldest queued push; callers
// hold mu and have checked pushes > 0. Replies queued ahead of it keep their
// order: they shift back one slot (at most replyWindow of them, and none on
// a connection that only streams).
//
//arbd:hotpath
func (ob *outbox) dropOldestPushLocked() outMsg {
	i := ob.head
	for ob.q[i].reply {
		i++
	}
	old := ob.q[i]
	copy(ob.q[ob.head+1:i+1], ob.q[ob.head:i])
	ob.q[ob.head] = old
	return ob.popLocked()
}

// pushLocked appends one message, compacting the consumed prefix only when
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

// newOutbox starts the writer goroutine over a connection whose handshake
// is done. capacity is the drop-oldest bound on pushes; onDrop (optional)
// observes each backpressure drop.
func newOutbox(w io.Writer, capacity int, onDrop func(t wire.MsgType, session uint64)) *outbox {
	if capacity < 1 {
		capacity = 1
	}
	ob := &outbox{
		w:      w,
		onDrop: onDrop,
		cap:    capacity,
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	ob.room.L = &ob.mu
	go ob.writeLoop()
	return ob
}

// grow raises the push capacity (never shrinks below an earlier
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
// the shared pacer fires same-cadence streams in the same grain, and a
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

// enqueue queues one message; a push that finds the push capacity reached
// drops the oldest queued push first. Safe from any goroutine; never
// blocks. After close it releases msg immediately and reports false.
//
//arbd:hotpath
func (ob *outbox) enqueue(msg outMsg) bool {
	ob.mu.Lock()
	if ob.closed {
		ob.mu.Unlock()
		msg.releaseBuf()
		return false
	}
	var dropped wire.Envelope
	droppedOne := false
	switch {
	case msg.reply:
		ob.replies++
	case ob.pushes >= ob.capLocked():
		old := ob.dropOldestPushLocked()
		old.releaseBuf()
		dropped, droppedOne = old.env, true
	default:
		ob.pushes++
	}
	wasEmpty := ob.queueLenLocked() == 0
	ob.pushLocked(msg)
	ob.mu.Unlock()
	if droppedOne && ob.onDrop != nil {
		ob.onDrop(dropped.Type, dropped.Session)
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

// ack queues the empty reply to the request envelope in.
func (ob *outbox) ack(in *wire.Envelope) {
	ob.enqueue(outMsg{env: wire.Envelope{Type: wire.MsgAck, Seq: in.Seq, Session: in.Session}, reply: true})
}

// fail queues an error reply to the request (session, seq).
func (ob *outbox) fail(session, seq uint64, text string) {
	ob.enqueue(outMsg{env: wire.Envelope{Type: wire.MsgError, Seq: seq, Session: session, Payload: []byte(text)}, reply: true})
}

// expect counts n replies owed to the connection but not queued yet, or
// settles them (n < 0) once they are: a node expects each polled frame from
// the request's read, a router each reply a shard owes its client, so the
// read loop parks on its queued and owed replies together.
func (ob *outbox) expect(n int) {
	ob.mu.Lock()
	ob.replies += n
	ob.room.Broadcast()
	ob.mu.Unlock()
}

// awaitReplies parks the caller until at most n replies are unwritten (or
// expected), or the outbox has closed. A connection's read loop calls it
// with replyWindow-1 before taking each envelope, which is what bounds the
// reply class; a loop about to hang up on its peer calls it with 0 so its
// last words reach the wire before the connection closes.
func (ob *outbox) awaitReplies(n int) {
	ob.mu.Lock()
	for ob.replies > n && !ob.closed {
		ob.room.Wait()
	}
	ob.mu.Unlock()
}

//arbd:hotpath
func (ob *outbox) writeLoop() {
	defer close(ob.done)
	// Presized once per connection writer, reused across every drain;
	// growth past the floor amortises against the connection's lifetime.
	//arbd:alloc-ok one-time per-connection setup
	batch := make([]outMsg, 0, defaultPushBudget)
	written := 0 // replies in the batch just written
	for {
		ob.mu.Lock()
		if written > 0 {
			ob.replies -= written
			written = 0
			ob.room.Broadcast()
		}
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
		// single write instead of one per message.
		batch = batch[:0]
		for i := 0; i < n; i++ {
			batch = append(batch, ob.popLocked())
		}
		ob.pushes = 0
		ob.mu.Unlock()
		// One timestamp pair bounds the whole batch: outbox wait ends and the
		// write begins for every message at writeStart, and the write's cost
		// lands on each flight at end.
		writeStart := time.Now()
		for i := range batch {
			if fl := batch[i].flight; fl != nil {
				fl.MarkAt(obs.StageOutbox, writeStart)
			}
		}
		err := ob.writeBatch(batch)
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
			if batch[i].reply {
				written++
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

// writeBatch frames a drained backlog and writes it straight to the
// connection — one syscall for the whole batch.
//
//arbd:hotpath
func (ob *outbox) writeBatch(msgs []outMsg) error {
	ob.batch.Reset()
	for i := range msgs {
		if err := ob.batch.Add(&msgs[i].env); err != nil {
			return err
		}
	}
	_, err := ob.w.Write(ob.batch.Bytes())
	return err
}

// purge drops every queued push for one session, releasing their buffers.
// Session migration uses it after stopping the session's stream: pushes
// already queued behind other sessions' traffic must not trail onto the
// wire after the export reply that hands the session away — which, queued
// after the purge, follows whatever the writer already took. Replies owed
// to the session stay.
func (ob *outbox) purge(session uint64) {
	ob.mu.Lock()
	var dropped []outMsg
	w := ob.head
	for i := ob.head; i < len(ob.q); i++ {
		if !ob.q[i].reply && ob.q[i].env.Session == session {
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
	ob.pushes -= len(dropped)
	ob.mu.Unlock()
	for _, m := range dropped {
		m.releaseBuf()
	}
}

// drain marks the outbox closed, releases everything queued and frees a
// parked read loop.
func (ob *outbox) drain() {
	ob.mu.Lock()
	ob.closed = true
	q := ob.q[ob.head:]
	ob.q = nil
	ob.head = 0
	ob.room.Broadcast()
	ob.mu.Unlock()
	for _, m := range q {
		m.releaseBuf()
	}
	select {
	case ob.wake <- struct{}{}:
	default:
	}
}

// close stops the writer (the caller has closed the connection, so a write
// in progress fails out) and releases anything still queued.
func (ob *outbox) close() {
	ob.drain()
	<-ob.done
}

// pacerGrain is the pacer's quantum: a due time is rounded up to the next
// multiple, so a stream never fires early and streams due within one grain
// fire in one wakeup. It sits well under the 1ms minimum push interval, so
// quantisation error stays a fraction of the tightest cadence.
const pacerGrain = int64(500 * time.Microsecond)

// pacerTick is one armed tick; at is in nanoseconds since the pacer's epoch.
type pacerTick struct {
	at int64
	st *frameStream
}

// pacer is the engine's shared pacing clock: a min-heap of armed ticks,
// walked by one goroutine on one timer, in place of the goroutine-plus-timer
// every subscription used to own. Streams due in the same grain fire in one
// wakeup, and the engine's pacer-goroutine count stays O(1) regardless of
// subscription count (the server.stream.pacers gauge, which
// TestSubscribePacersShareOnePacer asserts on). Streams are armed one tick
// at a time — relative pacing: each tick schedules the next relative to
// when it actually ran, so a late tick stretches the gap instead of
// snapping back and pairing over/under gaps.
type pacer struct {
	epoch time.Time // monotonic zero of every pacerTick.at

	mu    sync.Mutex
	heap  []pacerTick    // min-heap on at
	next  int64          // deadline the goroutine is armed for; MaxInt64 while idle
	fired []*frameStream // due's result, reused: the goroutine's only

	wake     chan struct{} // 1-buffered: earlier-deadline (or unpark) nudge
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	gauge    *metrics.Gauge // server.stream.pacers: 1 while running
}

func newPacer(gauge *metrics.Gauge) *pacer {
	p := &pacer{
		epoch: time.Now(),
		next:  math.MaxInt64,
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		gauge: gauge,
	}
	go p.run()
	return p
}

func (p *pacer) close() {
	p.stopOnce.Do(func() { close(p.stop) })
	<-p.done
}

// schedule arms one tick for st, delay from now, rounded up to the grain —
// a stream never fires early, preserving the "at the requested rate or
// slower, never faster" cadence contract. The heap is sifted by hand:
// container/heap would box every entry through an interface.
//
//arbd:hotpath
func (p *pacer) schedule(st *frameStream, delay time.Duration) {
	at := (int64(time.Since(p.epoch)+delay) + pacerGrain - 1) / pacerGrain * pacerGrain
	p.mu.Lock()
	p.heap = append(p.heap, pacerTick{})
	i := len(p.heap) - 1
	for i > 0 && p.heap[(i-1)/2].at > at {
		p.heap[i] = p.heap[(i-1)/2]
		i = (i - 1) / 2
	}
	p.heap[i] = pacerTick{at: at, st: st}
	// Nudge the goroutine only when this tick beats its armed deadline (or
	// it is idle): the common case — a stream rescheduling its next
	// interval — lands behind already-armed work and costs nothing.
	nudge := at < p.next
	p.mu.Unlock()
	if nudge {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

func (p *pacer) run() {
	defer close(p.done)
	if p.gauge != nil {
		p.gauge.Set(1)
		defer p.gauge.Set(0)
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		now := time.Now()
		for _, st := range p.due(now) {
			st.tick(now)
		}
		// Re-arm to the heap's head; an empty heap arms a timer centuries
		// out, so only a schedule's nudge wakes the goroutine.
		p.mu.Lock()
		p.next = math.MaxInt64
		if len(p.heap) > 0 {
			p.next = p.heap[0].at
		}
		wait := time.Duration(p.next) - time.Since(p.epoch)
		p.mu.Unlock()
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-p.stop:
			return
		case <-p.wake:
		case <-timer.C:
		}
	}
}

// due pops every tick due by now off the heap and returns their streams.
//
//arbd:hotpath
func (p *pacer) due(now time.Time) []*frameStream {
	cutoff := int64(now.Sub(p.epoch))
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fired = p.fired[:0]
	for len(p.heap) > 0 && p.heap[0].at <= cutoff {
		p.fired = append(p.fired, p.heap[0].st)
		n := len(p.heap) - 1
		last := p.heap[n]
		p.heap[n] = pacerTick{} // don't retain the stream
		p.heap = p.heap[:n]
		i := 0
		for c := 1; c < n; c = 2*i + 1 {
			if c+1 < n && p.heap[c+1].at < p.heap[c].at {
				c++
			}
			if last.at <= p.heap[c].at {
				break
			}
			p.heap[i] = p.heap[c]
			i = c
		}
		if n > 0 {
			p.heap[i] = last
		}
	}
	return p.fired
}

// frameStream is one active subscription, paced by the engine's shared
// pacer. At most one frame is in flight per stream — a tick that fires
// while the previous frame is still rendering (or queued) marks the
// stream awaiting instead of piling up jobs, and the frame's completion
// submits the owed tick immediately. That keeps the degraded stream
// completion-paced, exactly as the old blocking-token pacer did: under
// load gaps stretch smoothly with render time rather than snapping to
// interval multiples.
type frameStream struct {
	// d stages the stream's in-flight frame and names its engine, outbox
	// and session; the single in-flight token orders access to it (at most
	// one frame of this stream is ever inside the scheduler).
	d        delivery
	sess     *core.Session
	interval time.Duration
	budget   int  // outbox slots reserved for this stream (released on stop)
	delta    bool // v4 subscriber: push MsgFrameDelta instead of MsgFramePush

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
}

// delivery stages one frame between the scheduler worker that renders it
// and the outbox that writes it: the one path a delivered frame takes,
// polled or pushed. A stream owns one for its lifetime; a polled request
// borrows one from the engine's pool. visit and done run sequentially on
// one worker goroutine, so a delivery needs no lock. visitFn/doneFn are
// bound once, so submitting hands the scheduler the same two values every
// frame instead of allocating fresh closures.
type delivery struct {
	eng *Engine
	out *outbox
	// st is the stream a pushed frame belongs to. nil marks a polled frame:
	// it is a reply, answers (session, seq) even when it fails, and settles
	// its owed reply and its connection's inflight count.
	st           *frameStream
	inflight     *sync.WaitGroup
	session, seq uint64
	reply        wire.Envelope
	pooled       *wire.Buffer
	fl           *obs.Flight
	visitFn      func(*core.Frame)
	doneFn       func(error)
}

func newDelivery() any {
	d := new(delivery)
	d.visitFn, d.doneFn = d.visit, d.done
	return d
}

// visit encodes the rendered frame into the staged reply. It runs under the
// session lock: a client pipelining a second request for the same session —
// or the session's own stream — re-enters the frame on another worker, and
// without the lock that would overwrite the layout the encoder is reading.
//
//arbd:hotpath
func (d *delivery) visit(f *core.Frame) {
	t, key := wire.MsgAnnotations, false
	if d.st != nil {
		d.seq, t, key = d.st.nextPush(f)
	}
	d.pooled = d.eng.encodeFrame(d.fl, &d.reply, t, d.session, d.seq, f, key)
}

// done settles one frame job on the worker that ran it. A rendered frame
// moves to the outbox — buffer and flight travel with it, and the write
// loop closes the flight at write completion (or as dropped if the frame
// never writes). A frame that was shed or failed to render settles its
// flight here; a poll still owes its requester an answer, a stream only
// counts.
//
//arbd:hotpath
func (d *delivery) done(err error) {
	st := d.st
	shed := err != nil && settleUnsent(d.fl, err)
	switch {
	case err == nil:
		if st != nil {
			d.eng.streamPushes.Inc()
		}
		d.out.enqueue(outMsg{env: d.reply, reply: st == nil, buf: d.pooled, pool: &d.eng.bufs, flight: d.fl})
	case st == nil:
		d.out.fail(d.session, d.seq, err.Error())
	case shed:
		d.eng.streamSheds.Inc()
	default:
		// Render errors (no pose yet, session ended) are not pushed: an
		// AR stream with nothing to show stays silent until the
		// device's sensors give it something. Counted so a persistently
		// failing stream is visible in metrics.
		d.eng.streamRenderErrs.Inc()
	}
	if st != nil {
		d.pooled, d.fl = nil, nil
		st.complete()
		return
	}
	// The reply is queued (or the outbox closed): it stops being owed.
	eng, out, inflight := d.eng, d.out, d.inflight
	*d = delivery{visitFn: d.visitFn, doneFn: d.doneFn}
	eng.deliveries.Put(d)
	out.expect(-1)
	inflight.Done()
}

// newStream builds a stream that pushes frames for sess on out at the
// subscription's cadence. delta selects MsgFrameDelta encoding (the caller
// has verified the subscriber negotiated protocol v4 and asked for it).
// The stream is registered under (out, session) before it returns, so the
// outbox's drop hook finds it from its first push on; the caller has
// stopped any previous stream under that key. The stream pushes nothing
// until the caller ticks it: the first tick renders a frame at once and
// arms the next one interval later.
func (e *Engine) newStream(sess *core.Session, sub wire.Subscribe, out *outbox, delta bool) *frameStream {
	st := &frameStream{
		sess:     sess,
		interval: pushInterval(sub),
		budget:   pushBudget(sub),
		delta:    delta,
	}
	st.d = delivery{eng: e, out: out, st: st, session: sess.ID}
	st.d.visitFn, st.d.doneFn = st.d.visit, st.d.done
	out.addReserve(st.budget)
	e.streamsMu.Lock()
	e.streams[streamKey{out, sess.ID}] = st
	e.streamsMu.Unlock()
	return st
}

// stop halts pacing, releases the stream's outbox reserve and waits for any
// frame still in the scheduler, so the caller may safely end the session
// afterwards. The last frame's push lands in the outbox (or is released if
// the outbox has closed). A pacer tick still armed for the stream fires as
// a no-op and is not waited for. Only the registry calls it, as it takes
// the stream out, so it runs once per stream — also for a stream that
// stopped pacing itself when the scheduler closed.
func (st *frameStream) stop() {
	st.mu.Lock()
	st.stopped = true
	st.mu.Unlock()
	st.d.out.addReserve(-st.budget)
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

// tick is the pacer's fire callback: submit a frame if the stream is
// idle, otherwise mark the tick owed (cadence degradation). Runs on the
// pacer goroutine, or for a stream's first frame on the subscribing
// connection's read loop — everything here is non-blocking.
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
			st.d.eng.streamSkipped.Inc()
		}
		st.mu.Unlock()
		return
	}
	st.inFlight = true
	st.jobs.Add(1)
	st.mu.Unlock()
	// The flight opens at the tick: admission is the gap between the pacer
	// firing and the scheduler accepting the job.
	st.d.fl = st.d.eng.rec.Begin(st.d.session, now)
	st.submit()
	st.scheduleNext(now)
}

// scheduleNext arms the next pacer tick relative to when the previous one
// actually ran, clamped to the minimum interval.
func (st *frameStream) scheduleNext(tickAt time.Time) {
	d := st.interval - time.Since(tickAt)
	if d < minPushInterval {
		d = minPushInterval
	}
	st.d.eng.pacer.schedule(st, d)
}

// nextPush assigns the frame its push seq and decides how it is encoded.
// It runs inside the delivery's visit, under the session lock and the
// stream's in-flight token.
//
//arbd:hotpath
func (st *frameStream) nextPush(f *core.Frame) (seq uint64, t wire.MsgType, key bool) {
	seq = st.pushSeq.Add(1)
	t = wire.MsgFramePush
	if st.delta {
		// Keyframe on the first push, on request (ack resync, outbox
		// drop), every Nth push, and whenever the session rendered for
		// someone else in between — the frame's delta base is then not
		// the frame this stream last pushed, so a diff would corrupt.
		t = wire.MsgFrameDelta
		key = st.forceKey.Swap(false) || seq == 1 ||
			st.sinceKey >= keyframeEvery-1 || f.Index != st.lastIndex+1
		if key {
			st.sinceKey = 0
			st.d.eng.streamKeyframes.Inc()
		} else {
			st.sinceKey++
		}
	}
	st.lastIndex = f.Index
	return seq, t, key
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
	err := st.d.eng.sched.Submit(st.sess, st.d.visitFn, st.d.doneFn)
	if err != nil {
		// Scheduler closed (Submit admits everything else): the server is
		// going down; stop pacing. done will not fire for this job.
		st.d.fl.FinishError()
		st.d.fl = nil
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
		st.d.fl = st.d.eng.rec.Begin(st.d.session, tickAt)
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

// streamKey names a live stream in the engine's registry: the connection
// outbox it pushes on, and its wire session (a standalone connection has
// exactly one; a shard's backend connection multiplexes many).
type streamKey struct {
	out     *outbox
	session uint64
}

// stream returns the session's live stream on out, if any.
func (e *Engine) stream(out *outbox, session uint64) *frameStream {
	e.streamsMu.Lock()
	st := e.streams[streamKey{out, session}]
	e.streamsMu.Unlock()
	return st
}

// stopStream takes the session's stream on out, if any, out of the
// registry and stops it.
func (e *Engine) stopStream(out *outbox, session uint64) {
	k := streamKey{out, session}
	e.streamsMu.Lock()
	st := e.streams[k]
	delete(e.streams, k)
	e.streamsMu.Unlock()
	if st != nil {
		st.stop()
	}
}

// stopStreams stops every stream pushing on out (connection teardown).
// Streams stop outside the registry lock: a stop waits out a frame whose
// push may run the drop hook, which looks the registry up.
func (e *Engine) stopStreams(out *outbox) {
	var stopping []*frameStream
	e.streamsMu.Lock()
	for k, st := range e.streams {
		if k.out == out {
			stopping = append(stopping, st)
			delete(e.streams, k)
		}
	}
	e.streamsMu.Unlock()
	for _, st := range stopping {
		st.stop()
	}
}

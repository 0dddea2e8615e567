package server

import (
	"errors"
	"fmt"
	"log"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"arbd/internal/metrics"
	"arbd/internal/obs"
	"arbd/internal/server/membership"
	"arbd/internal/wire"
)

// Router errors.
var (
	// ErrRouterShed is returned to clients when the router sheds a frame
	// request before forwarding it: the target shard's reported load has
	// tightened admission below the age of that shard's oldest outstanding
	// frame, so forwarding would only render a stale overlay remotely.
	// The text embeds ErrFrameShed's so clients classifying sheds by the
	// exported error string treat local and remote sheds alike.
	ErrRouterShed = fmt.Errorf("%w (router: shard overloaded)", ErrFrameShed)
	// ErrShardDown is returned when the shard owning a session is not
	// connected. With retry enabled it is surfaced to an in-flight stream
	// only after the reconnect budget is spent.
	ErrShardDown = errors.New("server: shard connection down")
)

// routerPushQueue is the drop-oldest bound on the pushes queued for each
// client connection: a client that stops reading loses its oldest frames,
// never stalls the shard reader that delivers everyone else's. (Its replies
// are bounded by replyWindow, like any accepted connection's.)
const routerPushQueue = 32

// retryPolicy is the router's backend-reconnect budget: when a shard
// connection drops, the router redials with exponentially growing delays
// (base, 2·base, … capped at max) until the connection is back or attempts
// are spent — only then do that shard's in-flight streams fail with
// ErrShardDown.
type retryPolicy struct {
	base     time.Duration
	max      time.Duration
	attempts int
}

// defaultRetry is the reconnect budget every router runs with: 2.55 s of
// backoff over six redials before a shard is given up.
var defaultRetry = retryPolicy{base: 50 * time.Millisecond, max: time.Second, attempts: 6}

// delay returns the backoff before the given 1-based attempt:
// base·2^(attempt-1), capped at max. Doubling step by step (bailing at the
// cap) keeps a huge attempt count from overflowing the shift.
func (p retryPolicy) delay(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := p.base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= p.max {
			return p.max
		}
	}
	if d > p.max {
		return p.max
	}
	return d
}

// RouterOptions tunes a router. It has no exported field: every router runs
// the defaults below, which tests override through the unexported hooks.
type RouterOptions struct {
	// deadline is the frame admission budget: a frame request is shed at
	// the router once the oldest frame its shard owes is older than this,
	// the budget the FrameScheduler applies to its own queue. Zero takes
	// defaultFrameDeadline.
	deadline time.Duration
	// retry is the backend reconnect budget (zero: defaultRetry).
	retry retryPolicy
	// migrateTimeout bounds each phase (export, import) of one session's
	// live migration; a shard that stops answering mid-drain costs that
	// session its state, not the drain its liveness (zero:
	// defaultMigrateTimeout).
	migrateTimeout time.Duration
}

const defaultMigrateTimeout = 5 * time.Second

func (o *RouterOptions) defaults() {
	if o.deadline <= 0 {
		o.deadline = defaultFrameDeadline
	}
	if o.migrateTimeout <= 0 {
		o.migrateTimeout = defaultMigrateTimeout
	}
	if o.retry == (retryPolicy{}) {
		o.retry = defaultRetry
	}
}

// Router owns client connections for a multi-node frontend: it speaks the
// same wire protocol as the standalone server, assigns each connection a
// session ID, places the session on a shard via the rendezvous ring, and
// forwards envelopes over persistent backend connections. It sheds a frame
// request before the forward hop once the shard has fallen a whole
// admission deadline behind, rather than forward an overlay that would
// arrive stale. Frame subscriptions forward with session affinity.
// Everything bound for a client — a shard's replies and pushes, the
// router's own sheds and errors — is enqueued on that client connection's
// outbox, and everything bound for a shard on that backend connection's
// outbox (stream.go): a stalled client cannot stall the shard reader
// serving everyone else, and a stalled shard parks only the clients
// forwarding to it, never a lock.
type Router struct {
	cs     *connServer
	logger *log.Logger
	// done closes when Close begins; wg counts the shard readers Close waits.
	done chan struct{}
	wg   sync.WaitGroup
	// view is the current membership epoch: its member set and ring.
	// Routing decisions load it atomically; Join and Drain publish each
	// next epoch through one path (Router.change), and the router swaps
	// rings by placing each decision against whatever view is current at
	// that instant.
	view  atomic.Pointer[membership.View]
	epoch *metrics.Gauge // router.membership.epoch, set at every publish
	opts  RouterOptions
	reg   *metrics.Registry

	// Per-message instruments, resolved once at construction: the forward
	// and push hot paths must not pay a registry map lookup per envelope.
	framesShed    *metrics.Counter
	forwardErrs   *metrics.Counter
	pushesStale   *metrics.Counter
	pushesDropped *metrics.Counter
	orphaned      *metrics.Counter

	// shards maps member ID → slot. Mutable since membership went dynamic:
	// Join installs, Drain removes.
	shardsMu sync.RWMutex
	shards   map[uint64]*routerShard

	sessMu   sync.RWMutex
	sessions map[uint64]*routerClient
	nextSess atomic.Uint64

	// subs tracks live subscriptions so a reconnected shard can have its
	// streams replayed, a migrated session's stream can be resumed on the
	// new owner with its push counter rebased, and a permanently dead
	// shard can fail its streams with a typed error.
	subsMu sync.Mutex
	subs   map[uint64]*subEntry

	// adminMu makes the router the one writer of the membership epoch: one
	// Join or Drain (with all its migrations) runs at a time.
	adminMu sync.Mutex
	admin   *connServer

	// changeMu closes the plan/publish window: forwards hold it for read,
	// and a membership change holds it for write from planning its
	// migration set until the new epoch is published. A session that
	// connects mid-change therefore cannot slip its first envelopes to
	// the old ring after the plan was drawn — its forwards wait the few
	// microseconds of plan+gate and then resolve against the new epoch.
	changeMu sync.RWMutex

	// bufs stages payloads while they sit in outboxes: a client's frame
	// buffer and a shard reader's cannot outlive one read.
	bufs sync.Pool

	// rec records the router-side half of every frame's flight, polled or
	// pushed (outbox wait and client write); shard-side traces join on
	// (session, seq).
	rec *obs.Recorder

	// dial dials one backend: net.DialTimeout, or in tests a shard end that
	// never reads.
	dial func(addr string) (net.Conn, error)

	connected bool
	closeOnce sync.Once
	closeErr  error
}

// subEntry is one tracked subscription: the subscribe payload for replay,
// plus the rebase state that keeps the client-visible push counter
// strictly increasing across server-side stream restarts (re-subscribe,
// shard reconnect replay, live migration). base is added to every raw push
// counter; last is the highest rebased value delivered.
type subEntry struct {
	payload []byte
	base    uint64
	last    uint64
}

// rebase marks a server-side stream replacement: future raw counters
// restart at 1 and map above everything already delivered. It runs where
// no push of the replaced stream can follow — at the shard's ack of a
// re-subscribe, which the shard queues after the old stream's last push,
// or when the router sends a replay or a migration resume.
func (e *subEntry) rebase() { e.base = e.last }

// backendWriter is a backend outbox's writer: a batch that cannot reach a
// partitioned shard in backendWriteTimeout closes the connection, so its
// reader fails into the reconnect machinery.
type backendWriter struct{ conn net.Conn }

func (w backendWriter) Write(p []byte) (int, error) {
	// Refreshed per batch, never cleared: an idle connection has nothing in
	// flight to time out.
	_ = w.conn.SetWriteDeadline(time.Now().Add(backendWriteTimeout))
	n, err := w.conn.Write(p)
	if err != nil {
		_ = w.conn.Close()
	}
	return n, err
}

// routerShard is one shard's slot: the current backend connection (swapped
// on reconnect), whose ledger holds the replies the shard owes.
type routerShard struct {
	member Member

	connMu sync.RWMutex
	bc     *dialConn

	// removed flips when a drain detaches the shard on purpose, telling the
	// reader not to reconnect and not to write obituaries.
	removed atomic.Bool
}

// backend returns the current connection slot.
func (ss *routerShard) backend() *dialConn {
	ss.connMu.RLock()
	defer ss.connMu.RUnlock()
	return ss.bc
}

// forward queues one envelope on a backend outbox, its payload copied (it
// may alias a frame reader's buffer). Forwards are replies: never dropped.
// A dead connection's closed outbox refuses it: ErrShardDown.
func (r *Router) forward(bc *dialConn, env *wire.Envelope) error {
	msg := outMsg{env: *env, reply: true}
	if len(env.Payload) > 0 {
		buf := r.bufs.Get().(*wire.Buffer)
		buf.Reset()
		buf.Append(env.Payload)
		msg.env.Payload, msg.buf, msg.pool = buf.Bytes(), buf, &r.bufs
	}
	if !bc.out.enqueue(msg) {
		return ErrShardDown
	}
	return nil
}

// routerClient is what the router holds per client connection: its outbox
// — shard readers enqueue the shard's replies and pushes, the client's own
// read loop enqueues local sheds and errors — and its migration gate.
type routerClient struct {
	out *outbox

	// fwdMu serialises this session's forwards against its migration: the
	// migration sets migrating under the lock, so once set, no forward is
	// in flight and none will start until the channel closes. The read
	// loop blocking here — for exactly the export→import→replay window —
	// IS the client-visible migration pause (router.migration.pause).
	fwdMu     sync.Mutex
	migrating chan struct{}
}

// Member is one shard node in the membership NewRouter starts from.
type Member = membership.Member

// NewRouter returns a router over the membership (not yet connected or
// listening). reg may be nil.
func NewRouter(members []Member, logger *log.Logger, reg *metrics.Registry, opts RouterOptions) (*Router, error) {
	view, err := membership.NewView(1, members)
	if err != nil {
		return nil, err
	}
	if logger == nil {
		logger = log.Default()
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	opts.defaults()
	r := &Router{
		logger:   logger,
		done:     make(chan struct{}),
		epoch:    reg.Gauge("router.membership.epoch"),
		opts:     opts,
		reg:      reg,
		shards:   make(map[uint64]*routerShard),
		sessions: make(map[uint64]*routerClient),
		subs:     make(map[uint64]*subEntry),

		framesShed:    reg.Counter("router.frames.shed"),
		forwardErrs:   reg.Counter("router.forward.errors"),
		pushesStale:   reg.Counter("router.pushes.stale"),
		pushesDropped: reg.Counter("router.pushes.dropped"),
		orphaned:      reg.Counter("router.replies.orphaned"),

		rec: obs.NewRecorder(reg),
		dial: func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, backendDialTimeout)
		},
	}
	r.publish(view)
	r.bufs.New = func() any { return wire.NewBuffer(1024) }
	r.cs = newConnServer(logger, "router", r.openClient)
	return r, nil
}

// Metrics returns the registry the router records into (router.frames.shed,
// router.replies.orphaned, router.forward.errors, router.pushes.dropped,
// router.shard.reconnects, router.sessions.migrated, router.migrations.failed,
// gauge router.membership.epoch, histogram router.migration.pause).
func (r *Router) Metrics() *metrics.Registry { return r.reg }

// shard returns the slot for a member ID, nil if unknown.
func (r *Router) shard(id uint64) *routerShard {
	r.shardsMu.RLock()
	ss := r.shards[id]
	r.shardsMu.RUnlock()
	return ss
}

// shardFor resolves a session's current owner against the current epoch.
// It can return nil only in the short window where an epoch named a member
// whose slot is already detached (router shutting down).
func (r *Router) shardFor(session uint64) *routerShard {
	return r.shard(r.view.Load().Ring().Pick(session).ID)
}

// Connect dials every shard and completes the hello handshake, verifying
// each peer announces the member ID the config claims and negotiating the
// protocol version. It must succeed before Listen.
func (r *Router) Connect() error {
	var attached []*routerShard
	for _, m := range r.view.Load().Members() {
		bc, err := r.dialBackend(m)
		if err != nil {
			// Detach what already connected; Connect is all-or-nothing.
			for _, ss := range attached {
				r.detachShard(ss)
			}
			return err
		}
		attached = append(attached, r.attachShard(m, bc))
	}
	r.connected = true
	return nil
}

// attachShard installs a handshaken backend connection as the member's
// slot and starts its reader.
func (r *Router) attachShard(m Member, bc *dialConn) *routerShard {
	ss := &routerShard{member: m, bc: bc}
	r.shardsMu.Lock()
	r.shards[m.ID] = ss
	closing := r.closing() // Close swept the slots before this one joined
	r.shardsMu.Unlock()
	if closing {
		_ = bc.conn.Close()
	}
	r.wg.Add(1)
	go r.shardReader(ss, bc)
	return ss
}

// dialBackend dials one shard and runs the hello handshake, verifying the
// peer announces the member ID the config claims.
func (r *Router) dialBackend(m Member) (*dialConn, error) {
	conn, err := r.dial(m.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: dialing shard %d at %s: %w", m.ID, m.Addr, err)
	}
	bc, err := dialHandshake(conn, backendWriter{conn}, time.Now().Add(backendDialTimeout), "router", wire.ProtoMax)
	if err == nil && bc.peer.ID != m.ID {
		bc.close()
		err = fmt.Errorf("announced ID %d, config says %d — membership miswired", bc.peer.ID, m.ID)
	}
	if err != nil {
		return nil, fmt.Errorf("server: shard %d at %s: %w", m.ID, m.Addr, err)
	}
	return bc, nil
}

// shardReader runs a shard slot's backend connection, redialling it each
// time it dies: the read loop's deliver is fromShard, and the loop's end
// answers every request the shard still owed ErrShardDown.
func (r *Router) shardReader(ss *routerShard, bc *dialConn) {
	defer r.wg.Done()
	for bc != nil {
		err := bc.serve(func(env *wire.Envelope) { r.fromShard(bc, env) })
		if r.closing() || ss.removed.Load() {
			return // closing, or drained on purpose: no reconnect, no obituaries
		}
		r.logger.Printf("router: shard %d connection lost: %v", ss.member.ID, err)
		bc = r.reconnectShard(ss)
	}
}

// fromShard takes one envelope read from connection bc: migrate replies
// settle the move waiting on them, and everything else routes back to the
// owning client by session ID.
func (r *Router) fromShard(bc *dialConn, env *wire.Envelope) {
	switch env.Type {
	case wire.MsgMigrateSession:
		bc.settle(env) // a move's round trip: never client-bound
	case wire.MsgAnnotations, wire.MsgError, wire.MsgAck:
		r.deliverReply(bc, env)
	default:
		r.deliver(env, false)
	}
}

// reconnectShard redials a lost backend with capped exponential backoff,
// returning the installed connection (nil: closed, drained or out of
// budget). While it runs, requests for the shard fail fast with
// ErrShardDown but subscriptions stay tracked; on success the streams are
// replayed on the new connection, and only once the budget is spent are
// they failed.
func (r *Router) reconnectShard(ss *routerShard) *dialConn {
	reconnects := r.reg.Counter("router.shard.reconnects")
	for attempt := 1; attempt <= r.opts.retry.attempts; attempt++ {
		select {
		case <-r.done:
			return nil
		case <-time.After(r.opts.retry.delay(attempt)):
		}
		if ss.removed.Load() {
			return nil // drained while we backed off: the slot is gone for good
		}
		bc, err := r.dialBackend(ss.member)
		if err != nil {
			r.logger.Printf("router: shard %d reconnect attempt %d/%d: %v",
				ss.member.ID, attempt, r.opts.retry.attempts, err)
			continue
		}
		// Install under the conn lock with shutdown and removal re-checks:
		// if Close already swept the shard slots — or a Drain detached this
		// one while we were dialling — the fresh conn must be torn down
		// here, because neither will come back for it.
		ss.connMu.Lock()
		if ss.removed.Load() || r.closing() {
			ss.connMu.Unlock()
			bc.close()
			return nil
		}
		ss.bc = bc
		ss.connMu.Unlock()
		reconnects.Inc()
		r.replaySubscriptions(ss)
		r.logger.Printf("router: shard %d reconnected (attempt %d)", ss.member.ID, attempt)
		return bc
	}
	// Budget spent: the shard is gone as far as this router is concerned.
	// In-flight streams placed there now — and only now — surface
	// ErrShardDown.
	r.failStreams(ss)
	r.logger.Printf("router: shard %d reconnect budget (%d attempts) spent; failing its streams",
		ss.member.ID, r.opts.retry.attempts)
	return nil
}

// replaySubscriptions re-forwards MsgSubscribe for every tracked stream
// the ring places on the shard, rebuilding server-side streams a backend
// bounce destroyed. Replayed subscribes carry Seq 0: the shard's acks are
// delivered to clients, which ignore acks for requests they never made.
// They are queued under subsMu, which an unsubscribe or a session's end
// takes to untrack the stream before its own forward: a stream that ends
// concurrently is either not replayed or replayed ahead of its end, never
// resurrected behind it. Streams replay in ascending session ID, not in
// map order.
func (r *Router) replaySubscriptions(ss *routerShard) {
	ring := r.view.Load().Ring()
	r.subsMu.Lock()
	defer r.subsMu.Unlock()
	var ids []uint64
	for id := range r.subs {
		if ring.Pick(id).ID == ss.member.ID {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		// The replayed server-side stream restarts its push counter at 1;
		// shift the rebase base so the wire seq stays strictly increasing
		// through the bounce. A failed forward lost the connection again,
		// whose reconnect replays anew.
		e := r.subs[id]
		e.rebase()
		_ = r.forward(ss.backend(), &wire.Envelope{Type: wire.MsgSubscribe, Session: id, Payload: e.payload})
	}
}

// failStreams delivers the stream-fatal ErrShardDown to every subscribed
// client placed on the shard. The error rides the push outbox with Seq 0 —
// the slot request/reply traffic never uses — so clients recognise it as
// the stream's obituary rather than a reply.
func (r *Router) failStreams(ss *routerShard) {
	ring := r.view.Load().Ring()
	r.subsMu.Lock()
	var ids []uint64
	for id := range r.subs {
		if ring.Pick(id).ID == ss.member.ID {
			ids = append(ids, id)
			delete(r.subs, id)
		}
	}
	r.subsMu.Unlock()
	slices.Sort(ids)
	for _, id := range ids {
		r.sessMu.RLock()
		cl := r.sessions[id]
		r.sessMu.RUnlock()
		if cl == nil {
			continue
		}
		cl.out.enqueue(outMsg{env: wire.Envelope{Type: wire.MsgError, Seq: 0, Session: id,
			Payload: []byte(ErrShardDown.Error())}})
	}
}

// deliverReply delivers one reply read from bc, settling its forward's
// ledger entry. The ack of a subscribe rebases the session's push seq: the
// shard stopped the replaced stream before queuing it, so every push of
// that stream has been delivered already and every push behind it is the
// new stream's.
func (r *Router) deliverReply(bc *dialConn, env *wire.Envelope) {
	t := bc.settleForward(env.Session, env.Seq)
	if t == wire.MsgSubscribe && env.Type == wire.MsgAck {
		r.subsMu.Lock()
		if e := r.subs[env.Session]; e != nil {
			e.rebase()
		}
		r.subsMu.Unlock()
	}
	r.deliver(env, t != 0)
}

// deliver routes one shard envelope to its client's outbox: copied into a
// pooled buffer (the payload aliases the shard reader's buffer, which the
// next read reuses) and queued, never written here — a slow client must
// cost itself, not stall the shard reader. Pushed frames are pushes; every
// other envelope answers a request the client made and is a reply, owed if
// the ledger held it. Frames, polled or pushed, fly: the router-side flight
// opens here, at arrival, and its spans cover the client outbox wait and
// the client write.
func (r *Router) deliver(env *wire.Envelope, owed bool) {
	r.sessMu.RLock()
	cl := r.sessions[env.Session]
	r.sessMu.RUnlock()
	if cl == nil {
		// Client went away while the reply was in flight.
		r.orphaned.Inc()
		return
	}
	push := env.Type == wire.MsgFramePush || env.Type == wire.MsgFrameDelta
	seq := env.Seq
	if push {
		var fresh bool
		if seq, fresh = r.rebasePush(env.Session, env.Seq); !fresh {
			r.pushesStale.Inc()
			return
		}
	}
	buf := r.bufs.Get().(*wire.Buffer)
	buf.Reset()
	buf.Append(env.Payload)
	var fl *obs.Flight
	if push || env.Type == wire.MsgAnnotations {
		// The flight carries the seq the client sees (rebased, for a push),
		// so it joins the shard's trace on (session, seq).
		fl = r.rec.Begin(env.Session, time.Now())
		fl.SetSeq(seq)
	}
	cl.out.enqueue(outMsg{
		env:    wire.Envelope{Type: env.Type, Seq: seq, Session: env.Session, Payload: buf.Bytes()},
		reply:  !push,
		buf:    buf,
		pool:   &r.bufs,
		flight: fl,
	})
	if owed {
		cl.out.expect(-1) // after the enqueue: the count never dips
	}
}

// rebasePush maps a stream's raw push counter onto the wire seq its client
// sees, reporting false for a push that must not be delivered. A migrated
// (or replayed) server-side stream restarts at 1, but the wire contract
// toward the client is a strictly increasing seq. Delta pushes ride the
// same path as full pushes, payload opaque: rebasing shifts every seq by
// the same constant within an epoch, so the seq-contiguity rule delta
// application depends on is preserved, and an epoch restart's first push is
// always a keyframe (a fresh server-side stream keys its push 1). A rebased
// value at or below `last` is a duplicate and drops.
func (r *Router) rebasePush(session, raw uint64) (seq uint64, fresh bool) {
	r.subsMu.Lock()
	defer r.subsMu.Unlock()
	e := r.subs[session]
	if e == nil {
		return raw, true
	}
	seq = e.base + raw
	if seq <= e.last {
		return 0, false
	}
	e.last = seq
	return seq, true
}

// Listen binds addr and starts accepting client connections. Connect must
// have succeeded first.
func (r *Router) Listen(addr string) (string, error) {
	if !r.connected {
		return "", errors.New("server: router listening before Connect")
	}
	return r.cs.listen(addr)
}

// closing reports whether Close has begun.
func (r *Router) closing() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// Close closes backend, client and admin connections, and waits for every
// goroutine the router started. Idempotent. Backends close first: a client
// read loop parked on a stalled shard's outbox wakes when it closes.
func (r *Router) Close() error {
	r.closeOnce.Do(func() {
		close(r.done)
		r.shardsMu.Lock()
		for _, ss := range r.shards {
			_ = ss.backend().conn.Close()
		}
		r.shardsMu.Unlock()
		r.closeErr = r.cs.close()
		if r.admin != nil {
			if err := r.admin.close(); err != nil && r.closeErr == nil {
				r.closeErr = err
			}
		}
		r.wg.Wait()
	})
	return r.closeErr
}

// trackSub records a live subscription for replay; untrackSub forgets it.
// A re-subscribe keeps the rebase state: the client's stream identity
// survives a cadence change, so its seq contract must too. The rebase
// itself waits for the shard's ack (deliverReply).
func (r *Router) trackSub(session uint64, payload []byte) {
	r.subsMu.Lock()
	if e := r.subs[session]; e != nil {
		e.payload = append([]byte(nil), payload...)
	} else {
		r.subs[session] = &subEntry{payload: append([]byte(nil), payload...)}
	}
	r.subsMu.Unlock()
}

func (r *Router) untrackSub(session uint64) {
	r.subsMu.Lock()
	delete(r.subs, session)
	r.subsMu.Unlock()
}

// openClient registers a client connection once its hello succeeded. The
// version the client settles on needs no tracking here: what it may send is
// decided end to end, by the shard its envelopes reach.
func (r *Router) openClient(conn net.Conn, _ uint32) accepted {
	id := r.nextSess.Add(1)
	// No keyframe hook on this hop: a dropped delta reaches the client as a
	// seq gap, and its keyframe-request ack forwards to the shard like any
	// other envelope.
	cl := &routerClient{out: newOutbox(conn, routerPushQueue, func(wire.MsgType, uint64) { r.pushesDropped.Inc() })}
	r.sessMu.Lock()
	r.sessions[id] = cl
	r.sessMu.Unlock()
	return accepted{
		out:    cl.out,
		id:     id,
		handle: func(env *wire.Envelope) { r.fromClient(cl, id, env) },
		closed: func() {
			r.sessMu.Lock()
			delete(r.sessions, id)
			r.sessMu.Unlock()
			r.untrackSub(id)
			// Tell the owning shard the session is over so its registry
			// doesn't grow for the life of the backend connection. Gated: a
			// migration in flight finishes first, so the end lands on the
			// new owner.
			r.route(cl, id, &wire.Envelope{Type: wire.MsgControl, Session: id, Payload: []byte{CtrlEndSession}})
		},
	}
}

// fromClient takes one client envelope; the router↔shard and admin
// vocabularies are refused, as a standalone server refuses them. Before
// route takes any lock, the read loop parks while replyWindow forwards to
// the session's shard are unwritten.
func (r *Router) fromClient(cl *routerClient, id uint64, env *wire.Envelope) {
	env.Session = id // the router owns placement; clients cannot choose
	switch env.Type {
	case wire.MsgControl:
		// Control payloads are router↔shard vocabulary (CtrlEndSession
		// tears a session down, silently). The client-facing protocol
		// treats any control as a ping, so strip the payload rather than
		// let a client envelope collide with an internal verb.
		env.Payload = nil
	case wire.MsgSensorEvent, wire.MsgFrameRequest, wire.MsgSubscribe, wire.MsgUnsubscribe, wire.MsgAck:
	default:
		cl.out.fail(id, env.Seq, fmt.Sprintf("server: unsupported message %v", env.Type))
		return
	}
	if ss := r.shardFor(id); ss != nil {
		ss.backend().out.awaitReplies(replyWindow - 1)
	}
	r.route(cl, id, env)
}

// route makes the admission decision for one client envelope and forwards
// it to the session's current owner under the session's migration gate and
// the membership-change read lock. Nothing under those locks blocks: the
// forward, and any reply the router makes itself (a shed, an unreachable
// owner), is an enqueue. A forward the shard answers is entered in its
// connection's ledger, holding a slot in the client's outbox, first.
//
// The locks span the whole decide-and-forward sequence, and it resolves
// the owner's connection once, so the link consulted for admission is the
// link that owes the reply and that the envelope reaches: without that, a
// migration or reconnect between the ledger entry and the forward would
// strand the entry on a link that never carries its reply.
func (r *Router) route(cl *routerClient, id uint64, env *wire.Envelope) {
	for {
		r.changeMu.RLock()
		cl.fwdMu.Lock()
		if cl.migrating == nil {
			break
		}
		ch := cl.migrating
		cl.fwdMu.Unlock()
		r.changeMu.RUnlock()
		select {
		case <-ch:
		case <-r.done:
			return
		}
	}
	defer func() {
		cl.fwdMu.Unlock()
		r.changeMu.RUnlock()
	}()
	// Sensor events, frame acks and CtrlEndSession are one-way.
	owes := env.Type == wire.MsgFrameRequest || env.Type == wire.MsgSubscribe ||
		env.Type == wire.MsgUnsubscribe || env.Type == wire.MsgControl && len(env.Payload) == 0
	ss := r.shardFor(id)
	if ss == nil {
		// Epoch names an owner with no live slot: only reachable in the
		// router's own shutdown window.
		if owes {
			cl.out.fail(id, env.Seq, ErrShardDown.Error())
		}
		return
	}
	switch env.Type {
	case wire.MsgSubscribe:
		// A subscribe the shard would refuse is refused here: tracked, it
		// would be replayed on every bounce and resume, and overwrite a
		// live stream's good payload.
		sub, err := wire.DecodeSubscribe(env.Payload)
		if err != nil {
			cl.out.fail(id, env.Seq, err.Error())
			return
		}
		// Track before the forward: a shard bounce in the gap would
		// otherwise snapshot r.subs without this stream — never
		// replayed, never given an obituary, a silently dead channel.
		// The forward-failure path below cleans up if the subscribe never
		// actually took.
		r.trackSub(id, env.Payload)
		// Honour the subscription's queue budget on this hop too — the
		// shard grows its outbox per subscription, and capping here would
		// silently undercut the knob in exactly the topology streaming was
		// built for.
		cl.out.grow(pushBudget(sub))
	case wire.MsgUnsubscribe:
		// Untrack before the forward, sent or not: the client's intent
		// stands, and a replay can only queue ahead of it (see
		// replaySubscriptions).
		r.untrackSub(id)
	}
	bc := ss.backend()
	// Admission: if the oldest frame request the shard owes has waited past
	// the deadline, a new one would wait at least as long, so shed it here
	// instead of paying the hop. A dead connection owes nothing, so it never
	// fakes a shed.
	if env.Type == wire.MsgFrameRequest && bc.headAge(time.Now()) > r.opts.deadline {
		r.framesShed.Inc()
		cl.out.fail(id, env.Seq, ErrRouterShed.Error())
		return
	}
	err := ErrShardDown
	if !owes || bc.owe(id, env.Seq, env.Type, cl.out) {
		// An owed forward the closed outbox refuses is answered by the
		// dying connection's read loop.
		err = r.forward(bc, env)
	} else {
		cl.out.fail(id, env.Seq, err.Error()) // a dead link owes nothing
	}
	if err != nil {
		r.forwardErrs.Inc()
		if env.Type == wire.MsgSubscribe {
			r.untrackSub(id) // an unsent subscribe must not be replayed
		}
	}
}

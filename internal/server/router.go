package server

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"arbd/internal/core"
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

// RetryPolicy is the router's backend-reconnect budget: when a shard
// connection drops, the router redials with exponentially growing delays
// (Base, 2·Base, … capped at Max) until the connection is back or Attempts
// are spent — only then do that shard's in-flight streams fail with
// ErrShardDown.
type RetryPolicy struct {
	// Base is the delay before the first attempt (default 50 ms).
	Base time.Duration
	// Max caps the per-attempt delay (default 1 s).
	Max time.Duration
	// Attempts is the retry budget (default 6). Negative disables
	// reconnecting entirely: the first disconnect is final.
	Attempts int
}

func (p *RetryPolicy) defaults() {
	if p.Base <= 0 {
		p.Base = 50 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = time.Second
	}
	if p.Attempts == 0 {
		p.Attempts = 6
	}
}

// delay returns the backoff before the given 1-based attempt:
// Base·2^(attempt-1), capped at Max. Doubling step by step (bailing at the
// cap) keeps a huge attempt count from overflowing the shift.
func (p RetryPolicy) delay(attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := p.Base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= p.Max {
			return p.Max
		}
	}
	if d > p.Max {
		return p.Max
	}
	return d
}

// RouterOptions tunes a router.
type RouterOptions struct {
	// Deadline is the base frame admission budget, tightened by each
	// shard's reported LoadSignal exactly as the FrameScheduler tightens
	// its own (see loadGate). Zero takes the 250 ms server default;
	// negative disables router-side shedding.
	Deadline time.Duration
	// FlushLatencyRef and BacklogRef normalise remote pressure (defaults
	// 5 ms and 4096 records, matching SchedulerConfig).
	FlushLatencyRef time.Duration
	BacklogRef      int64
	// DialTimeout bounds each backend dial + hello handshake (default 5 s).
	DialTimeout time.Duration
	// Retry is the backend reconnect budget (see RetryPolicy).
	Retry RetryPolicy
	// MigrateTimeout bounds each phase (export, import) of one session's
	// live migration; a shard that stops answering mid-drain costs that
	// session its state, not the drain its liveness (default 5 s).
	MigrateTimeout time.Duration
	// WriteTimeout bounds every write to a backend (shard) connection
	// (default 10 s; negative disables). Forwards hold shared locks across
	// these writes, so a partitioned shard must become a timeout error —
	// routed to the reconnect machinery — rather than an indefinitely
	// wedged lock stalling every client.
	WriteTimeout time.Duration
}

func (o *RouterOptions) defaults() {
	switch {
	case o.Deadline < 0:
		o.Deadline = 0
	case o.Deadline == 0:
		o.Deadline = defaultFrameDeadline
	}
	if o.FlushLatencyRef <= 0 {
		o.FlushLatencyRef = defaultFlushLatencyRef
	}
	if o.BacklogRef <= 0 {
		o.BacklogRef = defaultBacklogRef
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.MigrateTimeout <= 0 {
		o.MigrateTimeout = 5 * time.Second
	}
	switch {
	case o.WriteTimeout < 0:
		o.WriteTimeout = 0
	case o.WriteTimeout == 0:
		o.WriteTimeout = 10 * time.Second
	}
	o.Retry.defaults()
}

// Router owns client connections for a multi-node frontend: it speaks the
// same wire protocol as the standalone server, assigns each connection a
// session ID, places the session on a shard via the rendezvous ring, and
// forwards envelopes over persistent backend connections. Shards push
// MsgLoad; the router runs the standalone server's lag-aware admission
// against that remote pressure and sheds frame requests before wasting a
// forward hop on an overlay that would arrive stale. Frame subscriptions
// forward with session affinity. Everything bound for a client — a shard's
// replies and pushes traversing the hop back, the router's own sheds and
// errors — is enqueued on that client connection's outbox, the same one
// delivery path the session-serving roles use (stream.go), so one stalled
// reader cannot stall a shard reader serving every other client.
type Router struct {
	cs     *connServer
	logger *log.Logger
	// dir is the membership control plane: the current epoch's member set
	// and ring. Routing decisions load the current view atomically; Join
	// and Drain publish new epochs, and the router swaps rings by placing
	// each decision against whatever view is current at that instant.
	dir  *membership.Directory
	opts RouterOptions
	gate loadGate
	reg  *metrics.Registry

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

	// adminMu makes membership mutations single-writer: one Join or Drain
	// (with all its migrations) runs at a time.
	adminMu sync.Mutex
	admin   *connServer

	// changeMu closes the plan/publish window: forwards hold it for read,
	// and a membership change holds it for write from planning its
	// migration set until the new epoch is published. A session that
	// connects mid-change therefore cannot slip its first envelopes to
	// the old ring after the plan was drawn — its forwards wait the few
	// microseconds of plan+gate and then resolve against the new epoch.
	changeMu sync.RWMutex

	// migrations tracks in-flight session exports/imports, keyed by
	// session; shard readers route MsgMigrateSession replies here.
	migMu      sync.Mutex
	migrations map[uint64]*migration

	// bufs stages forwarded payloads while they sit in client outboxes
	// (the shard reader's frame buffer cannot outlive one read).
	bufs sync.Pool

	// rec records the router-side half of every frame's flight, polled or
	// pushed (outbox wait and client write); shard-side traces join on
	// (session, seq).
	rec *obs.Recorder

	connected bool
	closeOnce sync.Once
	closeErr  error
}

// subEntry is one tracked subscription: the subscribe payload for replay,
// plus the rebase state that keeps the client-visible push counter
// strictly increasing across server-side stream restarts (shard reconnect
// replay, re-subscribe, live migration). base is added to every raw push
// counter; last is the highest rebased value delivered; lastRaw is the
// highest raw counter delivered. restart marks a rebase whose replacement
// stream hasn't pushed yet: until its counter visibly restarts (a raw seq
// at or below lastRaw), any higher raw seq is a straggler from the
// replaced stream and must be dropped — delivering it would inflate
// `last` past everything the new stream will produce and silently
// blackhole the stream for its whole replayed length.
type subEntry struct {
	payload   []byte
	base      uint64
	last      uint64
	lastRaw   uint64
	restart   bool
	rebasedAt time.Time
}

// stragglerWindow bounds how long after a rebase a too-high raw counter
// is treated as a replaced-stream straggler. Stragglers are already in
// flight at rebase time (one connection read plus queued outbox writes),
// so they arrive promptly; after the window any push is accepted as the
// replacement stream. The window matters because raw counters are not
// gap-free — the shard's drop-oldest outbox discards pushes after their
// seq is assigned — so a replacement stream whose first pushes were all
// dropped can legitimately first appear ABOVE the old high-water mark,
// and an unbounded guard would blackhole it forever.
var stragglerWindow = time.Second

// rebase marks a server-side stream replacement: future raw counters
// restart at 1 and map above everything already delivered. Idempotent —
// a second rebase before any push arrived only refreshes the straggler
// window.
func (e *subEntry) rebase() {
	e.base = e.last
	e.restart = true
	e.rebasedAt = time.Now()
}

// backendConn is one dialled-and-handshaken shard connection.
type backendConn struct {
	conn net.Conn
	w    *lockedWriter
	fr   *wire.FrameReader
}

// lockedWriter serialises envelope writes on a backend connection, the
// forward direction, which every client's read loop shares. Each write is
// framed and flushed atomically, and carries a deadline when timeout is
// set: forwards hold the membership-change lock across these writes, so
// they must never block on a shard's full TCP buffer indefinitely — a
// partitioned shard turns into a timeout error, not a wedged lock.
type lockedWriter struct {
	mu      sync.Mutex
	fw      *wire.FrameWriter
	conn    net.Conn
	timeout time.Duration
}

func (w *lockedWriter) write(env *wire.Envelope) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.timeout > 0 {
		// Refreshed per write, never cleared: the next write resets it, and
		// an idle connection has nothing in flight to time out.
		_ = w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	}
	return sendEnvelope(w.fw, env)
}

// routerShard is one shard's slot: the current backend connection (swapped
// on reconnect) plus the state admission needs — the shard's last reported
// load and the FIFO of outstanding frame requests.
type routerShard struct {
	member Member

	connMu sync.RWMutex
	bc     *backendConn

	loadMu sync.RWMutex
	load   core.LoadSignal

	pend pendingFrames

	// down flips while the backend connection is lost; dead flips once the
	// retry budget is spent and the shard's streams have been failed;
	// removed flips when a drain detaches the shard on purpose, telling the
	// reader not to reconnect and not to write obituaries.
	down    atomic.Bool
	dead    atomic.Bool
	removed atomic.Bool
}

func (ss *routerShard) setLoad(sig core.LoadSignal) {
	ss.loadMu.Lock()
	ss.load = sig
	ss.loadMu.Unlock()
}

func (ss *routerShard) loadSignal() core.LoadSignal {
	ss.loadMu.RLock()
	defer ss.loadMu.RUnlock()
	return ss.load
}

// backend returns the current connection slot.
func (ss *routerShard) backend() *backendConn {
	ss.connMu.RLock()
	defer ss.connMu.RUnlock()
	return ss.bc
}

// forward writes one envelope to the shard.
func (ss *routerShard) forward(env *wire.Envelope) error {
	if ss.down.Load() {
		return ErrShardDown
	}
	bc := ss.backend()
	if bc == nil {
		return ErrShardDown
	}
	return bc.w.write(env)
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
	dir, err := membership.NewDirectory(members)
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
		logger:     logger,
		dir:        dir,
		opts:       opts,
		gate:       loadGate{deadline: opts.Deadline, flushLatencyRef: opts.FlushLatencyRef, backlogRef: opts.BacklogRef},
		reg:        reg,
		shards:     make(map[uint64]*routerShard),
		sessions:   make(map[uint64]*routerClient),
		subs:       make(map[uint64]*subEntry),
		migrations: make(map[uint64]*migration),

		framesShed:    reg.Counter("router.frames.shed"),
		forwardErrs:   reg.Counter("router.forward.errors"),
		pushesStale:   reg.Counter("router.pushes.stale"),
		pushesDropped: reg.Counter("router.pushes.dropped"),
		orphaned:      reg.Counter("router.replies.orphaned"),

		rec: obs.NewRecorder(reg, obs.Options{}),
	}
	r.bufs.New = func() any { return wire.NewBuffer(1024) }
	r.cs = newConnServer(logger, r.serveClient)
	return r, nil
}

// Metrics returns the registry the router records into (router.frames.shed,
// router.replies.orphaned, router.forward.errors, router.pushes.dropped,
// router.shard.reconnects, router.sessions.migrated, router.migrations.failed,
// histogram router.migration.pause).
func (r *Router) Metrics() *metrics.Registry { return r.reg }

// Ring exposes the current epoch's placement ring.
func (r *Router) Ring() *membership.Ring { return r.dir.View().Ring() }

// Directory exposes the membership control plane (epoch, watch API).
func (r *Router) Directory() *membership.Directory { return r.dir }

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
	return r.shard(r.dir.View().Ring().Pick(session).ID)
}

// Connect dials every shard and completes the hello handshake, verifying
// each peer announces the member ID the config claims and negotiating the
// protocol version. It must succeed before Listen.
func (r *Router) Connect() error {
	for _, m := range r.dir.View().Members() {
		bc, err := r.dialBackend(m)
		if err != nil {
			// Close what already connected; Connect is all-or-nothing.
			r.shardsMu.Lock()
			for _, ss := range r.shards {
				if prev := ss.backend(); prev != nil {
					_ = prev.conn.Close()
				}
			}
			r.shardsMu.Unlock()
			return err
		}
		r.attachShard(m, bc)
	}
	r.connected = true
	return nil
}

// attachShard installs a handshaken backend connection as the member's
// slot and starts its reader.
func (r *Router) attachShard(m Member, bc *backendConn) *routerShard {
	ss := &routerShard{member: m, bc: bc}
	ss.pend.init()
	r.shardsMu.Lock()
	r.shards[m.ID] = ss
	r.shardsMu.Unlock()
	go r.shardReader(ss, bc)
	return ss
}

// dialBackend dials one shard and runs the hello handshake, verifying the
// peer announces the member ID the config claims.
func (r *Router) dialBackend(m Member) (*backendConn, error) {
	conn, err := net.DialTimeout("tcp", m.Addr, r.opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("server: dialing shard %d at %s: %w", m.ID, m.Addr, err)
	}
	fr := wire.NewFrameReader(conn)
	fw := wire.NewFrameWriter(conn)
	_ = conn.SetDeadline(time.Now().Add(r.opts.DialTimeout))
	hello, _, err := dialHello(fr, fw, "router", wire.ProtoMax)
	if err == nil && hello.ID != m.ID {
		err = fmt.Errorf("announced ID %d, config says %d — membership miswired", hello.ID, m.ID)
	}
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("server: shard %d at %s: %w", m.ID, m.Addr, err)
	}
	_ = conn.SetDeadline(time.Time{})
	return &backendConn{conn: conn, w: &lockedWriter{fw: fw, conn: conn, timeout: r.opts.WriteTimeout}, fr: fr}, nil
}

// shardReader drains one backend connection: load reports update admission,
// everything else routes back to the owning client by session ID. When the
// connection dies the reader kicks off the reconnect loop.
func (r *Router) shardReader(ss *routerShard, bc *backendConn) {
	fr := bc.fr
	var env wire.Envelope
	for {
		if err := fr.ReadEnvelopeReuse(&env); err != nil {
			ss.down.Store(true)
			// Outstanding frames will never be answered: drop them so a
			// stale head cannot keep admission shedding (the down flag
			// routes new requests to ErrShardDown, which names the real
			// failure, instead of a misleading overload shed).
			ss.pend.reset()
			select {
			case <-r.cs.done:
			default:
				if ss.removed.Load() {
					return // drained on purpose: no reconnect, no obituaries
				}
				r.logger.Printf("router: shard %d connection lost: %v", ss.member.ID, err)
				go r.reconnectShard(ss)
			}
			return
		}
		switch env.Type {
		case wire.MsgLoad:
			if sig, err := core.DecodeLoadSignal(env.Payload); err == nil {
				ss.setLoad(sig)
			}
		case wire.MsgMigrateSession:
			// Control plane, never client-bound: route to the in-flight
			// migration waiting on this session.
			r.migrateReply(ss, &env)
		case wire.MsgAnnotations, wire.MsgError:
			ss.pend.done(env.Session, env.Seq)
			r.deliver(&env)
		default:
			r.deliver(&env)
		}
	}
}

// reconnectShard redials a lost backend with capped exponential backoff.
// While it runs, requests for the shard fail fast with ErrShardDown but
// subscriptions stay tracked; on success the streams are replayed on the
// new connection, and only once the budget is spent are they failed.
func (r *Router) reconnectShard(ss *routerShard) {
	reconnects := r.reg.Counter("router.shard.reconnects")
	for attempt := 1; attempt <= r.opts.Retry.Attempts; attempt++ {
		select {
		case <-r.cs.done:
			return
		case <-time.After(r.opts.Retry.delay(attempt)):
		}
		if ss.removed.Load() {
			return // drained while we backed off: the slot is gone for good
		}
		bc, err := r.dialBackend(ss.member)
		if err != nil {
			r.logger.Printf("router: shard %d reconnect attempt %d/%d: %v",
				ss.member.ID, attempt, r.opts.Retry.Attempts, err)
			continue
		}
		// Install under the conn lock with shutdown and removal re-checks:
		// if Close already swept the shard slots — or a Drain detached this
		// one while we were dialling — the fresh conn must be torn down
		// here, because neither will come back for it.
		ss.connMu.Lock()
		if ss.removed.Load() {
			ss.connMu.Unlock()
			_ = bc.conn.Close()
			return
		}
		select {
		case <-r.cs.done:
			ss.connMu.Unlock()
			_ = bc.conn.Close()
			return
		default:
		}
		ss.bc = bc
		ss.connMu.Unlock()
		ss.down.Store(false)
		reconnects.Inc()
		go r.shardReader(ss, bc)
		r.replaySubscriptions(ss)
		r.logger.Printf("router: shard %d reconnected (attempt %d)", ss.member.ID, attempt)
		return
	}
	// Budget spent: the shard is gone as far as this router is concerned.
	// In-flight streams placed there now — and only now — surface
	// ErrShardDown.
	ss.dead.Store(true)
	r.failStreams(ss)
	r.logger.Printf("router: shard %d reconnect budget (%d attempts) spent; failing its streams",
		ss.member.ID, r.opts.Retry.Attempts)
}

// replaySubscriptions re-forwards MsgSubscribe for every tracked stream
// the ring places on the shard, rebuilding server-side streams a backend
// bounce destroyed. Replayed subscribes carry Seq 0: the shard's acks are
// delivered to clients, which ignore acks for requests they never made.
func (r *Router) replaySubscriptions(ss *routerShard) {
	ring := r.dir.View().Ring()
	r.subsMu.Lock()
	replay := make(map[uint64][]byte, len(r.subs))
	for id, e := range r.subs {
		if ring.Pick(id).ID == ss.member.ID {
			// The replayed server-side stream restarts its push counter at
			// 1; shift the rebase base so the wire seq stays strictly
			// increasing through the bounce.
			e.rebase()
			replay[id] = e.payload
		}
	}
	r.subsMu.Unlock()
	for id, payload := range replay {
		if err := ss.forward(&wire.Envelope{Type: wire.MsgSubscribe, Session: id, Payload: payload}); err != nil {
			r.logger.Printf("router: replaying subscription for session %d: %v", id, err)
		}
	}
	// Sweep for subscriptions that ended between the snapshot and the
	// forward: their unsubscribe or CtrlEndSession raced the replay (a
	// no-op on the new connection, which didn't know the session yet), so
	// the subscribe above would otherwise resurrect a zombie stream
	// nobody ends. The shard knows the session now via the replayed
	// subscribe, so the corrective message lands — an unsubscribe for a
	// still-connected client (only its stream ended), a full end-session
	// for a client that is gone.
	r.subsMu.Lock()
	var stale []uint64
	for id := range replay {
		if _, ok := r.subs[id]; !ok {
			stale = append(stale, id)
		}
	}
	r.subsMu.Unlock()
	for _, id := range stale {
		r.sessMu.RLock()
		connected := r.sessions[id] != nil
		r.sessMu.RUnlock()
		if connected {
			_ = ss.forward(&wire.Envelope{Type: wire.MsgUnsubscribe, Session: id})
		} else {
			_ = ss.forward(&wire.Envelope{Type: wire.MsgControl, Session: id,
				Payload: []byte{CtrlEndSession}})
		}
	}
}

// failStreams delivers the stream-fatal ErrShardDown to every subscribed
// client placed on the shard. The error rides the push outbox with Seq 0 —
// the slot request/reply traffic never uses — so clients recognise it as
// the stream's obituary rather than a reply.
func (r *Router) failStreams(ss *routerShard) {
	ring := r.dir.View().Ring()
	r.subsMu.Lock()
	var ids []uint64
	for id := range r.subs {
		if ring.Pick(id).ID == ss.member.ID {
			ids = append(ids, id)
			delete(r.subs, id)
		}
	}
	r.subsMu.Unlock()
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

// deliver routes one shard envelope to its client's outbox: copied into a
// pooled buffer (the payload aliases the shard reader's buffer, which the
// next read reuses) and queued, never written here — a slow client must
// cost itself, not stall the shard reader. Pushed frames are pushes; every
// other envelope answers a request the client made and is a reply. Frames,
// polled or pushed, fly: the router-side flight opens here, at arrival, and
// its spans cover the client outbox wait and the client write.
func (r *Router) deliver(env *wire.Envelope) {
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
}

// rebasePush maps a stream's raw push counter onto the wire seq its client
// sees, reporting false for a push that must not be delivered. A migrated
// (or replayed) server-side stream restarts at 1, but the wire contract
// toward the client is a strictly increasing seq. Delta pushes ride the
// same path as full pushes, payload opaque: rebasing shifts every seq by
// the same constant within an epoch, so the seq-contiguity rule delta
// application depends on is preserved, and an epoch restart's first push is
// always a keyframe (a fresh server-side stream keys its push 1). Two stale
// cases drop: after a rebase, a raw seq above lastRaw is a straggler of the
// replaced stream (the real replacement announces itself by restarting at
// or below lastRaw — raw counters are per-stream contiguous, so only a
// restart can move backwards); and a rebased value at or below `last` is a
// duplicate.
func (r *Router) rebasePush(session, raw uint64) (seq uint64, fresh bool) {
	r.subsMu.Lock()
	defer r.subsMu.Unlock()
	e := r.subs[session]
	if e == nil {
		return raw, true
	}
	if e.restart && e.lastRaw > 0 && raw > e.lastRaw && time.Since(e.rebasedAt) < stragglerWindow {
		return 0, false
	}
	seq = e.base + raw
	if seq <= e.last {
		return 0, false
	}
	e.restart = false
	e.lastRaw = raw
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

// Close stops accepting clients, closes admin, client and backend
// connections, and waits for handlers. Idempotent.
func (r *Router) Close() error {
	r.closeOnce.Do(func() {
		r.closeErr = r.cs.close()
		if r.admin != nil {
			if err := r.admin.close(); err != nil && r.closeErr == nil {
				r.closeErr = err
			}
		}
		r.shardsMu.Lock()
		for _, ss := range r.shards {
			if bc := ss.backend(); bc != nil {
				_ = bc.conn.Close()
			}
		}
		r.shardsMu.Unlock()
	})
	return r.closeErr
}

// EffectiveDeadline reports the admission budget the router currently
// applies to frame requests bound for the given shard member.
func (r *Router) EffectiveDeadline(memberID uint64) time.Duration {
	ss := r.shard(memberID)
	if ss == nil {
		return r.opts.Deadline
	}
	return r.gate.effective(ss.loadSignal())
}

// trackSub records a live subscription for replay; untrackSub forgets it.
// A re-subscribe keeps the rebase state: the client's stream identity
// survives a cadence change, so its seq contract must too.
func (r *Router) trackSub(session uint64, payload []byte) {
	r.subsMu.Lock()
	if e := r.subs[session]; e != nil {
		e.payload = append([]byte(nil), payload...)
		e.rebase() // the replacement server-side stream restarts at 1
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

// serveClient speaks the standalone server's client protocol, with the
// frame work a forward hop away. The owning shard is resolved per envelope
// against the current membership epoch, and forwards serialise against the
// session's migration gate — a session mid-migration pauses here for the
// export→import→replay window rather than racing its own state across
// nodes. Like the session-serving loop (conn.go) it only reads: whatever
// the client is owed goes through its outbox, and the loop parks while
// replyWindow replies are unwritten.
func (r *Router) serveClient(conn net.Conn) {
	fr := wire.NewFrameReader(conn)
	// The version the client settles on needs no tracking here: what it may
	// send is decided end to end, by the shard its envelopes reach.
	_, helloSeq, err := acceptHello(conn, fr)
	if err != nil {
		r.logger.Printf("router: handshake with %v: %v", conn.RemoteAddr(), err)
		return
	}
	id := r.nextSess.Add(1)
	// No onDrop hook on this hop: a dropped delta reaches the client as a
	// seq gap, and its keyframe-request ack forwards to the shard like any
	// other envelope.
	cl := &routerClient{out: newOutbox(conn, routerPushQueue, r.pushesDropped, nil)}
	r.sessMu.Lock()
	r.sessions[id] = cl
	r.sessMu.Unlock()
	defer func() {
		r.sessMu.Lock()
		delete(r.sessions, id)
		r.sessMu.Unlock()
		r.untrackSub(id)
		// Close the conn before waiting out the outbox writer, which may
		// be mid-write to a stalled client.
		_ = conn.Close()
		cl.out.close()
		// Tell the owning shard the session is over so its registry doesn't
		// grow for the life of the backend connection. Gated: a migration
		// in flight finishes first, so the end lands on the new owner.
		r.route(cl, id, &wire.Envelope{Type: wire.MsgControl, Session: id, Payload: []byte{CtrlEndSession}})
	}()
	cl.out.enqueue(helloReply(helloSeq, id, "router"))

	var env wire.Envelope
	for {
		cl.out.awaitReplies(replyWindow - 1)
		if err := fr.ReadEnvelopeReuse(&env); err != nil {
			return // EOF or broken pipe: session over
		}
		env.Session = id // the router owns placement; clients cannot choose
		switch env.Type {
		case wire.MsgHello:
			// Answered here, never forwarded — and only once: the connection
			// does not survive a second one.
			cl.out.fail(id, env.Seq, "server: hello after handshake")
			cl.out.awaitReplies(0)
			return
		case wire.MsgControl:
			// Control payloads are router↔shard vocabulary (CtrlEndSession
			// tears a session down, silently). The client-facing protocol
			// treats any control as a ping, so strip the payload rather
			// than let a client envelope collide with an internal verb.
			env.Payload = nil
		}
		if !r.route(cl, id, &env) {
			return // router shutting down; nothing can be forwarded
		}
	}
}

// route makes the admission decision for one client envelope and forwards
// it to the session's current owner under the session's migration gate and
// the membership-change read lock; an envelope the router answers itself (a
// shed, an unreachable owner) gets its reply queued on the client's outbox,
// which never blocks — a client that went away cannot hold these locks, and
// through them every membership change (gateAll waits on fwdMu) and the
// whole data plane. It reports false only when the router is shutting down.
//
// The locks span the whole decide-and-forward sequence so the shard
// consulted for admission is the shard the envelope reaches: without
// that, a migration between the pend-FIFO add and the forward would
// strand an entry on the old shard's FIFO and poison its admission clock.
func (r *Router) route(cl *routerClient, id uint64, env *wire.Envelope) (ok bool) {
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
		case <-r.cs.done:
			return false
		}
	}
	defer func() {
		cl.fwdMu.Unlock()
		r.changeMu.RUnlock()
	}()
	ss := r.shardFor(id)
	if ss == nil {
		// Epoch names an owner with no live slot: only reachable in the
		// router's own shutdown window.
		r.replyShardDown(cl, id, env)
		return true
	}
	if env.Type == wire.MsgSubscribe {
		// Track before the forward: a shard bounce in the gap would
		// otherwise snapshot r.subs without this stream — never
		// replayed, never given an obituary, a silently dead channel.
		// The forward-failure path below and the reconnect sweep both
		// clean up if the subscribe never actually took.
		r.trackSub(id, env.Payload)
		if sub, err := wire.DecodeSubscribe(env.Payload); err == nil {
			// Honour the subscription's queue budget on this hop too —
			// the shard grows its outbox per subscription, and capping
			// here would silently undercut the knob in exactly the
			// topology streaming was built for.
			cl.out.grow(pushBudget(sub))
		}
	}
	if env.Type == wire.MsgFrameRequest {
		if r.shedNow(ss) {
			r.framesShed.Inc()
			cl.out.fail(id, env.Seq, ErrRouterShed.Error())
			return true
		}
		ss.pend.add(id, env.Seq, time.Now())
	}
	if err := ss.forward(env); err != nil {
		r.forwardErrs.Inc()
		if env.Type == wire.MsgFrameRequest {
			ss.pend.done(id, env.Seq)
		}
		// The stream intent didn't reach the shard: an unsent
		// subscribe must not be replayed onto a reconnected shard,
		// and a failed unsubscribe still records the client's intent
		// so the reconnect replay can't resurrect the stream.
		if env.Type == wire.MsgSubscribe || env.Type == wire.MsgUnsubscribe {
			r.untrackSub(id)
		}
		r.replyShardDown(cl, id, env)
		return true
	}
	if env.Type == wire.MsgUnsubscribe {
		r.untrackSub(id)
	}
	return true
}

// replyShardDown answers request/reply traffic whose owner is unreachable;
// sensor streams are one-way, so the client finds out on its next request.
func (r *Router) replyShardDown(cl *routerClient, id uint64, env *wire.Envelope) {
	switch env.Type {
	case wire.MsgFrameRequest, wire.MsgControl, wire.MsgSubscribe, wire.MsgUnsubscribe:
		cl.out.fail(id, env.Seq, ErrShardDown.Error())
	}
}

// shedNow applies lag-aware admission for one shard: the base deadline is
// tightened by the shard's reported load, and compared against the age of
// the shard's oldest outstanding frame request — if the shard hasn't kept
// up with what it already has within the effective budget, a new frame
// would wait at least as long, so shed it here instead of paying the hop.
func (r *Router) shedNow(ss *routerShard) bool {
	if ss.down.Load() {
		return false // let forward() report ErrShardDown, not a fake shed
	}
	d := r.gate.effective(ss.loadSignal())
	if d <= 0 {
		return false // shedding disabled
	}
	return ss.pend.headAge(time.Now()) > d
}

// pendKey identifies one outstanding frame request.
type pendKey struct {
	session, seq uint64
}

// pendingFrames tracks a shard's outstanding (forwarded, unanswered) frame
// requests so admission can measure how far behind the shard is: a FIFO of
// enqueue times plus a liveness map, with answered entries popped lazily
// from the head.
type pendingFrames struct {
	mu   sync.Mutex
	fifo []pendEntry
	live map[pendKey]struct{}
}

type pendEntry struct {
	key pendKey
	at  time.Time
}

func (p *pendingFrames) init() {
	p.live = make(map[pendKey]struct{})
}

func (p *pendingFrames) add(session, seq uint64, at time.Time) {
	k := pendKey{session, seq}
	p.mu.Lock()
	p.live[k] = struct{}{}
	p.fifo = append(p.fifo, pendEntry{key: k, at: at})
	p.mu.Unlock()
}

// done marks a reply received. Unknown keys (error replies to sensor
// envelopes, duplicate replies) are ignored. Compaction happens here as
// well as in headAge so the FIFO stays bounded by the outstanding count
// even when admission never reads it (shedding disabled, shard down).
func (p *pendingFrames) done(session, seq uint64) {
	p.mu.Lock()
	delete(p.live, pendKey{session, seq})
	p.compactLocked()
	p.mu.Unlock()
}

// reset discards all outstanding entries (the backing connection died; no
// reply is coming).
func (p *pendingFrames) reset() {
	p.mu.Lock()
	p.fifo = p.fifo[:0]
	clear(p.live)
	p.mu.Unlock()
}

// compactLocked pops answered entries off the FIFO head; callers hold mu.
func (p *pendingFrames) compactLocked() {
	i := 0
	for ; i < len(p.fifo); i++ {
		if _, ok := p.live[p.fifo[i].key]; ok {
			break
		}
	}
	if i > 0 {
		n := copy(p.fifo, p.fifo[i:])
		p.fifo = p.fifo[:n]
	}
}

// headAge returns how long the oldest still-outstanding frame request has
// waited (zero when nothing is outstanding).
func (p *pendingFrames) headAge(now time.Time) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.compactLocked()
	if len(p.fifo) == 0 {
		return 0
	}
	return now.Sub(p.fifo[0].at)
}

// The one accept-side connection loop (connServer.serve), which every
// listener runs — standalone server, shard, router clients, router admin —
// and the session-serving handler a node plugs into it. A node is an Engine
// behind a listener; its handler serves in the role the node was built for:
//
//   - client-facing (the standalone Server): the connection owns exactly one
//     session, created once the handshake succeeded. The envelope Session
//     field is ignored, any control is a ping, and the router↔shard
//     vocabulary is not spoken.
//   - backend (the Shard): a router's connection multiplexes many sessions,
//     each envelope addressed by Session; the connection owns the sessions
//     it materialised, understands CtrlEndSession and MsgMigrateSession,
//     and pushes the node's load signal.
//
// The role is the handler's only parameter. On both, sensor envelopes are
// applied inline on the connection goroutine (cheap state updates) and
// frame requests go to the engine's shared scheduler — render work is
// bounded by the worker pool, not by the connection count, and one slow
// frame does not head-of-line-block the connection.
//
// The loop only reads. Once the handshake has succeeded, everything the
// connection is sent — the hello reply, acks, errors, polled frames,
// pushed frames, migrate replies, load reports — is enqueued on the
// connection's outbox (stream.go), whose writer goroutine is the only
// writer; what the loop, the scheduler workers and the load ticker enqueue
// reaches the wire in queue order. A peer that stops reading costs itself:
// its pushes drop oldest-first, and its own read loop parks once
// replyWindow replies are owed — unwritten, or still waiting for a worker.
package server

import (
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"arbd/internal/core"
	"arbd/internal/wire"
)

// helloTimeout bounds how long an accepted connection may stay silent
// before its hello. A variable so tests can shorten it.
var helloTimeout = 5 * time.Second

// backendPushQueue is the minimum push capacity of a backend connection's
// outbox, which multiplexes many sessions' streams toward one router.
const backendPushQueue = 64

// replyWindow is how many replies an accepted connection may owe — queued,
// unwritten, or a polled frame not yet rendered — before its own read loop
// stops taking envelopes: the bound on what a peer that sends requests and
// never reads can make a node queue for it, in the outbox and the frame
// scheduler alike. A dialer's sensor sender parks at the same bound.
const replyWindow = 64

// Bounds on a router's backend connections: each dial plus hello, and each
// batch of forwards (backendWriter).
const (
	backendDialTimeout  = 5 * time.Second
	backendWriteTimeout = 10 * time.Second
)

// node is a session-serving listener: what Server and Shard both are.
type node struct {
	eng *Engine
	cs  *connServer
	// backend selects the role (see the file comment); id and cs.name are
	// the identity a backend node announces in its hello (a client-facing
	// node announces the connection's session ID instead).
	backend bool
	id      uint64
	// loadEvery > 0 pushes load() on every connection at that interval.
	loadEvery time.Duration
	load      func() core.LoadSignal
}

func newNode(p *core.Platform, logger *log.Logger, workers int, name string) *node {
	n := &node{eng: newEngine(p, workers), load: p.LoadSignal}
	n.cs = newConnServer(logger, name, n.open)
	return n
}

// Listen binds addr and starts accepting connections. It returns the bound
// address (useful with ":0").
func (n *node) Listen(addr string) (string, error) { return n.cs.listen(addr) }

// Close stops accepting, closes live connections, and waits for handlers.
// It is idempotent.
func (n *node) Close() error {
	err := n.cs.close()
	n.eng.Close()
	return err
}

// sendEnvelope frames, writes and flushes one envelope on a connection no
// outbox writes yet: the dialer's hello, or an accepted connection's
// refusal of its handshake.
func sendEnvelope(fw *wire.FrameWriter, env *wire.Envelope) error {
	if err := fw.WriteEnvelope(env); err != nil {
		return err
	}
	return fw.Flush()
}

// acceptHello reads the mandatory first envelope of an accepted connection
// and settles the protocol version: every accepted connection opens with
// the dialer's hello. Anything else — silence past helloTimeout, another
// message type, an undecodable hello, a version below wire.ProtoMin — fails
// closed: the typed error goes back as a MsgError, the one envelope an
// accepted connection is ever written outside its outbox, and the caller
// drops the connection.
func acceptHello(conn net.Conn, fr *wire.FrameReader) (proto uint32, seq uint64, err error) {
	_ = conn.SetReadDeadline(time.Now().Add(helloTimeout))
	env, err := fr.ReadEnvelope()
	if err != nil {
		return 0, 0, fmt.Errorf("server: reading hello: %w", err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	var peer wire.Hello
	if env.Type != wire.MsgHello {
		err = fmt.Errorf("server: connection opened with %v, want hello", env.Type)
	} else if peer, err = wire.DecodeHello(env.Payload); err == nil {
		proto, err = wire.Negotiate(wire.ProtoMax, peer.Version, wire.ProtoMin)
	}
	if err != nil {
		_ = sendEnvelope(wire.NewFrameWriter(conn), &wire.Envelope{Type: wire.MsgError, Seq: env.Seq, Payload: []byte(err.Error())})
	}
	return proto, env.Seq, err
}

// accepted is a role's side of one connection, built once its hello
// succeeded: its outbox, the ID its hello reply announces, its envelope
// handler, and its teardown, run once the conn and outbox have closed.
type accepted struct {
	out    *outbox
	id     uint64
	handle func(in *wire.Envelope)
	closed func()
}

// serve is the connection loop of every listener: the handshake, then one
// envelope at a time until the peer goes away or hellos again. Write errors
// are not acted on — a dead connection fails the next read, and the
// teardown runs once, from here.
func (cs *connServer) serve(conn net.Conn) {
	fr := wire.NewFrameReader(conn)
	proto, helloSeq, err := acceptHello(conn, fr)
	if err != nil {
		cs.logger.Printf("%s: handshake with %v: %v", cs.name, conn.RemoteAddr(), err)
		return
	}
	a := cs.open(conn, proto)
	defer func() {
		// Close the conn first so an outbox writer blocked on a stalled peer
		// fails out instead of wedging the role's teardown.
		_ = conn.Close()
		a.out.close()
		a.closed()
	}()
	// In a server→client hello the ID is the connection's session.
	var hello wire.Buffer
	wire.EncodeHelloInto(&hello, wire.Hello{ID: a.id, Name: cs.name, Version: wire.ProtoMax})
	a.out.enqueue(outMsg{env: wire.Envelope{Type: wire.MsgHello, Seq: helloSeq, Session: a.id, Payload: hello.Bytes()}, reply: true})

	// One inbound envelope, reused across messages: its payload aliases the
	// frame reader's buffer and is fully handled before the next read.
	var in wire.Envelope
	for {
		// The reply bound: no further envelope is taken while replyWindow
		// replies to this connection are owed.
		a.out.awaitReplies(replyWindow - 1)
		if err := fr.ReadEnvelopeReuse(&in); err != nil {
			return
		}
		if in.Type == wire.MsgHello {
			// The handshake is over; the connection does not survive a
			// second one. The refusal is written before the hang-up.
			a.out.fail(in.Session, in.Seq, "server: hello after handshake")
			a.out.awaitReplies(0)
			return
		}
		a.handle(&in)
	}
}

// sessConn is one session-serving connection's state: what its handler,
// the frame workers answering it and its streams all reach.
type sessConn struct {
	n     *node
	proto uint32 // the version the handshake settled
	// out is the connection's write side; every reply and every push is
	// enqueued here.
	out *outbox
	// own is the client-facing role's single session (nil on a backend
	// connection); owned is every session this connection materialised, so
	// a dropped connection ends them instead of stranding them in the
	// registry. Both are touched only by the read loop.
	own   *core.Session
	owned map[uint64]struct{}
	// inflight lets teardown wait for outstanding frame callbacks before
	// the owned sessions end. The connection's streams, one per subscribed
	// session and all multiplexed onto out, live in the engine's registry
	// under out.
	inflight sync.WaitGroup
}

// session resolves the session an envelope addresses, materialising it on a
// backend connection's first sight. It runs per envelope: the owned map is
// written only the first time the connection sees the session.
func (c *sessConn) session(id uint64) *core.Session {
	if c.own != nil {
		return c.own
	}
	sess := c.n.eng.platform.SessionOrNew(id)
	if _, seen := c.owned[id]; !seen {
		c.owned[id] = struct{}{}
	}
	return sess
}

// endSession ends one owned session, stream first.
func (c *sessConn) endSession(id uint64) {
	delete(c.owned, id)
	c.n.eng.stopStream(c.out, id) // the stream must not outlive its session
	c.n.eng.platform.DetachSession(id)
}

// open builds a session-serving connection once its hello succeeded.
func (n *node) open(conn net.Conn, proto uint32) accepted {
	c := &sessConn{n: n, proto: proto, owned: make(map[uint64]struct{})}
	// The push capacity starts at one slot and follows the live
	// subscriptions' budgets (addReserve). A backend connection multiplexes
	// many sessions' streams and carries the load reports: its floor keeps
	// one session's tiny budget from bounding everyone.
	capacity, helloID := 1, n.id
	if n.backend {
		capacity = backendPushQueue
	} else {
		c.own = n.eng.platform.NewSession()
		c.owned[c.own.ID] = struct{}{}
		helloID = c.own.ID
	}
	c.out = newOutbox(conn, capacity, c.dropped)
	// The load reporter starts before the hello reply is queued: once the
	// dialer has read the reply, every goroutine serving this connection
	// exists. Its first report is a full loadEvery away, behind the reply.
	if n.loadEvery > 0 {
		go n.loadLoop(c.out)
	}
	return accepted{out: c.out, id: helloID, handle: c.handle, closed: c.closed}
}

// dropped is the outbox's drop hook: a dropped frame push counts as a stream
// drop and keys the session's next push; a dropped load report is neither.
func (c *sessConn) dropped(t wire.MsgType, session uint64) {
	if t == wire.MsgFramePush || t == wire.MsgFrameDelta {
		c.n.eng.streamDropped.Inc()
		if st := c.n.eng.stream(c.out, session); st != nil && st.delta {
			st.forceKey.Store(true)
		}
	}
}

// closed stops the streams and waits out their frames and the polled ones;
// only then does it end the sessions they rendered.
func (c *sessConn) closed() {
	c.n.eng.stopStreams(c.out)
	c.inflight.Wait()
	for id := range c.owned {
		c.endSession(id)
	}
}

// handle serves one envelope.
//
//arbd:dispatch
func (c *sessConn) handle(in *wire.Envelope) {
	n := c.n
	if c.own != nil {
		in.Session = c.own.ID // the connection's session; clients cannot choose
	} else if in.Session == 0 {
		c.out.fail(0, in.Seq, "server: shard envelope without session")
		return
	}
	switch in.Type {
	case wire.MsgSensorEvent:
		// Applied inline, in arrival order; one-way unless malformed.
		if err := applySensor(c.session(in.Session), in.Payload); err != nil {
			c.out.fail(in.Session, in.Seq, err.Error())
		}
	case wire.MsgFrameRequest:
		c.submitFrame(c.session(in.Session), in.Seq)
	case wire.MsgSubscribe:
		sub, err := wire.DecodeSubscribe(in.Payload)
		if err != nil {
			c.out.fail(in.Session, in.Seq, err.Error())
			return
		}
		// A re-subscribe replaces the stream: the old one stops — its last
		// push queued — before the ack, and the new one starts after it, so
		// on the wire the ack separates the two streams' pushes.
		n.eng.stopStream(c.out, in.Session)
		c.out.ack(in)
		// Delta pushes only when the subscriber asked and this
		// connection negotiated v4 (through a router: the flag rides the
		// forwarded payload, and the router↔shard link must speak v4 for
		// MsgFrameDelta to be legal on it).
		delta := c.proto >= wire.ProtoV4 && sub.Flags&wire.SubFlagDelta != 0
		// The stream is registered before its first push exists, so the
		// outbox's drop hook finds it to key the next push if that one
		// is dropped; the first tick then pushes at once.
		n.eng.newStream(c.session(in.Session), sub, c.out, delta).tick(time.Now())
	case wire.MsgUnsubscribe:
		// Never resolves the session: unsubscribing one that never
		// subscribed must not materialise it. Idempotent.
		n.eng.stopStream(c.out, in.Session)
		c.out.ack(in)
	case wire.MsgAck:
		// Client frame-ack (protocol v4): fire-and-forget progress and
		// resync requests. Never answered, and never resolves the
		// session — an ack racing its stream's teardown is a no-op.
		if a, err := wire.DecodeFrameAck(in.Payload); err == nil {
			if st := n.eng.stream(c.out, in.Session); st != nil {
				st.ack(a)
			}
		}
	case wire.MsgControl:
		if n.backend && len(in.Payload) > 0 && in.Payload[0] == CtrlEndSession {
			// One-way (the client is already gone), and a no-op for a
			// session that never sent traffic: it must not be built
			// just to be torn down.
			if _, live := c.owned[in.Session]; live {
				c.endSession(in.Session)
			}
			return
		}
		c.out.ack(in) // ping
	case wire.MsgMigrateSession:
		if n.backend {
			c.migrate(in)
			return
		}
		fallthrough // router↔shard vocabulary is not spoken to clients
	case wire.MsgHello, // refused by connServer.serve before it gets here
		wire.MsgAnnotations, wire.MsgQuery, wire.MsgQueryResult, wire.MsgError, wire.MsgLoad,
		wire.MsgFramePush, wire.MsgJoinShard, wire.MsgLeaveShard, wire.MsgMembership, wire.MsgFrameDelta:
		c.out.fail(in.Session, in.Seq, fmt.Sprintf("server: unsupported message %v", in.Type))
	}
}

// migrate serves one MsgMigrateSession on a backend connection. An empty
// payload exports the session: freeze its stream, purge its queued pushes,
// snapshot, detach, reply. A non-empty payload is a snapshot to import:
// rebuild the session and own it.
func (c *sessConn) migrate(in *wire.Envelope) {
	platform := c.n.eng.platform
	var buf wire.Buffer // the reply payload: a status byte, then its body
	reply := func() {
		c.out.enqueue(outMsg{env: wire.Envelope{Type: wire.MsgMigrateSession, Seq: in.Seq, Session: in.Session, Payload: buf.Bytes()}, reply: true})
	}
	if len(in.Payload) > 0 {
		if _, err := platform.RestoreSession(in.Payload); err != nil {
			buf.Byte(MigFailed)
			buf.Append([]byte(err.Error()))
			reply()
			return
		}
		c.owned[in.Session] = struct{}{}
		buf.Byte(MigImported)
		reply()
		return
	}
	buf.Byte(MigExported)
	_, live := c.owned[in.Session]
	sess, ok := platform.Session(in.Session)
	if !live || !ok {
		// The session never reached this node (client connected but sent
		// nothing yet) or already ended: nothing to move. An empty export
		// tells the router to re-home the session with fresh state instead
		// of failing the drain.
		reply()
		return
	}
	// Stop the stream first: stopping waits out the in-flight frame, so
	// its push is enqueued (and then purged) before the snapshot is taken,
	// and the reply, queued last, cannot be overtaken by one.
	// Pipelined MsgFrameRequests still queued on the scheduler are NOT
	// waited for: they hold no sensor state (that was applied inline, in
	// arrival order), and EncodeSnapshotInto serialises with a running
	// frame via the session lock — a queued one just replies after the
	// snapshot, its frames/overruns counter bump staying on this side.
	// Waiting would couple the export to every other session's queue depth
	// for a cosmetic counter.
	c.n.eng.stopStream(c.out, in.Session)
	c.out.purge(in.Session)
	sess.EncodeSnapshotInto(&buf)
	delete(c.owned, in.Session)
	platform.DetachSession(in.Session)
	reply()
}

// submitFrame schedules one polled frame. Its reply is staged and queued
// from the worker (delivery), so the read loop keeps draining envelopes
// while the frame renders; replies carry the request's seq and may overtake
// one another. The reply is owed from here, the request's read, where the
// frame's flight also opens: while it waits for a worker, renders or sits
// unwritten it counts against replyWindow, which is what bounds the
// scheduler's queue on a connection that keeps polling.
//
//arbd:hotpath
func (c *sessConn) submitFrame(sess *core.Session, seq uint64) {
	eng := c.n.eng
	d := eng.deliveries.Get().(*delivery)
	d.eng, d.out, d.inflight, d.session, d.seq = eng, c.out, &c.inflight, sess.ID, seq
	d.fl = eng.rec.Begin(sess.ID, time.Now())
	c.inflight.Add(1)
	c.out.expect(1)
	if err := eng.sched.Submit(sess, d.visitFn, d.doneFn); err != nil {
		d.done(err) // scheduler closed: the callbacks will not fire
	}
}

// loadLoop pushes the node's LoadSignal on the connection until its outbox
// closes, so the router's view of this shard's pressure stays fresh. A
// report is a push: one the router has not read by the time newer ones
// queue behind it is the first to go.
func (n *node) loadLoop(out *outbox) {
	ticker := time.NewTicker(n.loadEvery)
	defer ticker.Stop()
	for {
		select {
		case <-out.done:
			return
		case <-ticker.C:
			buf := n.eng.bufs.Get().(*wire.Buffer)
			buf.Reset()
			core.EncodeLoadSignalInto(buf, n.load())
			if !out.enqueue(outMsg{env: wire.Envelope{Type: wire.MsgLoad, Payload: buf.Bytes()}, buf: buf, pool: &n.eng.bufs}) {
				return
			}
		}
	}
}

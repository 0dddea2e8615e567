// The one session-serving connection loop. A node is an Engine behind a
// listener; every connection it accepts runs node.serveConn, in the role
// the node was built for:
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
// The role is the loop's only parameter. On both, sensor envelopes are
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
// replyWindow replies are unwritten.
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

// replyWindow is how many replies an accepted connection may have unwritten
// before its own read loop stops taking envelopes: the bound on what a peer
// that sends requests and never reads can make a node queue for it.
const replyWindow = 64

// node is a session-serving listener: what Server and Shard both are.
type node struct {
	eng *Engine
	cs  *connServer
	// backend selects the role (see the file comment); id and name are the
	// identity a backend node announces in its hello (a client-facing node
	// announces the connection's session ID instead).
	backend bool
	id      uint64
	name    string
	// loadEvery > 0 pushes load() on every connection at that interval.
	loadEvery time.Duration
	load      func() core.LoadSignal
}

func newNode(p *core.Platform, logger *log.Logger, opts Options) *node {
	n := &node{eng: NewEngine(p, opts), name: "server", load: p.LoadSignal}
	n.cs = newConnServer(logger, n.serveConn)
	return n
}

// Engine exposes the node's frame-serving engine.
func (n *node) Engine() *Engine { return n.eng }

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

// sendEnvelope frames, writes and flushes one envelope on a writer the
// caller has to itself: a dialler's side of a connection, or an accepted
// connection whose handshake is being refused.
func sendEnvelope(fw *wire.FrameWriter, env *wire.Envelope) error {
	if err := fw.WriteEnvelope(env); err != nil {
		return err
	}
	return fw.Flush()
}

// acceptHello reads the mandatory first envelope of an accepted connection
// and settles the protocol version: every session-serving, backend and
// router client connection opens with the dialer's hello. Anything else —
// silence past helloTimeout, another message type, an undecodable hello, a
// version below wire.ProtoMin — fails closed: the typed error goes back as
// a MsgError, the one envelope an accepted connection is ever written
// outside its outbox, and the caller drops the connection. On success the
// caller starts the outbox and answers with helloReply at the returned seq.
func acceptHello(conn net.Conn, fr *wire.FrameReader) (proto uint32, seq uint64, err error) {
	_ = conn.SetReadDeadline(time.Now().Add(helloTimeout))
	env, err := fr.ReadEnvelope()
	if err != nil {
		return 0, 0, fmt.Errorf("server: reading hello: %w", err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	if proto, err = checkHello(env); err != nil {
		_ = sendEnvelope(wire.NewFrameWriter(conn), &wire.Envelope{Type: wire.MsgError, Seq: env.Seq, Payload: []byte(err.Error())})
	}
	return proto, env.Seq, err
}

// checkHello holds one received envelope to being a usable hello: the
// type, a payload that decodes, a version this build speaks.
func checkHello(env *wire.Envelope) (proto uint32, err error) {
	if env.Type != wire.MsgHello {
		return 0, fmt.Errorf("server: connection opened with %v, want hello", env.Type)
	}
	peer, err := wire.DecodeHello(env.Payload)
	if err != nil {
		return 0, err
	}
	return wire.Negotiate(wire.ProtoMax, peer.Version, wire.ProtoMin)
}

// helloReply answers an accepted hello with this side's identity; in a
// server→client reply id is the session the connection was assigned. It is
// the first message on the connection's outbox.
func helloReply(seq, id uint64, name string) outMsg {
	var buf wire.Buffer
	wire.EncodeHelloInto(&buf, wire.Hello{ID: id, Name: name, Version: wire.ProtoMax})
	return outMsg{env: wire.Envelope{Type: wire.MsgHello, Seq: seq, Session: id, Payload: buf.Bytes()}, reply: true}
}

// dialHello runs the dialer's half of the handshake on a fresh connection:
// announce name and maxProto, read the listener's hello, settle the
// version. The caller owns the connection's deadline. A version mismatch
// surfaces as a *wire.VersionError.
func dialHello(fr *wire.FrameReader, fw *wire.FrameWriter, name string, maxProto uint32) (peer wire.Hello, proto uint32, err error) {
	var buf wire.Buffer
	wire.EncodeHelloInto(&buf, wire.Hello{Name: name, Version: maxProto})
	if err = sendEnvelope(fw, &wire.Envelope{Type: wire.MsgHello, Payload: buf.Bytes()}); err != nil {
		return peer, 0, fmt.Errorf("sending hello: %w", err)
	}
	env, err := fr.ReadEnvelope()
	if err != nil {
		return peer, 0, fmt.Errorf("reading hello: %w", err)
	}
	switch env.Type {
	case wire.MsgHello:
	case wire.MsgError:
		return peer, 0, fmt.Errorf("hello rejected: %s", env.Payload)
	default:
		return peer, 0, fmt.Errorf("hello answered with %v", env.Type)
	}
	if peer, err = wire.DecodeHello(env.Payload); err != nil {
		return peer, 0, err
	}
	proto, err = wire.Negotiate(maxProto, peer.Version, wire.ProtoMin)
	return peer, proto, err
}

// sessConn is one session-serving connection's state: what its read loop,
// the frame workers answering it and its streams all reach.
type sessConn struct {
	n *node
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
	// the owned sessions end.
	inflight sync.WaitGroup
	// One stream per subscribed session, all multiplexed onto out.
	streams streamSet
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
	c.streams.remove(id) // the stream must not outlive its session
	if err := c.n.eng.platform.EndSession(id); err != nil {
		c.n.cs.logger.Printf("%s: ending session %d: %v", c.n.name, id, err)
	}
}

// serveConn is the connection loop of both session-serving roles: the
// handshake, then one envelope at a time until the peer goes away. Write
// errors are not acted on — a dead connection fails the next read, and the
// deferred teardown runs once, from here.
//
//arbd:dispatch
func (n *node) serveConn(conn net.Conn) {
	fr := wire.NewFrameReader(conn)
	proto, helloSeq, err := acceptHello(conn, fr)
	if err != nil {
		n.cs.logger.Printf("%s: handshake with %v: %v", n.name, conn.RemoteAddr(), err)
		return
	}
	c := &sessConn{n: n, owned: make(map[uint64]struct{})}
	// The push capacity starts at one slot and follows the live
	// subscriptions' budgets (addReserve). A backend connection multiplexes
	// many sessions' streams and carries the load reports: its floor keeps
	// one session's tiny budget from bounding everyone. Outbox drops feed
	// back into the stream: a delta subscriber whose push was dropped needs
	// its next push keyed.
	capacity, helloID := 1, n.id
	if n.backend {
		capacity = backendPushQueue
	} else {
		c.own = n.eng.platform.NewSession()
		c.owned[c.own.ID] = struct{}{}
		helloID = c.own.ID
	}
	c.out = newOutbox(conn, capacity, n.eng.streamDropped, c.streams.forceKeyframe)

	// Teardown, in reverse: close the conn first so the outbox writer
	// blocked on a stalled peer fails out instead of wedging what follows;
	// stop the streams and wait out their frames and the polled ones; only
	// then end the sessions they rendered.
	stopLoad := make(chan struct{})
	defer close(stopLoad)
	defer func() {
		for id := range c.owned {
			c.endSession(id)
		}
	}()
	defer c.inflight.Wait()
	defer func() {
		_ = conn.Close()
		c.streams.stopAll()
		c.out.close()
	}()

	// The load reporter starts before the hello reply is queued: once the
	// dialer has read the reply, every goroutine serving this connection
	// exists. Its first report is a full loadEvery away, behind the reply.
	if n.loadEvery > 0 {
		go n.loadLoop(c.out, stopLoad)
	}
	c.out.enqueue(helloReply(helloSeq, helloID, n.name))

	// One inbound envelope, reused across messages: its payload aliases the
	// frame reader's buffer and is fully applied before the next read.
	var in wire.Envelope
	for {
		// The reply bound: no further envelope is taken while replyWindow
		// replies to this connection are unwritten.
		c.out.awaitReplies(replyWindow - 1)
		if err := fr.ReadEnvelopeReuse(&in); err != nil {
			return
		}
		if c.own != nil {
			in.Session = c.own.ID // the connection's session; clients cannot choose
		} else if in.Session == 0 && in.Type != wire.MsgHello { // a hello addresses the connection
			c.out.fail(0, in.Seq, "server: shard envelope without session")
			continue
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
				continue
			}
			// The ack is queued before the stream exists, so it precedes the
			// first push on the wire.
			c.out.ack(&in)
			// Delta pushes only when the subscriber asked and this
			// connection negotiated v4 (through a router: the flag rides the
			// forwarded payload, and the router↔shard link must speak v4 for
			// MsgFrameDelta to be legal on it).
			delta := proto >= wire.ProtoV4 && sub.Flags&wire.SubFlagDelta != 0
			c.streams.add(in.Session, n.eng.startStream(c.session(in.Session), sub, c.out, delta))
		case wire.MsgUnsubscribe:
			// Never resolves the session: unsubscribing one that never
			// subscribed must not materialise it. Idempotent.
			c.streams.remove(in.Session)
			c.out.ack(&in)
		case wire.MsgAck:
			// Client frame-ack (protocol v4): fire-and-forget progress and
			// resync requests. Never answered, and never resolves the
			// session — an ack racing its stream's teardown is a no-op.
			if a, err := wire.DecodeFrameAck(in.Payload); err == nil {
				c.streams.ack(in.Session, a)
			}
		case wire.MsgControl:
			if n.backend && len(in.Payload) > 0 && in.Payload[0] == CtrlEndSession {
				// One-way (the client is already gone), and a no-op for a
				// session that never sent traffic: it must not be built
				// just to be torn down.
				if _, live := c.owned[in.Session]; live {
					c.endSession(in.Session)
				}
				continue
			}
			c.out.ack(&in) // ping
		case wire.MsgHello:
			// The handshake is over; the connection does not survive a
			// second one. The refusal is written before the hang-up.
			c.out.fail(in.Session, in.Seq, "server: hello after handshake")
			c.out.awaitReplies(0)
			return
		case wire.MsgMigrateSession:
			if n.backend {
				c.migrate(&in)
				continue
			}
			fallthrough // router↔shard vocabulary is not spoken to clients
		case wire.MsgAnnotations, wire.MsgQuery, wire.MsgQueryResult, wire.MsgError, wire.MsgLoad,
			wire.MsgFramePush, wire.MsgJoinShard, wire.MsgLeaveShard, wire.MsgMembership, wire.MsgFrameDelta:
			c.out.fail(in.Session, in.Seq, fmt.Sprintf("server: unsupported message %v", in.Type))
		}
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
	// Stop the stream first: stopStream waits out the in-flight frame, so
	// its push is enqueued (and then purged) before the snapshot is taken,
	// and the reply, queued last, cannot be overtaken by one.
	// Pipelined MsgFrameRequests still queued on the scheduler are NOT
	// waited for: they hold no sensor state (that was applied inline, in
	// arrival order), and EncodeSnapshotInto serialises with a running
	// frame via the session lock — a queued one just replies after the
	// snapshot, its frames/overruns counter bump staying on this side.
	// Waiting would couple the export to every other session's queue depth
	// for a cosmetic counter.
	c.streams.remove(in.Session)
	c.out.purge(in.Session)
	sess.EncodeSnapshotInto(&buf)
	delete(c.owned, in.Session)
	platform.DetachSession(in.Session)
	reply()
}

// submitFrame schedules one polled frame. Its reply is staged and queued
// from the worker (delivery), so the read loop keeps draining envelopes
// while the frame renders; replies carry the request's seq and may overtake
// one another. The frame's flight opens here, at the request's read.
//
//arbd:hotpath
func (c *sessConn) submitFrame(sess *core.Session, seq uint64) {
	eng := c.n.eng
	d := eng.deliveries.Get().(*delivery)
	d.eng, d.out, d.inflight, d.session, d.seq = eng, c.out, &c.inflight, sess.ID, seq
	d.fl = eng.rec.Begin(sess.ID, time.Now())
	c.inflight.Add(1)
	if err := eng.sched.SubmitVisit(sess, d.visitFn, d.doneFn); err != nil {
		d.done(err) // scheduler closed: the callbacks will not fire
	}
}

// loadLoop pushes the node's LoadSignal on the connection until it closes,
// so the router's view of this shard's pressure stays fresh. A report is a
// push: one the router has not read by the time newer ones queue behind it
// is the first to go.
func (n *node) loadLoop(out *outbox, stop <-chan struct{}) {
	ticker := time.NewTicker(n.loadEvery)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
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

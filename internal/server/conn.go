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
// frame requests go to the engine's shared scheduler and are answered from
// its workers — render work is bounded by the worker pool, not by the
// connection count, and one slow frame does not head-of-line-block the
// connection.
package server

import (
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"arbd/internal/core"
	"arbd/internal/obs"
	"arbd/internal/wire"
)

// helloTimeout bounds how long an accepted connection may stay silent
// before its hello. A variable so tests can shorten it.
var helloTimeout = 5 * time.Second

// backendPushQueue is the minimum outbox capacity on a backend connection,
// which multiplexes many sessions' streams toward one router.
const backendPushQueue = 64

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

// acceptHello reads the mandatory first envelope of an accepted connection
// and settles the protocol version: every session-serving, backend and
// router client connection opens with the dialer's hello. Anything else —
// silence past helloTimeout, another message type, an undecodable hello, a
// version below wire.ProtoMin — fails closed: the typed error goes back as
// a MsgError and the caller drops the connection. On success the caller
// answers with writeHello at the returned seq.
func acceptHello(conn net.Conn, fr *wire.FrameReader, w *lockedWriter) (proto uint32, seq uint64, err error) {
	_ = conn.SetReadDeadline(time.Now().Add(helloTimeout))
	env, err := fr.ReadEnvelope()
	if err != nil {
		return 0, 0, fmt.Errorf("server: reading hello: %w", err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	proto, err = checkHello(w, env)
	return proto, env.Seq, err
}

// checkHello holds one received envelope to being a usable hello — the
// type, a payload that decodes, a version this build speaks — and writes
// the typed error back when it is not.
func checkHello(w *lockedWriter, env *wire.Envelope) (proto uint32, err error) {
	if env.Type != wire.MsgHello {
		err = fmt.Errorf("server: connection opened with %v, want hello", env.Type)
	} else if peer, derr := wire.DecodeHello(env.Payload); derr != nil {
		err = derr
	} else {
		proto, err = wire.Negotiate(wire.ProtoMax, peer.Version, wire.ProtoMin)
	}
	if err != nil {
		_ = w.write(&wire.Envelope{Type: wire.MsgError, Seq: env.Seq, Payload: []byte(err.Error())})
	}
	return proto, err
}

// writeHello answers an accepted hello with this side's identity; in a
// server→client reply id is the session the connection was assigned.
func writeHello(w *lockedWriter, seq, id uint64, name string) error {
	var buf wire.Buffer
	wire.EncodeHelloInto(&buf, wire.Hello{ID: id, Name: name, Version: wire.ProtoMax})
	return w.write(&wire.Envelope{Type: wire.MsgHello, Seq: seq, Session: id, Payload: buf.Bytes()})
}

// dialHello runs the dialer's half of the handshake on a fresh connection:
// announce name and maxProto, read the listener's hello, settle the
// version. The caller owns the connection's deadline. A version mismatch
// surfaces as a *wire.VersionError.
func dialHello(fr *wire.FrameReader, fw *wire.FrameWriter, name string, maxProto uint32) (peer wire.Hello, proto uint32, err error) {
	var buf wire.Buffer
	wire.EncodeHelloInto(&buf, wire.Hello{Name: name, Version: maxProto})
	if err = fw.WriteEnvelope(&wire.Envelope{Type: wire.MsgHello, Payload: buf.Bytes()}); err == nil {
		err = fw.Flush()
	}
	if err != nil {
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
	w *lockedWriter
	// own is the client-facing role's single session (nil on a backend
	// connection); owned is every session this connection materialised, so
	// a dropped connection ends them instead of stranding them in the
	// registry. Both are touched only by the read loop.
	own   *core.Session
	owned map[uint64]struct{}
	// inflight lets teardown wait for outstanding frame callbacks before
	// the owned sessions end.
	inflight sync.WaitGroup
	// One stream per subscribed session, all multiplexed onto this
	// connection's drop-oldest outbox (built on the first subscribe).
	streams streamSet
	ob      *outbox
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

func (c *sessConn) ack(in *wire.Envelope) {
	_ = c.w.write(&wire.Envelope{Type: wire.MsgAck, Seq: in.Seq, Session: in.Session})
}

func (c *sessConn) fail(session, seq uint64, text string) {
	_ = c.w.write(&wire.Envelope{Type: wire.MsgError, Seq: seq, Session: session, Payload: []byte(text)})
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
	c := &sessConn{n: n, w: &lockedWriter{fw: wire.NewFrameWriter(conn), conn: conn}, owned: make(map[uint64]struct{})}
	proto, helloSeq, err := acceptHello(conn, fr, c.w)
	if err != nil {
		n.cs.logger.Printf("%s: handshake with %v: %v", n.name, conn.RemoteAddr(), err)
		return
	}
	helloID := n.id
	if !n.backend {
		c.own = n.eng.platform.NewSession()
		c.owned[c.own.ID] = struct{}{}
		helloID = c.own.ID
	}

	// Teardown, in reverse: close the conn first so an outbox writer or a
	// reply blocked on a stalled peer fails out instead of wedging what
	// follows; stop the streams and wait out their frames and the polled
	// ones; only then end the sessions they rendered.
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
		if c.ob != nil {
			c.ob.close()
		}
	}()

	if writeHello(c.w, helloSeq, helloID, n.name) != nil {
		return
	}
	if n.loadEvery > 0 {
		go n.loadLoop(c.w, stopLoad)
	}

	// One inbound envelope, reused across messages: its payload aliases the
	// frame reader's buffer and is fully applied before the next read.
	var in wire.Envelope
	for {
		if err := fr.ReadEnvelopeReuse(&in); err != nil {
			return
		}
		if c.own != nil {
			in.Session = c.own.ID // the connection's session; clients cannot choose
		} else if in.Session == 0 && in.Type != wire.MsgHello { // a hello addresses the connection
			c.fail(0, in.Seq, "server: shard envelope without session")
			continue
		}
		switch in.Type {
		case wire.MsgSensorEvent:
			// Applied inline, in arrival order; one-way unless malformed.
			if err := applySensor(c.session(in.Session), in.Payload); err != nil {
				c.fail(in.Session, in.Seq, err.Error())
			}
		case wire.MsgFrameRequest:
			c.submitFrame(c.session(in.Session), in.Seq)
		case wire.MsgSubscribe:
			sub, err := wire.DecodeSubscribe(in.Payload)
			if err != nil {
				c.fail(in.Session, in.Seq, err.Error())
				continue
			}
			if c.ob == nil {
				// A backend connection multiplexes many sessions' streams:
				// the floor keeps one session's tiny budget from bounding
				// everyone; per-subscription budgets only ever raise it.
				capacity := pushBudget(sub)
				if n.backend && capacity < backendPushQueue {
					capacity = backendPushQueue
				}
				// Outbox drops feed back into the stream: a delta subscriber
				// whose push was dropped needs its next push keyed.
				c.ob = newOutbox(c.w, capacity, n.eng.streamDropped, c.streams.forceKeyframe)
			}
			// Ack before the first push so the subscribe round-trip
			// completes ahead of the stream on the wire.
			c.ack(&in)
			// Delta pushes only when the subscriber asked and this
			// connection negotiated v4 (through a router: the flag rides the
			// forwarded payload, and the router↔shard link must speak v4 for
			// MsgFrameDelta to be legal on it).
			delta := proto >= wire.ProtoV4 && sub.Flags&wire.SubFlagDelta != 0
			c.streams.add(in.Session, n.eng.startStream(c.session(in.Session), sub, c.ob, delta))
		case wire.MsgUnsubscribe:
			// Never resolves the session: unsubscribing one that never
			// subscribed must not materialise it. Idempotent.
			c.streams.remove(in.Session)
			c.ack(&in)
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
			c.ack(&in) // ping
		case wire.MsgHello:
			// The handshake is over; the connection does not survive a
			// second one.
			c.fail(in.Session, in.Seq, "server: hello after handshake")
			return
		case wire.MsgMigrateSession:
			if n.backend {
				c.migrate(&in)
				continue
			}
			fallthrough // router↔shard vocabulary is not spoken to clients
		case wire.MsgAnnotations, wire.MsgQuery, wire.MsgQueryResult, wire.MsgError, wire.MsgLoad,
			wire.MsgFramePush, wire.MsgJoinShard, wire.MsgLeaveShard, wire.MsgMembership, wire.MsgFrameDelta:
			c.fail(in.Session, in.Seq, fmt.Sprintf("server: unsupported message %v", in.Type))
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
		_ = c.w.write(&wire.Envelope{Type: wire.MsgMigrateSession, Seq: in.Seq, Session: in.Session, Payload: buf.Bytes()})
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
	// its push is enqueued (and then purged) before the snapshot is taken.
	// Pipelined MsgFrameRequests still queued on the scheduler are NOT
	// waited for: they hold no sensor state (that was applied inline, in
	// arrival order), and EncodeSnapshotInto serialises with a running
	// frame via the session lock — a queued one just replies after the
	// snapshot, its frames/overruns counter bump staying on this side.
	// Waiting would couple the export to every other session's queue depth
	// for a cosmetic counter.
	c.streams.remove(in.Session)
	if c.ob != nil {
		c.ob.purge(in.Session)
	}
	sess.EncodeSnapshotInto(&buf)
	delete(c.owned, in.Session)
	platform.DetachSession(in.Session)
	reply()
}

// pollJob is one polled frame between the read loop that submitted it, the
// scheduler worker that renders it and the reply write. Pooled per engine
// with visitFn/doneFn bound once, so a frame request allocates nothing.
type pollJob struct {
	c            *sessConn
	session, seq uint64
	reply        wire.Envelope
	pooled       *wire.Buffer
	fl           *obs.Flight
	visitFn      func(*core.Frame)
	doneFn       func(error)
}

func newPollJob() any {
	j := new(pollJob)
	j.visitFn, j.doneFn = j.visit, j.done
	return j
}

// submitFrame schedules one polled frame and replies from the worker, so
// the read loop keeps draining envelopes while the frame renders; replies
// carry the request's seq and may overtake one another. The frame's flight
// opens here, at the request's read.
//
//arbd:hotpath
func (c *sessConn) submitFrame(sess *core.Session, seq uint64) {
	eng := c.n.eng
	j := eng.polls.Get().(*pollJob)
	j.c, j.session, j.seq = c, sess.ID, seq
	j.fl = eng.rec.Begin(sess.ID, time.Now())
	c.inflight.Add(1)
	if err := eng.sched.SubmitVisit(sess, j.visitFn, j.doneFn); err != nil {
		j.done(err) // scheduler closed: the callbacks will not fire
	}
}

// visit encodes the reply under the session lock: a client pipelining a
// second request for the same session — or the session's own stream —
// re-enters the frame on another worker, and without the lock that would
// overwrite the scratch the encoder is reading.
//
//arbd:hotpath
func (j *pollJob) visit(f *core.Frame) {
	j.pooled = j.c.n.eng.encodeFrame(j.fl, &j.reply, wire.MsgAnnotations, j.session, j.seq, f, false)
}

// done writes the reply (or the error) and settles the flight. visit and
// done run sequentially on one goroutine, so the job needs no lock.
//
//arbd:hotpath
func (j *pollJob) done(err error) {
	c := j.c
	if err != nil {
		settleUnsent(j.fl, err)
		c.fail(j.session, j.seq, err.Error())
	} else {
		err = c.w.write(&j.reply)
		c.n.eng.release(j.pooled)
		if err != nil {
			j.fl.FinishDropped()
		} else {
			now := time.Now()
			j.fl.MarkAt(obs.StageWrite, now)
			j.fl.FinishAt(now)
		}
	}
	*j = pollJob{visitFn: j.visitFn, doneFn: j.doneFn}
	c.n.eng.polls.Put(j)
	c.inflight.Done()
}

// loadLoop pushes the node's LoadSignal on the connection until it closes,
// so the router's view of this shard's pressure stays fresh.
func (n *node) loadLoop(w *lockedWriter, stop <-chan struct{}) {
	ticker := time.NewTicker(n.loadEvery)
	defer ticker.Stop()
	var buf wire.Buffer
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			buf.Reset()
			core.EncodeLoadSignalInto(&buf, n.load())
			if err := w.write(&wire.Envelope{Type: wire.MsgLoad, Payload: buf.Bytes()}); err != nil {
				return
			}
		}
	}
}

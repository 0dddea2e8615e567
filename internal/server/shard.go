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

// Control payload discriminators inside MsgControl envelopes. An empty
// control payload is a ping (replied to with MsgAck); routers use
// CtrlEndSession to tell a shard a client disconnected.
const (
	// CtrlEndSession ends the envelope's session on the receiving shard:
	// buffered telemetry is flushed and the session leaves the registry.
	// One-way — no reply, since the client it belonged to is gone.
	CtrlEndSession uint8 = 1
)

// MsgMigrateSession reply status bytes (shard → router). The request
// direction needs no discriminator: an empty payload asks the shard to
// export the session, a non-empty payload is a snapshot to import.
const (
	// MigExported precedes the session snapshot in an export reply.
	MigExported uint8 = 1
	// MigImported acknowledges a successful snapshot import.
	MigImported uint8 = 2
	// MigFailed precedes UTF-8 error text in either direction's reply.
	MigFailed uint8 = 3
)

// backendPushQueue is the minimum outbox capacity on a shard's backend
// connection, which multiplexes many sessions' streams toward one router.
const backendPushQueue = 64

// ShardOptions tunes a shard node.
type ShardOptions struct {
	// Options carries the engine/scheduler tuning (same knobs as the
	// standalone server).
	Options
	// ID is the shard's ring member identity, announced in the hello
	// handshake so a router can detect a miswired address.
	ID uint64
	// Name labels the shard in handshakes and logs (default "shard-<ID>").
	Name string
	// LoadEvery is how often the shard pushes a MsgLoad envelope on every
	// backend connection (default 25 ms). Zero takes the default; negative
	// disables pushing (tests drive load reports by hand).
	LoadEvery time.Duration
	// Load overrides the reported load signal (default: the platform's
	// LoadSignal). Tests inject synthetic pressure here.
	Load func() core.LoadSignal
}

// Shard serves a partition of the session ID space to routers: one backend
// connection multiplexes many sessions, each envelope resolved to its
// session by ID (the router assigns IDs and owns placement). Frame requests
// run on the engine's scheduler and reply asynchronously, so one slow frame
// does not head-of-line-block the other sessions on the connection; the
// shard also pushes its LoadSignal periodically so routers shed for this
// shard's pressure before spending a forward hop.
type Shard struct {
	eng       *Engine
	cs        *connServer
	logger    *log.Logger
	id        uint64
	name      string
	maxProto  uint32
	loadEvery time.Duration
	load      func() core.LoadSignal
}

// NewShard returns a shard node over the platform (not yet listening).
func NewShard(p *core.Platform, logger *log.Logger, opts ShardOptions) *Shard {
	if logger == nil {
		logger = log.Default()
	}
	if opts.Name == "" {
		opts.Name = fmt.Sprintf("shard-%d", opts.ID)
	}
	if opts.LoadEvery == 0 {
		opts.LoadEvery = 25 * time.Millisecond
	}
	if opts.Load == nil {
		opts.Load = p.LoadSignal
	}
	if opts.MaxProto == 0 {
		opts.MaxProto = wire.ProtoMax
	}
	sh := &Shard{
		eng:       NewEngine(p, opts.Options),
		logger:    logger,
		id:        opts.ID,
		name:      opts.Name,
		maxProto:  opts.MaxProto,
		loadEvery: opts.LoadEvery,
		load:      opts.Load,
	}
	sh.cs = newConnServer(logger, sh.serveConn)
	return sh
}

// Engine exposes the shard's frame-serving engine.
func (sh *Shard) Engine() *Engine { return sh.eng }

// ID returns the shard's ring member identity.
func (sh *Shard) ID() uint64 { return sh.id }

// Listen binds addr and starts accepting backend connections, returning
// the bound address.
func (sh *Shard) Listen(addr string) (string, error) { return sh.cs.listen(addr) }

// Close stops accepting, closes backend connections, and waits for
// handlers. Idempotent.
func (sh *Shard) Close() error {
	err := sh.cs.close()
	sh.eng.Close()
	return err
}

func (sh *Shard) serveConn(conn net.Conn) {
	fr := wire.NewFrameReader(conn)
	w := &lockedWriter{fw: wire.NewFrameWriter(conn), conn: conn}

	// Handshake: the dialer (a router) speaks first; we answer with our
	// identity and protocol version. A deadline bounds how long a silent
	// dialer can hold the handler.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	env, err := fr.ReadEnvelope()
	if err != nil || env.Type != wire.MsgHello {
		sh.logger.Printf("shard %d: backend handshake failed from %v: %v", sh.id, conn.RemoteAddr(), err)
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	peer, proto, err := answerHello(w, env, sh.id, sh.name, sh.maxProto)
	if err != nil {
		sh.logger.Printf("shard %d: handshake with %v: %v", sh.id, conn.RemoteAddr(), err)
		return
	}

	// Push the load signal for the life of the connection so the router's
	// view of this shard's pressure stays fresh.
	stopLoad := make(chan struct{})
	defer close(stopLoad)
	if sh.loadEvery > 0 {
		go sh.loadLoop(w, stopLoad)
	}

	// owned tracks sessions created via this connection so a router crash
	// ends them instead of stranding them in the registry.
	owned := make(map[uint64]struct{})
	defer func() {
		for id := range owned {
			if err := sh.eng.platform.EndSession(id); err != nil {
				sh.logger.Printf("shard %d: ending session %d: %v", sh.id, id, err)
			}
		}
	}()
	_ = peer // identity is informational; any router may connect

	// inflight lets Close wait for outstanding frame callbacks before the
	// deferred session teardown runs.
	var inflight sync.WaitGroup
	defer inflight.Wait()

	// Streaming state: one stream per subscribed session, all multiplexed
	// onto this connection's drop-oldest outbox. Torn down (and waited for)
	// before the owned sessions end. The conn closes first so an outbox
	// writer blocked on a stalled router fails out instead of wedging the
	// teardown.
	var streams streamSet
	var ob *outbox
	defer func() {
		_ = conn.Close()
		streams.stopAll()
		if ob != nil {
			ob.close()
		}
	}()

	var in wire.Envelope
	// Resolved before the read loop: the lazily-built outbox must not pay
	// a registry lookup inside the per-envelope path.
	droppedCtr := sh.eng.sched.Metrics().Counter("server.stream.dropped")
	for {
		if err := fr.ReadEnvelopeReuse(&in); err != nil {
			return // router gone: deferred cleanup ends owned sessions
		}
		if in.Session == 0 {
			_ = w.write(&wire.Envelope{Type: wire.MsgError, Seq: in.Seq,
				Payload: []byte("server: shard envelope without session")})
			continue
		}
		// Envelope types that need no session are handled before the
		// registry is touched: an end-session for a session that never
		// sent traffic (client connected and left) must not build one
		// just to tear it down, and junk types must not leak registrations.
		if in.Type == wire.MsgControl && len(in.Payload) > 0 && in.Payload[0] == CtrlEndSession {
			if _, live := owned[in.Session]; live {
				delete(owned, in.Session)
				streams.remove(in.Session) // the stream must not outlive its session
				if err := sh.eng.platform.EndSession(in.Session); err != nil {
					sh.logger.Printf("shard %d: ending session %d: %v", sh.id, in.Session, err)
				}
			}
			continue // one-way: the client is already gone
		}
		if in.Type == wire.MsgMigrateSession {
			// Live migration (protocol v3). Export: freeze the session's
			// stream, purge its queued pushes, snapshot, detach, reply.
			// Import: rebuild the session from the snapshot and own it.
			migFail := func(msg string) {
				var buf wire.Buffer
				buf.Byte(MigFailed)
				buf.Append([]byte(msg))
				_ = w.write(&wire.Envelope{Type: wire.MsgMigrateSession, Seq: in.Seq,
					Session: in.Session, Payload: buf.Bytes()})
			}
			if proto < wire.ProtoV3 {
				migFail((&wire.VersionError{Local: proto, Remote: proto, Need: wire.ProtoV3}).Error())
				continue
			}
			if len(in.Payload) == 0 { // export request
				_, live := owned[in.Session]
				sess, ok := sh.eng.platform.Session(in.Session)
				if !live || !ok {
					// The session never reached this shard (client connected
					// but sent nothing yet) or already ended: nothing to
					// move. An empty export tells the router to re-home the
					// session with fresh state instead of failing the drain.
					_ = w.write(&wire.Envelope{Type: wire.MsgMigrateSession, Seq: in.Seq,
						Session: in.Session, Payload: []byte{MigExported}})
					continue
				}
				// Stop the stream first: stopStream waits out the in-flight
				// frame, so its push is enqueued (and then purged) before
				// the snapshot is taken. Pipelined MsgFrameRequests still
				// queued on the scheduler are NOT waited for: they hold no
				// sensor state (that was applied inline, above, in arrival
				// order), and EncodeSnapshotInto serialises with a running
				// frame via the session lock — a queued one just replies
				// after the snapshot, its frames/overruns counter bump
				// staying on this side. Waiting would couple the export to
				// every other session's queue depth for a cosmetic counter.
				streams.remove(in.Session)
				if ob != nil {
					ob.purge(in.Session)
				}
				var buf wire.Buffer
				buf.Byte(MigExported)
				sess.EncodeSnapshotInto(&buf)
				delete(owned, in.Session)
				sh.eng.platform.DetachSession(in.Session)
				_ = w.write(&wire.Envelope{Type: wire.MsgMigrateSession, Seq: in.Seq,
					Session: in.Session, Payload: buf.Bytes()})
				continue
			}
			// Import request: the payload is the snapshot.
			if _, err := sh.eng.platform.RestoreSession(in.Payload); err != nil {
				migFail(err.Error())
				continue
			}
			owned[in.Session] = struct{}{}
			_ = w.write(&wire.Envelope{Type: wire.MsgMigrateSession, Seq: in.Seq,
				Session: in.Session, Payload: []byte{MigImported}})
			continue
		}
		if in.Type == wire.MsgAck {
			// Client frame-ack forwarded by the router (protocol v4):
			// fire-and-forget, and resolved before SessionOrNew — an ack
			// racing its stream's teardown must not materialise a session.
			if a, err := wire.DecodeFrameAck(in.Payload); err == nil {
				streams.ack(in.Session, a)
			}
			continue
		}
		switch in.Type {
		case wire.MsgSensorEvent, wire.MsgFrameRequest, wire.MsgControl:
		case wire.MsgSubscribe, wire.MsgUnsubscribe:
			if proto < wire.ProtoV2 {
				verr := &wire.VersionError{Local: proto, Remote: proto, Need: wire.ProtoV2}
				_ = w.write(&wire.Envelope{Type: wire.MsgError, Seq: in.Seq, Session: in.Session,
					Payload: []byte(verr.Error())})
				continue
			}
		default:
			_ = w.write(&wire.Envelope{Type: wire.MsgError, Seq: in.Seq, Session: in.Session,
				Payload: []byte(fmt.Sprintf("server: unsupported message %v", in.Type))})
			continue
		}
		if in.Type == wire.MsgUnsubscribe {
			// Resolved before SessionOrNew: unsubscribing a session that
			// never subscribed must not materialise one.
			streams.remove(in.Session)
			_ = w.write(&wire.Envelope{Type: wire.MsgAck, Seq: in.Seq, Session: in.Session})
			continue
		}
		sess := sh.eng.platform.SessionOrNew(in.Session)
		// This runs per envelope: write the map only the first time the
		// connection sees the session.
		if _, seen := owned[in.Session]; !seen {
			owned[in.Session] = struct{}{}
		}
		switch in.Type {
		case wire.MsgSensorEvent:
			if err := applySensor(sess, in.Payload); err != nil {
				_ = w.write(&wire.Envelope{Type: wire.MsgError, Seq: in.Seq, Session: in.Session,
					Payload: []byte(err.Error())})
			}
		case wire.MsgFrameRequest:
			sh.submitFrame(w, &inflight, sess, in.Seq)
		case wire.MsgSubscribe:
			sub, err := wire.DecodeSubscribe(in.Payload)
			if err != nil {
				_ = w.write(&wire.Envelope{Type: wire.MsgError, Seq: in.Seq, Session: in.Session,
					Payload: []byte(err.Error())})
				continue
			}
			if ob == nil {
				// A backend connection multiplexes many sessions' streams:
				// the floor keeps one session's tiny budget from bounding
				// everyone; per-subscription budgets only ever raise it.
				capacity := pushBudget(sub)
				if capacity < backendPushQueue {
					capacity = backendPushQueue
				}
				ob = newOutbox(w, capacity, droppedCtr, streams.forceKeyframe)
			}
			if w.write(&wire.Envelope{Type: wire.MsgAck, Seq: in.Seq, Session: in.Session}) != nil {
				return
			}
			// The flag rides the forwarded Subscribe payload: only a v4
			// client sets it, and the router-shard link must also speak v4
			// for MsgFrameDelta envelopes to be legal on this connection.
			delta := proto >= wire.ProtoV4 && sub.Flags&wire.SubFlagDelta != 0
			streams.add(in.Session, sh.eng.startStream(sess, sub, ob, delta))
		case wire.MsgControl:
			_ = w.write(&wire.Envelope{Type: wire.MsgAck, Seq: in.Seq, Session: in.Session})
		}
	}
}

// submitFrame schedules one frame and replies from the worker callback —
// the connection read loop keeps draining other sessions' envelopes while
// the frame renders. The reply is encoded inside the visit callback, under
// the session lock: a client pipelining a second frame request for the
// same session re-enters Session.Frame on another worker, and without the
// lock that would overwrite the scratch buffers the encoder is reading.
// visit and done run sequentially on one worker goroutine, so the captured
// reply/buffer need no further synchronisation.
func (sh *Shard) submitFrame(w *lockedWriter, inflight *sync.WaitGroup, sess *core.Session, seq uint64) {
	id := sess.ID
	inflight.Add(1)
	var reply wire.Envelope
	var pooled *wire.Buffer
	err := sh.eng.sched.SubmitVisit(sess, func(f *core.Frame) {
		pooled = sh.eng.encodeFrameReply(&reply, id, seq, f)
	}, func(err error) {
		defer inflight.Done()
		if err != nil {
			_ = w.write(&wire.Envelope{Type: wire.MsgError, Seq: seq, Session: id, Payload: []byte(err.Error())})
			return
		}
		_ = w.write(&reply)
		sh.eng.release(pooled)
	})
	if err != nil {
		inflight.Done()
		_ = w.write(&wire.Envelope{Type: wire.MsgError, Seq: seq, Session: id, Payload: []byte(err.Error())})
	}
}

// loadLoop pushes the shard's LoadSignal on the connection until it closes.
func (sh *Shard) loadLoop(w *lockedWriter, stop <-chan struct{}) {
	ticker := time.NewTicker(sh.loadEvery)
	defer ticker.Stop()
	var buf wire.Buffer
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			buf.Reset()
			core.EncodeLoadSignalInto(&buf, sh.load())
			if err := w.write(&wire.Envelope{Type: wire.MsgLoad, Payload: buf.Bytes()}); err != nil {
				return
			}
		}
	}
}

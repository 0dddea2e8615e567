// Live membership changes: shard join, shard drain, and the per-session
// migration machinery both ride on. This is the router side of the
// control plane; the epoch bookkeeping lives in internal/server/membership
// and the session serialization in internal/core (snapshot.go).
//
// A membership change runs in four steps, single-writer under adminMu,
// and Join and Drain take them through one path (Router.change):
//
//  1. Plan: diff the current ring against the next one over the live
//     session set. Rendezvous hashing keeps the diff minimal — only the
//     joining/leaving member's share of sessions (~1/N) moves.
//  2. Gate: each moving session's client forwards pause (routerClient.fwdMu
//     + migrating channel), so no envelope can race its own state across
//     nodes. Un-gated sessions stream on, untouched.
//  3. Publish: the router stores the next epoch's View; every routing
//     decision from here resolves against the new ring atomically.
//  4. Move: for each gated session — export the snapshot from the old
//     owner, import it on the new one, replay its subscription with the
//     push counter rebased, un-gate. Clients observe a pause and a bounded
//     frame gap, never ErrShardDown, and keep their server-side state.
//
// A drain detaches the old shard only after every move completed, so the
// shard's process can be stopped with zero session loss.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"arbd/internal/server/membership"
	"arbd/internal/wire"
)

// migrateConcurrency bounds how many sessions migrate at once during one
// membership change: enough to pipeline the per-session round-trips,
// bounded so a drain of thousands of sessions doesn't stampede the
// destination shards.
const migrateConcurrency = 16

// move is one planned session migration.
type move struct {
	session  uint64
	from, to uint64 // member IDs
}

// planMoves diffs two rings over the live session set: every session whose
// owner changes must migrate before its traffic may resolve against the
// new ring. Moves are in ascending session ID, so which sessions migrate
// first under the concurrency bound does not follow map order.
func (r *Router) planMoves(old, next *membership.Ring) []move {
	r.sessMu.RLock()
	ids := make([]uint64, 0, len(r.sessions))
	for id := range r.sessions {
		ids = append(ids, id)
	}
	r.sessMu.RUnlock()
	slices.Sort(ids)
	var moves []move
	for _, id := range ids {
		before, after := old.Pick(id), next.Pick(id)
		if before.ID != after.ID {
			moves = append(moves, move{session: id, from: before.ID, to: after.ID})
		}
	}
	return moves
}

// gateHandle is one gated session's un-gate token. at is when the gate
// closed: the client-visible migration pause runs from here (including any
// wait for a migration slot), not from when the move started executing.
type gateHandle struct {
	cl *routerClient
	ch chan struct{}
	at time.Time
}

// gateAll pauses forwards for every moving session. After this returns, no
// envelope for any of them is in flight toward a shard and none will start
// until its gate opens.
func (r *Router) gateAll(moves []move) map[uint64]gateHandle {
	gates := make(map[uint64]gateHandle, len(moves))
	for _, mv := range moves {
		r.sessMu.RLock()
		cl := r.sessions[mv.session]
		r.sessMu.RUnlock()
		if cl == nil {
			continue // client disconnected since planning; nothing to gate
		}
		ch := make(chan struct{})
		cl.fwdMu.Lock()
		cl.migrating = ch
		cl.fwdMu.Unlock()
		gates[mv.session] = gateHandle{cl: cl, ch: ch, at: time.Now()}
	}
	return gates
}

// ungate opens one session's gate (idempotent against a newer gate).
func (r *Router) ungate(g gateHandle) {
	if g.cl == nil {
		return
	}
	g.cl.fwdMu.Lock()
	if g.cl.migrating == g.ch {
		g.cl.migrating = nil
	}
	g.cl.fwdMu.Unlock()
	close(g.ch)
}

// runMoves migrates every planned session with bounded concurrency,
// un-gating each as it completes and recording the client-visible pause.
// A failed move fails soft: the session follows the new ring with fresh
// state (its subscription, if any, is still resumed on the new owner) —
// state loss for that session, never a stuck gate or a dead stream.
func (r *Router) runMoves(moves []move, gates map[uint64]gateHandle) {
	if len(moves) == 0 {
		return
	}
	migrated := r.reg.Counter("router.sessions.migrated")
	failed := r.reg.Counter("router.migrations.failed")
	pause := r.reg.Histogram("router.migration.pause")
	sem := make(chan struct{}, migrateConcurrency)
	var wg sync.WaitGroup
	for _, mv := range moves {
		wg.Add(1)
		sem <- struct{}{}
		go func(mv move) {
			defer wg.Done()
			defer func() { <-sem }()
			from, to := r.shard(mv.from), r.shard(mv.to)
			// Re-check the client is still connected: a disconnect after
			// planning deletes the session from r.sessions, and its
			// deferred CtrlEndSession will resolve against the NEW ring —
			// migrating the orphan would strand it on the destination with
			// nothing left to end it. End it at its old owner instead,
			// exactly as a normal disconnect would have.
			r.sessMu.RLock()
			_, connected := r.sessions[mv.session]
			r.sessMu.RUnlock()
			if !connected {
				if from != nil {
					_ = r.forward(from.backend(), &wire.Envelope{Type: wire.MsgControl, Session: mv.session,
						Payload: []byte{CtrlEndSession}})
				}
				r.ungate(gates[mv.session])
				return
			}
			var err error
			switch {
			case from == nil || to == nil:
				err = ErrShardDown
			default:
				err = r.migrateSession(mv.session, from, to)
			}
			if err != nil {
				failed.Inc()
				r.logger.Printf("router: migrating session %d (%d→%d): %v", mv.session, mv.from, mv.to, err)
				r.resumeStream(mv.session, to)
			} else {
				migrated.Inc()
			}
			g := gates[mv.session]
			r.ungate(g)
			if !g.at.IsZero() {
				pause.Observe(time.Since(g.at))
			}
		}(mv)
	}
	wg.Wait()
}

// migrateSession moves one session: export from the old owner, import on
// the new one, resume its subscription. The caller holds the session's
// gate, so no client envelope races the move.
func (r *Router) migrateSession(id uint64, from, to *routerShard) error {
	// Export: the old owner freezes the stream, snapshots, detaches. The
	// request is queued on the same backend outbox as all previously
	// forwarded envelopes for this session — behind them, since the gate
	// closed after their enqueue — and the shard applies sensor traffic
	// inline on that connection's read loop — so every sensor update sent
	// before the gate closed is in the snapshot. (A frame REQUEST still
	// queued on the shard's scheduler is the one exception: it renders
	// and replies after the snapshot, so its reply reaches the client but
	// its pacing-counter bump stays behind — cosmetic, and documented at
	// the shard's export handler.)
	snapshot, err := r.migrateCall(from, id, nil, MigExported)
	if err != nil {
		return fmt.Errorf("export: %w", err)
	}
	// An empty snapshot: the source had no state for this session (it never
	// sent traffic or already ended there), so there is nothing to import.
	// The session simply follows the new ring, its stream resumed if it had
	// one.
	if len(snapshot) > 0 {
		if _, err := r.migrateCall(to, id, snapshot, MigImported); err != nil {
			return fmt.Errorf("import: %w", err)
		}
	}
	r.resumeStream(id, to)
	return nil
}

// migrateCall runs one phase of a move as a round trip on the shard's
// backend connection, bounded by migrateTimeout, and returns the body of a
// reply whose status is want.
func (r *Router) migrateCall(ss *routerShard, id uint64, payload []byte, want uint8) (body []byte, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.opts.migrateTimeout)
	defer cancel()
	req := wire.Envelope{Type: wire.MsgMigrateSession, Session: id, Payload: payload}
	err = ss.backend().roundTrip(ctx, req, wire.MsgMigrateSession, func(p []byte) error {
		if len(p) == 0 || p[0] != want {
			return fmt.Errorf("failed: %q", p)
		}
		body = append([]byte(nil), p[1:]...)
		return nil
	})
	return body, err
}

// resumeStream replays the session's tracked subscription (if any) on the
// shard now owning it, rebased at the send: after a successful export, the
// export reply was queued behind the old stream's last push, and the
// router has read it.
func (r *Router) resumeStream(id uint64, to *routerShard) {
	if to == nil {
		return
	}
	r.subsMu.Lock()
	defer r.subsMu.Unlock()
	if e := r.subs[id]; e != nil {
		e.rebase()
		if err := r.forward(to.backend(), &wire.Envelope{Type: wire.MsgSubscribe, Session: id, Payload: e.payload}); err != nil {
			r.logger.Printf("router: resuming subscription for session %d on shard %d: %v", id, to.member.ID, err)
		}
	}
}

// Join adds a shard to the live membership: dial and handshake, install
// the slot, publish the next epoch, and migrate the ~1/N sessions the new
// ring hands it. Single-writer with every other membership change.
func (r *Router) Join(m Member) (*membership.View, error) {
	r.adminMu.Lock()
	defer r.adminMu.Unlock()
	if !r.connected {
		return nil, errors.New("server: join before Connect")
	}
	if r.shard(m.ID) != nil {
		return nil, fmt.Errorf("server: shard %d already in the membership", m.ID)
	}
	bc, err := r.dialBackend(m)
	if err != nil {
		return nil, err
	}
	ss := r.attachShard(m, bc)
	view, moved, err := r.change(append(r.view.Load().Members(), m))
	if err != nil {
		r.detachShard(ss)
		return nil, err
	}
	r.logger.Printf("router: epoch %d: shard %d joined at %s (%d sessions rebalanced)",
		view.Epoch, m.ID, m.Addr, moved)
	return view, nil
}

// Drain removes a shard from the live membership without losing its
// sessions: publish the next epoch, migrate every session the shard owned
// to its new ring owner, then detach the backend connection. When Drain
// returns, the shard process serves nothing and can be stopped.
func (r *Router) Drain(id uint64) (*membership.View, error) {
	r.adminMu.Lock()
	defer r.adminMu.Unlock()
	if !r.connected {
		return nil, errors.New("server: drain before Connect")
	}
	ss := r.shard(id)
	if ss == nil {
		return nil, fmt.Errorf("server: unknown shard %d", id)
	}
	var kept []Member
	for _, m := range r.view.Load().Members() {
		if m.ID != id {
			kept = append(kept, m)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("server: refusing to drain the last shard %d", id)
	}
	view, moved, err := r.change(kept)
	if err != nil {
		return nil, err
	}
	r.detachShard(ss)
	r.logger.Printf("router: epoch %d: shard %d drained (%d sessions migrated)",
		view.Epoch, id, moved)
	return view, nil
}

// change is the one path that builds and publishes the next epoch, over
// members; the caller holds adminMu. Plan, gate and publish run under the
// change lock's writer side: no forward happens in between, so a session
// connecting mid-change cannot build state against the old ring after the
// plan was drawn. The planned moves run after the lock is released; change
// returns once they all finished, with how many sessions moved.
func (r *Router) change(members []Member) (*membership.View, int, error) {
	r.changeMu.Lock()
	old := r.view.Load()
	next, err := membership.NewView(old.Epoch+1, members)
	if err != nil {
		r.changeMu.Unlock()
		return nil, 0, err
	}
	moves := r.planMoves(old.Ring(), next.Ring())
	gates := r.gateAll(moves)
	r.publish(next)
	r.changeMu.Unlock()
	r.runMoves(moves, gates)
	return next, len(moves), nil
}

// publish makes v the epoch every routing decision resolves against.
func (r *Router) publish(v *membership.View) {
	r.view.Store(v)
	r.epoch.Set(float64(v.Epoch))
}

// detachShard removes a slot and closes its connection without obituaries:
// the shard left on purpose, its sessions are already elsewhere.
func (r *Router) detachShard(ss *routerShard) {
	ss.removed.Store(true)
	r.shardsMu.Lock()
	delete(r.shards, ss.member.ID)
	r.shardsMu.Unlock()
	_ = ss.backend().conn.Close()
}

// ListenAdmin binds the router's admin endpoint: MsgJoinShard /
// MsgLeaveShard mutate the membership, a MsgControl with an empty payload
// queries it. Replies carry MsgMembership with the resulting epoch.
// Optional — a router without an admin listener simply has static
// membership, exactly as before.
func (r *Router) ListenAdmin(addr string) (string, error) {
	if !r.connected {
		return "", errors.New("server: admin listener before Connect")
	}
	if r.admin == nil {
		r.admin = newConnServer(r.logger, "router-admin", r.openAdmin)
	}
	return r.admin.listen(addr)
}

// openAdmin builds an admin connection's handler once its hello succeeded:
// membership changes and queries are answered through its outbox.
func (r *Router) openAdmin(conn net.Conn, _ uint32) accepted {
	out := newOutbox(conn, routerPushQueue, nil)
	// answer queues the outcome of one membership change or query.
	answer := func(seq uint64, view *membership.View, err error) {
		if err != nil {
			out.fail(0, seq, err.Error())
			return
		}
		var buf wire.Buffer
		membership.EncodeViewInto(&buf, view)
		out.enqueue(outMsg{env: wire.Envelope{Type: wire.MsgMembership, Seq: seq, Payload: buf.Bytes()}, reply: true})
	}
	handle := func(env *wire.Envelope) {
		switch env.Type {
		case wire.MsgJoinShard:
			m, err := membership.DecodeMember(env.Payload)
			var view *membership.View
			if err == nil {
				view, err = r.Join(m)
			}
			answer(env.Seq, view, err)
		case wire.MsgLeaveShard:
			id, err := wire.NewReader(env.Payload).Uvarint()
			var view *membership.View
			if err == nil {
				view, err = r.Drain(id)
			}
			answer(env.Seq, view, err)
		case wire.MsgControl:
			if len(env.Payload) > 0 {
				out.fail(0, env.Seq, fmt.Sprintf("server: unsupported admin control verb %d", env.Payload[0]))
				return
			}
			answer(env.Seq, r.view.Load(), nil)
		default:
			out.fail(0, env.Seq, fmt.Sprintf("server: unsupported admin message %v", env.Type))
		}
	}
	return accepted{out: out, handle: handle, closed: func() {}}
}

// AdminClient speaks the router's admin protocol — the client side of
// join/drain/query, shared by cmd/arbd-server (-join, -drain), loadgen's
// churn mode, and the tests. It runs the dial side's read loop and outbox
// (dial.go), so its calls are safe for concurrent use: each waits for the
// reply carrying its own seq. The admin protocol is request/reply only: the
// router pushes nothing, and an epoch is learnt from a reply or from the
// router's router.membership.epoch gauge.
type AdminClient struct{ *dialConn }

// DialAdmin connects to a router's admin endpoint and runs the hello
// handshake; timeout bounds both.
func DialAdmin(addr string, timeout time.Duration) (*AdminClient, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("admin: dial %s: %w", addr, err)
	}
	dc, err := dialHandshake(conn, conn, time.Now().Add(timeout), "admin", wire.ProtoMax)
	if err != nil {
		return nil, fmt.Errorf("admin: %s: %w", addr, err)
	}
	dc.start(dc.settle, nil)
	return &AdminClient{dc}, nil
}

// Close tears the admin connection down and waits out its read loop.
func (a *AdminClient) Close() error { return a.shutdown() }

// roundTrip sends one request and decodes the membership view its reply
// carries.
func (a *AdminClient) roundTrip(t wire.MsgType, payload []byte) (view membership.DecodedView, err error) {
	req := wire.Envelope{Type: t, Payload: payload}
	err = a.dialConn.roundTrip(context.Background(), req, wire.MsgMembership, func(p []byte) (err error) {
		view, err = membership.DecodeView(p)
		return err
	})
	return view, err
}

// Join asks the router to add a shard and migrates the sessions the new
// ring assigns it; the returned view is the resulting epoch.
func (a *AdminClient) Join(m Member) (membership.DecodedView, error) {
	var buf wire.Buffer
	membership.EncodeMemberInto(&buf, m)
	return a.roundTrip(wire.MsgJoinShard, buf.Bytes())
}

// Drain asks the router to migrate every session off a shard and remove
// it; it returns once the drain completed.
func (a *AdminClient) Drain(id uint64) (membership.DecodedView, error) {
	var buf wire.Buffer
	buf.Uvarint(id)
	return a.roundTrip(wire.MsgLeaveShard, buf.Bytes())
}

// Membership queries the current epoch.
func (a *AdminClient) Membership() (membership.DecodedView, error) {
	return a.roundTrip(wire.MsgControl, nil)
}

package server

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"arbd/internal/core"
	"arbd/internal/geo"
	"arbd/internal/sensor"
	"arbd/internal/server/membership"
	"arbd/internal/wire"
)

// newExtraShard starts a shard node that is NOT in any router's membership
// yet — join-test material.
func newExtraShard(t *testing.T, id uint64) (*Shard, string) {
	t.Helper()
	p := newTestPlatform(t)
	sh := NewShard(p, discardLogger(), ShardOptions{
		ID: id,
	})
	addr, err := sh.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sh.Close() })
	return sh, addr
}

// liveSessionsByShard maps session ID → shard index for every session live
// on any cluster shard, failing on duplicates.
func liveSessionsByShard(t *testing.T, tc *testCluster) map[uint64]int {
	t.Helper()
	live := map[uint64]int{}
	for i, sh := range tc.shards {
		sh.eng.platform.ForEachSession(func(s *core.Session) bool {
			if prev, dup := live[s.ID]; dup {
				t.Errorf("session %d live on shards %d and %d", s.ID, prev, i)
			}
			live[s.ID] = i
			return true
		})
	}
	return live
}

// TestDrainUnderLoad is the acceptance e2e: 512 active subscriptions
// across 4 shards; draining one shard loses zero sessions, emits zero
// ErrShardDown stream obituaries, and every migrated stream resumes with a
// monotonic seq within one push interval of the drain completing.
func TestDrainUnderLoad(t *testing.T) {
	const clients = 512
	const shards = 4
	const interval = 50 * time.Millisecond

	tc := startCluster(t, shards, nil, RouterOptions{})

	type streamClient struct {
		cl      *Client
		frames  <-chan *core.DecodedFrame
		pos     geo.Point
		lastSeq uint64
	}
	scs := make([]*streamClient, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(tc.addr)
			if err != nil {
				errs <- fmt.Errorf("client %d dial: %w", c, err)
				return
			}
			pos := geo.Destination(center, float64(c%360), 100+float64(c%8)*100)
			if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: pos, AccuracyM: 3}); err != nil {
				errs <- fmt.Errorf("client %d gps: %w", c, err)
				return
			}
			frames, err := cl.Subscribe(context.Background(), SubscribeOptions{Interval: interval})
			if err != nil {
				errs <- fmt.Errorf("client %d subscribe: %w", c, err)
				return
			}
			scs[c] = &streamClient{cl: cl, frames: frames, pos: pos}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	defer func() {
		for _, sc := range scs {
			_ = sc.cl.Close()
		}
	}()

	// Every stream must be live before the churn starts.
	readFrame := func(sc *streamClient, timeout time.Duration, phase string) *core.DecodedFrame {
		select {
		case f, ok := <-sc.frames:
			if !ok {
				t.Fatalf("%s: stream closed: %v", phase, sc.cl.StreamErr())
			}
			if f.Seq <= sc.lastSeq {
				t.Fatalf("%s: push seq went %d -> %d", phase, sc.lastSeq, f.Seq)
			}
			sc.lastSeq = f.Seq
			return f
		case <-time.After(timeout):
			t.Fatalf("%s: no frame within %v", phase, timeout)
		}
		return nil
	}
	for _, sc := range scs {
		readFrame(sc, 30*time.Second, "pre-drain")
	}

	const victim = uint64(shards) // drain the last shard
	preLive := liveSessionsByShard(t, tc)
	if len(preLive) != clients {
		t.Fatalf("%d live sessions before drain, want %d", len(preLive), clients)
	}
	victimSessions := 0
	for _, idx := range preLive {
		if tc.shards[idx].id == victim {
			victimSessions++
		}
	}
	if victimSessions == 0 {
		t.Fatal("victim shard owns no sessions; drain would be vacuous")
	}

	view, err := tc.router.Drain(victim)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	drained := time.Now()
	if view.Epoch != 2 || view.Ring().Contains(victim) {
		t.Fatalf("post-drain view epoch=%d members=%v", view.Epoch, view.Members())
	}

	// Zero lost sessions: every session lives on exactly one surviving
	// shard, none on the drained one.
	postLive := liveSessionsByShard(t, tc)
	if len(postLive) != clients {
		t.Fatalf("%d live sessions after drain, want %d", len(postLive), clients)
	}
	for id, idx := range postLive {
		if tc.shards[idx].id == victim {
			t.Fatalf("session %d still on drained shard", id)
		}
		if want := tc.router.view.Load().Ring().Pick(id).ID; tc.shards[idx].id != want {
			t.Fatalf("session %d on shard %d, new ring says %d", id, tc.shards[idx].id, want)
		}
	}

	// Every stream resumes, monotonic, within one push interval of the
	// drain completing (generous CI slack on top: the bound that matters
	// is "bounded frame gap, not ErrShardDown").
	resumeBudget := interval + 2*time.Second
	for i, sc := range scs {
		f := readFrame(sc, resumeBudget, "post-drain")
		if since := time.Since(drained); since > resumeBudget {
			t.Fatalf("client %d resumed %v after drain, budget %v", i, since, resumeBudget)
		}
		// Migrated state, not a fresh session: the frame must still be
		// anchored near the position sent before the drain, with no sensor
		// refresh. Sample the annotated ones (shed-empty frames carry none).
		for _, a := range f.Annotations {
			if d := geo.DistanceMeters(sc.pos, a.Anchor); d > 400 {
				t.Fatalf("client %d: post-drain annotation anchored %.0fm away — state lost in migration", i, d)
			}
		}
	}

	// Zero obituaries, zero failed migrations, and the migration count
	// matches the drained shard's session count exactly (remap minimality:
	// only the victim's sessions moved).
	if n := tc.router.Metrics().Counter("router.migrations.failed").Value(); n != 0 {
		t.Fatalf("%d migrations failed", n)
	}
	if got := tc.router.Metrics().Counter("router.sessions.migrated").Value(); got != int64(victimSessions) {
		t.Fatalf("migrated %d sessions, want exactly the victim's %d", got, victimSessions)
	}
	for i, sc := range scs {
		if serr := sc.cl.StreamErr(); serr != nil {
			t.Fatalf("client %d stream error after drain: %v", i, serr)
		}
	}
}

// TestJoinRebalancesLiveSessions grows the cluster under request/reply
// load: a third shard joins, ~1/3 of live sessions migrate to it with
// state intact, and every session keeps answering frames from its
// post-join owner.
func TestJoinRebalancesLiveSessions(t *testing.T) {
	tc := startCluster(t, 2, nil, RouterOptions{})
	const clients = 24

	conns := make([]*Client, clients)
	positions := make([]geo.Point, clients)
	preAnns := make([]int, clients)
	for c := range conns {
		cl, err := Dial(tc.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		conns[c] = cl
		positions[c] = geo.Destination(center, float64(c*15), 200+float64(c%5)*80)
		if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: positions[c], AccuracyM: 3}); err != nil {
			t.Fatal(err)
		}
		f, _, err := cl.RequestFrame()
		if err != nil {
			t.Fatal(err)
		}
		preAnns[c] = len(f.Annotations)
	}

	extra, extraAddr := newExtraShard(t, 9)
	tc.shards = append(tc.shards, extra)
	view, err := tc.router.Join(Member{ID: 9, Addr: extraAddr})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if view.Epoch != 2 || !view.Ring().Contains(9) {
		t.Fatalf("post-join view epoch=%d members=%v", view.Epoch, view.Members())
	}

	// Placement now matches the grown ring, with no session lost or
	// duplicated, and the new shard actually gained some.
	live := liveSessionsByShard(t, tc)
	if len(live) != clients {
		t.Fatalf("%d live sessions after join, want %d", len(live), clients)
	}
	gained := 0
	for id, idx := range live {
		if want := tc.router.view.Load().Ring().Pick(id).ID; tc.shards[idx].id != want {
			t.Fatalf("session %d on shard %d, grown ring says %d", id, tc.shards[idx].id, want)
		}
		if tc.shards[idx].id == 9 {
			gained++
		}
	}
	if gained == 0 {
		t.Fatal("new shard gained no sessions; rebalance was vacuous")
	}
	if n := tc.router.Metrics().Counter("router.migrations.failed").Value(); n != 0 {
		t.Fatalf("%d migrations failed during join", n)
	}

	// State survived: frames keep rendering near each client's pre-join
	// position with no sensor refresh, through the new owner — the same
	// overlay the old owner produced (a client in a sparse spot legitimately
	// renders an empty overlay on both).
	for c, cl := range conns {
		f, _, err := cl.RequestFrame()
		if err != nil {
			t.Fatalf("client %d post-join frame: %v", c, err)
		}
		if len(f.Annotations) == 0 && preAnns[c] > 0 {
			t.Fatalf("client %d post-join frame empty (had %d annotations) — tracking state lost", c, preAnns[c])
		}
		for _, a := range f.Annotations {
			if d := geo.DistanceMeters(positions[c], a.Anchor); d > 400 {
				t.Fatalf("client %d: post-join annotation anchored %.0fm away", c, d)
			}
		}
	}
}

// TestDrainRebasesWireSeq pins the raw wire contract across a drain: the
// frame_push seq a client observes keeps strictly increasing through the
// migration — the router rebases the new stream's restarted counter — and
// no seq-0 error obituary appears.
func TestDrainRebasesWireSeq(t *testing.T) {
	tc := startCluster(t, 2, nil, RouterOptions{})
	rc := dialRaw(t, tc.addr)
	peer := rc.hello(t, "raw", wire.ProtoMax)
	session := peer.ID
	rc.sendGPS(t, 0, center)
	var sb wire.Buffer
	wire.EncodeSubscribeInto(&sb, wire.Subscribe{IntervalMS: 5, Budget: 16})
	subSeq := rc.send(t, wire.MsgSubscribe, 0, sb.Bytes())
	if env := rc.read(t); env.Type != wire.MsgAck || env.Seq != subSeq {
		t.Fatalf("subscribe reply = %v seq %d", env.Type, env.Seq)
	}

	var last uint64
	readPushes := func(n int, phase string) {
		for got := 0; got < n; {
			env := rc.read(t)
			switch env.Type {
			case wire.MsgFramePush:
				if env.Seq <= last {
					t.Fatalf("%s: wire push seq went %d -> %d", phase, last, env.Seq)
				}
				last = env.Seq
				got++
			case wire.MsgAck:
				if env.Seq != 0 {
					t.Fatalf("%s: unmatched ack seq %d", phase, env.Seq)
				}
				// The router's replayed subscribe carries seq 0; its ack is
				// delivered and ignored — the PR-4 replay contract.
			case wire.MsgError:
				t.Fatalf("%s: error envelope seq=%d: %s", phase, env.Seq, env.Payload)
			default:
				t.Fatalf("%s: unexpected %v", phase, env.Type)
			}
		}
	}
	readPushes(5, "pre-drain")

	victim := tc.router.view.Load().Ring().Pick(session).ID
	if _, err := tc.router.Drain(victim); err != nil {
		t.Fatalf("drain: %v", err)
	}
	readPushes(10, "post-drain")
	if n := tc.router.Metrics().Counter("router.migrations.failed").Value(); n != 0 {
		t.Fatalf("%d migrations failed", n)
	}
}

// TestDrainResumesStreamAtOnce pins that a migrated stream pushes as soon
// as the migration ends: a routed 10 s stream gets a push within 2 s of
// Router.Drain returning — the replayed subscribe renders at once on the
// destination — and its wire seq keeps rising across the move.
func TestDrainResumesStreamAtOnce(t *testing.T) {
	const interval = 10 * time.Second
	tc := startCluster(t, 2, nil, RouterOptions{})
	rc := dialRaw(t, tc.addr)
	session := rc.hello(t, "raw", wire.ProtoMax).ID
	rc.sendGPS(t, 0, center)
	var sb wire.Buffer
	wire.EncodeSubscribeInto(&sb, wire.Subscribe{IntervalMS: uint32(interval / time.Millisecond), Budget: 16})
	subSeq := rc.send(t, wire.MsgSubscribe, 0, sb.Bytes())
	// Push 1's own timing is TestRouterStreamFirstPushAtOnce's; here only
	// the resume is timed.
	_ = rc.c.SetDeadline(time.Now().Add(interval + 2*time.Second))
	if env := rc.read(t); env.Type != wire.MsgAck || env.Seq != subSeq {
		t.Fatalf("subscribe reply = %v seq %d", env.Type, env.Seq)
	}
	first := rc.read(t)
	if first.Type != wire.MsgFramePush {
		t.Fatalf("first push = %v", first.Type)
	}

	victim := tc.router.view.Load().Ring().Pick(session).ID
	if _, err := tc.router.Drain(victim); err != nil {
		t.Fatalf("drain: %v", err)
	}
	_ = rc.c.SetDeadline(time.Now().Add(2 * time.Second))
	for {
		env := rc.read(t)
		if env.Type == wire.MsgAck && env.Seq == 0 {
			continue // the router's replayed subscribe
		}
		if env.Type != wire.MsgFramePush {
			t.Fatalf("after the drain: %v seq %d, want a push", env.Type, env.Seq)
		}
		if env.Seq <= first.Seq {
			t.Fatalf("wire push seq went %d -> %d across the drain", first.Seq, env.Seq)
		}
		break
	}
	if owners := tc.shardsOwning(session); len(owners) != 1 || tc.shards[owners[0]].id == victim {
		t.Fatalf("session on shard indexes %v after draining member %d", owners, victim)
	}
	if n := tc.router.Metrics().Counter("router.migrations.failed").Value(); n != 0 {
		t.Fatalf("%d migrations failed", n)
	}
}

// TestAdminEndToEnd drives the admin protocol over TCP: query, join,
// drain, the error paths, the epoch gauge following every publish, and a
// control verb the admin endpoint does not serve refused with an error.
func TestAdminEndToEnd(t *testing.T) {
	tc := startCluster(t, 2, nil, RouterOptions{})
	adminAddr, err := tc.router.ListenAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	epoch := tc.router.Metrics().Gauge("router.membership.epoch")
	if got := epoch.Value(); got != 1 {
		t.Fatalf("epoch gauge %v at start, want 1", got)
	}

	// A control with a payload (the old watch verb was byte 2) is refused,
	// not answered as a query a client would wait on for pushes.
	wc := dialRaw(t, adminAddr)
	wc.hello(t, "watcher", wire.ProtoMax)
	watchSeq := wc.send(t, wire.MsgControl, 0, []byte{2})
	if env := wc.read(t); env.Type != wire.MsgError || env.Seq != watchSeq {
		t.Fatalf("non-empty admin control answered %v seq %d, want error seq %d", env.Type, env.Seq, watchSeq)
	}

	ac, err := DialAdmin(adminAddr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()

	v, err := ac.Membership()
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != 1 || len(v.Members) != 2 {
		t.Fatalf("initial membership epoch=%d members=%d", v.Epoch, len(v.Members))
	}

	extra, extraAddr := newExtraShard(t, 7)
	tc.shards = append(tc.shards, extra)
	v, err = ac.Join(Member{ID: 7, Addr: extraAddr})
	if err != nil {
		t.Fatalf("admin join: %v", err)
	}
	if v.Epoch != 2 || len(v.Members) != 3 {
		t.Fatalf("post-join membership epoch=%d members=%d", v.Epoch, len(v.Members))
	}
	if got := epoch.Value(); got != 2 {
		t.Fatalf("epoch gauge %v after the join, want 2", got)
	}
	if _, err := ac.Join(Member{ID: 7, Addr: extraAddr}); err == nil {
		t.Fatal("duplicate admin join accepted")
	}
	if _, err := ac.Drain(42); err == nil {
		t.Fatal("drain of unknown shard accepted")
	}
	v, err = ac.Drain(7)
	if err != nil {
		t.Fatalf("admin drain: %v", err)
	}
	if v.Epoch != 3 || len(v.Members) != 2 {
		t.Fatalf("post-drain membership epoch=%d members=%d", v.Epoch, len(v.Members))
	}
	if got := epoch.Value(); got != 3 {
		t.Fatalf("epoch gauge %v after the drain, want 3", got)
	}

	// Draining down to one shard, then past it, fails loudly.
	if _, err := ac.Drain(1); err != nil {
		t.Fatal(err)
	}
	if _, err := ac.Drain(2); err == nil {
		t.Fatal("drain of last shard accepted")
	}
}

// TestConcurrentAdminChangesSerialise races two admin clients against one
// router: a join, a duplicate of it and a drain. The router is the one
// writer of the epoch, so exactly one join lands, the two changes that
// succeed publish epochs 2 and 3 in some order, and the final membership
// holds both of them.
func TestConcurrentAdminChangesSerialise(t *testing.T) {
	tc := startCluster(t, 3, nil, RouterOptions{})
	adminAddr, err := tc.router.ListenAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	extra, extraAddr := newExtraShard(t, 7)
	tc.shards = append(tc.shards, extra)
	var acs [2]*AdminClient
	for i := range acs {
		if acs[i], err = DialAdmin(adminAddr, time.Second); err != nil {
			t.Fatal(err)
		}
		defer acs[i].Close()
	}

	type result struct {
		op    string
		epoch uint64
		err   error
	}
	results := make(chan result, 3)
	start := make(chan struct{})
	run := func(op string, call func() (membership.DecodedView, error)) {
		<-start
		v, err := call()
		results <- result{op, v.Epoch, err}
	}
	join := func(ac *AdminClient) func() (membership.DecodedView, error) {
		return func() (membership.DecodedView, error) { return ac.Join(Member{ID: 7, Addr: extraAddr}) }
	}
	go run("join", join(acs[0]))
	go run("join", join(acs[1]))
	go run("drain", func() (membership.DecodedView, error) { return acs[0].Drain(2) })
	close(start)

	joins, drains := 0, 0
	epochs := map[uint64]bool{}
	for i := 0; i < 3; i++ {
		res := <-results
		if res.err != nil {
			if res.op == "drain" {
				t.Fatalf("drain failed: %v", res.err)
			}
			continue
		}
		if res.op == "join" {
			joins++
		} else {
			drains++
		}
		epochs[res.epoch] = true
	}
	if joins != 1 || drains != 1 {
		t.Fatalf("%d joins and %d drains succeeded, want exactly 1 of each", joins, drains)
	}
	if len(epochs) != 2 || !epochs[2] || !epochs[3] {
		t.Fatalf("successful replies carried epochs %v, want {2, 3}", epochs)
	}
	v, err := acs[1].Membership()
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for _, m := range v.Members {
		ids = append(ids, m.ID)
	}
	if v.Epoch != 3 || fmt.Sprint(ids) != "[1 3 7]" {
		t.Fatalf("final membership epoch %d members %v, want epoch 3 members [1 3 7]", v.Epoch, ids)
	}
}

// TestDrainSurfacesLostShard pins fail-soft: draining TO a shard that dies
// mid-change must not wedge the router — moves fail, gates open, traffic
// continues (with fresh state), and the failure is counted.
func TestDrainMigrationFailureIsSoft(t *testing.T) {
	tc := startCluster(t, 2, nil, RouterOptions{migrateTimeout: 300 * time.Millisecond})
	cl, err := Dial(tc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.RequestFrame(); err != nil {
		t.Fatal(err)
	}
	session := cl.SessionID()
	from := tc.router.view.Load().Ring().Pick(session).ID
	// Kill the destination-to-be: the shard that will own the session
	// after the drain.
	var to uint64 = 1
	if from == 1 {
		to = 2
	}
	for _, sh := range tc.shards {
		if sh.id == to {
			if err := sh.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Wait for the router to notice the dead backend so the drain's
	// forwards fail fast instead of racing the detection.
	bc := tc.router.shard(to).backend()
	deadline := time.Now().Add(5 * time.Second)
	down := func() bool {
		bc.owedMu.Lock()
		defer bc.owedMu.Unlock()
		return bc.err != nil
	}
	for !down() {
		if time.Now().After(deadline) {
			t.Fatal("router never observed the dead destination")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if _, err := tc.router.Drain(from); err != nil {
		t.Fatalf("drain must complete fail-soft, got: %v", err)
	}
	if n := tc.router.Metrics().Counter("router.migrations.failed").Value(); n == 0 {
		t.Fatal("failed migration not counted")
	}
	// The client must still be answered — with an error naming the dead
	// shard, not a hang or a shed.
	_, _, err = cl.RequestFrame()
	if err == nil || !strings.Contains(err.Error(), ErrShardDown.Error()) {
		t.Fatalf("post-failed-drain request: %v, want ErrShardDown", err)
	}
}

// TestDeliverRebasesAtSubscribeAck pins the rebase rule in deliver(): the
// shard's ack of a re-subscribe follows the replaced stream's last push, so
// reading it rebases the session's push seq — the replacement stream's
// restarted raw counter maps above everything already delivered — and a
// rebased value at or below the last delivered seq is a duplicate and drops.
func TestDeliverRebasesAtSubscribeAck(t *testing.T) {
	r, err := NewRouter([]Member{{ID: 1, Addr: "unused"}}, discardLogger(), nil, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A client whose writes land in a drained pipe: deliver() needs a
	// registered session with an outbox.
	client, srv := net.Pipe()
	defer client.Close()
	defer srv.Close()
	go func() { _, _ = io.Copy(io.Discard, client) }()
	cl := &routerClient{out: newOutbox(srv, 8, nil)}
	defer cl.out.close()
	const session = 7
	r.sessions[session] = cl
	r.subs[session] = &subEntry{payload: []byte{0, 0}}
	bc := &dialConn{owed: make(map[owedKey]owedEntry)}

	push := func(raw uint64) {
		r.deliver(&wire.Envelope{Type: wire.MsgFramePush, Seq: raw, Session: session, Payload: []byte{1}}, false)
	}
	entry := func() subEntry {
		r.subsMu.Lock()
		defer r.subsMu.Unlock()
		return *r.subs[session]
	}

	for raw := uint64(1); raw <= 3; raw++ {
		push(raw)
	}
	if e := entry(); e.last != 3 || e.base != 0 {
		t.Fatalf("steady state entry %+v, want last=3 base=0", e)
	}

	// An ack nobody owes (a replayed subscribe's, seq 0) does not rebase.
	r.deliverReply(bc, &wire.Envelope{Type: wire.MsgAck, Session: session})
	if e := entry(); e.base != 0 {
		t.Fatalf("unowed ack rebased: %+v", e)
	}
	// The ack of the owed re-subscribe does.
	if !bc.owe(session, 9, wire.MsgSubscribe, cl.out) {
		t.Fatal("ledger refused the re-subscribe")
	}
	r.deliverReply(bc, &wire.Envelope{Type: wire.MsgAck, Seq: 9, Session: session})
	if e := entry(); e.base != 3 || e.last != 3 {
		t.Fatalf("subscribe ack did not rebase: %+v", e)
	}

	// The replacement stream restarts at 1: delivered, rebased above the
	// old stream's range, monotonic for the client.
	push(1)
	if e := entry(); e.last != 4 {
		t.Fatalf("replacement stream first push mishandled: %+v", e)
	}
	push(2)
	if e := entry(); e.last != 5 {
		t.Fatalf("replacement stream second push mishandled: %+v", e)
	}

	// Duplicate raw counter maps at or below last: dropped.
	staleBefore := r.Metrics().Counter("router.pushes.stale").Value()
	push(2)
	if e := entry(); e.last != 5 {
		t.Fatalf("duplicate push advanced last: %+v", e)
	}
	if got := r.Metrics().Counter("router.pushes.stale").Value(); got != staleBefore+1 {
		t.Fatalf("duplicate not counted stale (%d -> %d)", staleBefore, got)
	}
}

// scatteredSessionIDs returns n distinct session IDs in no sorted order.
func scatteredSessionIDs(n int) []uint64 {
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i*7919%1009 + 1)
	}
	return ids
}

// TestPlanMovesInSessionOrder: a membership change over a fixed session
// set plans the same moves in the same ascending session order every time,
// so which sessions migrate first under the concurrency bound does not
// follow map order.
func TestPlanMovesInSessionOrder(t *testing.T) {
	r, err := NewRouter([]Member{{ID: 1, Addr: "unused"}}, discardLogger(), nil, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range scatteredSessionIDs(64) {
		r.sessions[id] = &routerClient{}
	}
	old, err := membership.NewRing([]Member{{ID: 1, Addr: "a"}, {ID: 2, Addr: "b"}})
	if err != nil {
		t.Fatal(err)
	}
	next, err := membership.NewRing([]Member{{ID: 1, Addr: "a"}, {ID: 2, Addr: "b"}, {ID: 3, Addr: "c"}})
	if err != nil {
		t.Fatal(err)
	}
	first := r.planMoves(old, next)
	if len(first) < 20 {
		t.Fatalf("the join moves %d sessions, want ≥ 20 to pin an order", len(first))
	}
	if !slices.IsSortedFunc(first, func(a, b move) int { return cmp.Compare(a.session, b.session) }) {
		t.Fatalf("moves not in ascending session order: %v", first)
	}
	for i := 0; i < 20; i++ {
		if got := r.planMoves(old, next); !slices.Equal(got, first) {
			t.Fatalf("plan %d differs from the first: %v, then %v", i+2, first, got)
		}
	}
}

// TestReplaySubscriptionsInSessionOrder: a reconnected shard gets its
// streams' subscribes replayed in ascending session ID, every time.
func TestReplaySubscriptionsInSessionOrder(t *testing.T) {
	r, err := NewRouter([]Member{{ID: 1, Addr: "unused"}}, discardLogger(), nil, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ids := scatteredSessionIDs(32)
	for _, id := range ids {
		r.subs[id] = &subEntry{payload: []byte{0, 0}}
	}
	want := slices.Clone(ids)
	slices.Sort(want)
	for round := 0; round < 20; round++ {
		shardEnd, routerEnd := net.Pipe()
		out := newOutbox(routerEnd, 1, nil)
		r.replaySubscriptions(&routerShard{member: Member{ID: 1}, bc: &dialConn{out: out}})
		fr := wire.NewFrameReader(shardEnd)
		got := make([]uint64, 0, len(ids))
		for range ids {
			env, err := fr.ReadEnvelope()
			if err != nil {
				t.Fatal(err)
			}
			if env.Type != wire.MsgSubscribe {
				t.Fatalf("replayed %v, want a subscribe", env.Type)
			}
			got = append(got, env.Session)
		}
		out.close()
		_ = shardEnd.Close()
		if !slices.Equal(got, want) {
			t.Fatalf("round %d replayed sessions %v, want %v", round, got, want)
		}
	}
}

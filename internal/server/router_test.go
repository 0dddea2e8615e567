package server

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"arbd/internal/core"
	"arbd/internal/geo"
	"arbd/internal/sensor"
	"arbd/internal/wire"
)

// rawConn speaks the wire protocol directly for tests that need to craft
// or observe envelopes the Client API hides (raw control payloads, backend
// handshakes, pipelining without reply matching).
type rawConn struct {
	c   net.Conn
	fr  *wire.FrameReader
	fw  *wire.FrameWriter
	seq uint64
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return &rawConn{c: c, fr: wire.NewFrameReader(c), fw: wire.NewFrameWriter(c)}
}

// send writes one envelope with the next sequence number and returns it.
func (rc *rawConn) send(t *testing.T, typ wire.MsgType, session uint64, payload []byte) uint64 {
	t.Helper()
	if err := rc.trySend(typ, session, payload); err != nil {
		t.Fatal(err)
	}
	return rc.seq
}

// trySend is send for goroutines other than the test's: it reports the
// error instead of failing the test.
func (rc *rawConn) trySend(typ wire.MsgType, session uint64, payload []byte) error {
	rc.seq++
	return sendEnvelope(rc.fw, &wire.Envelope{Type: typ, Seq: rc.seq, Session: session, Payload: payload})
}

func (rc *rawConn) read(t *testing.T) *wire.Envelope {
	t.Helper()
	env, err := rc.fr.ReadEnvelope()
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// hello performs the dialer side of the handshake, announcing version and
// returning the peer's hello.
func (rc *rawConn) hello(t *testing.T, name string, version uint32) wire.Hello {
	t.Helper()
	var hb wire.Buffer
	wire.EncodeHelloInto(&hb, wire.Hello{Name: name, Version: version})
	rc.send(t, wire.MsgHello, 0, hb.Bytes())
	env := rc.read(t)
	if env.Type != wire.MsgHello {
		t.Fatalf("handshake reply = %v payload %q", env.Type, env.Payload)
	}
	peer, err := wire.DecodeHello(env.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return peer
}

// sendGPS writes a raw GPS sensor envelope at the given position.
func (rc *rawConn) sendGPS(t *testing.T, session uint64, pos geo.Point) {
	t.Helper()
	var b wire.Buffer
	b.Byte(SensorGPS)
	b.Uvarint(uint64(time.Now().UnixNano()))
	b.Float64(pos.Lat)
	b.Float64(pos.Lon)
	b.Float64(3)
	rc.send(t, wire.MsgSensorEvent, session, b.Bytes())
}

// testCluster is a router fronting in-process shard nodes over loopback.
type testCluster struct {
	router *Router
	addr   string
	shards []*Shard
}

// startCluster wires n shards behind a router. tune, when non-nil, adjusts
// each shard's options before the shard starts.
func startCluster(t *testing.T, n int, tune func(i int, o *ShardOptions), ropts RouterOptions) *testCluster {
	t.Helper()
	discard := log.New(io.Discard, "", 0)
	tc := &testCluster{}
	members := make([]Member, 0, n)
	for i := 0; i < n; i++ {
		p, err := core.NewPlatform(core.Config{
			Seed: 1,
			City: geo.CityConfig{Center: center, RadiusM: 1500, NumPOIs: 600},
		})
		if err != nil {
			t.Fatal(err)
		}
		opts := ShardOptions{ID: uint64(i + 1)}
		if tune != nil {
			tune(i, &opts)
		}
		sh := NewShard(p, discard, opts)
		addr, err := sh.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tc.shards = append(tc.shards, sh)
		members = append(members, Member{ID: opts.ID, Addr: addr})
	}
	rt, err := NewRouter(members, discard, nil, ropts)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Connect(); err != nil {
		t.Fatal(err)
	}
	addr, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tc.router, tc.addr = rt, addr
	t.Cleanup(func() {
		_ = rt.Close()
		for _, sh := range tc.shards {
			_ = sh.Close()
		}
	})
	return tc
}

// shardOwning returns the indexes of cluster shards whose registry holds
// the session.
func (tc *testCluster) shardsOwning(id uint64) []int {
	var owners []int
	for i, sh := range tc.shards {
		if _, ok := sh.eng.platform.Session(id); ok {
			owners = append(owners, i)
		}
	}
	return owners
}

// TestRouterSessionAffinity drives many clients through a router over two
// shards and asserts placement: every envelope stream for one session lands
// on exactly one shard, the shard the ring names — and the sessions end on
// the shard when the clients disconnect.
func TestRouterSessionAffinity(t *testing.T) {
	tc := startCluster(t, 2, nil, RouterOptions{})
	const clients = 12
	const polls = 6

	conns := make([]*Client, clients)
	for c := range conns {
		cl, err := Dial(tc.addr)
		if err != nil {
			t.Fatal(err)
		}
		conns[c] = cl
		if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < polls; r++ {
			if _, _, err := cl.RequestFrame(); err != nil {
				t.Fatalf("client %d round %d: %v", c, r, err)
			}
		}
		// A control round trip (Ack through the forward hop) proves the
		// non-frame request path routes too.
		if err := cl.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	// Recover each client's session via the shards: with all conns still
	// open, the union of live sessions across shards must be exactly one
	// per client, each on the shard the ring picked.
	live := map[uint64]int{}
	for i, sh := range tc.shards {
		sh.eng.platform.ForEachSession(func(s *core.Session) bool {
			if owner, dup := live[s.ID]; dup {
				t.Errorf("session %d live on shards %d and %d", s.ID, owner, i)
			}
			live[s.ID] = i
			return true
		})
	}
	if len(live) != clients {
		t.Fatalf("%d live sessions across shards, want %d", len(live), clients)
	}
	for id, shardIdx := range live {
		want := tc.router.view.Load().Ring().Pick(id).ID
		if got := tc.shards[shardIdx].id; got != want {
			t.Fatalf("session %d lives on shard %d, ring says %d", id, got, want)
		}
		if owners := tc.shardsOwning(id); len(owners) != 1 {
			t.Fatalf("session %d owned by shards %v", id, owners)
		}
	}

	// Every frame was answered, so the outstanding-frame FIFO must be
	// fully compacted although no later request made admission read it —
	// the leak case for a long-running router.
	for id, ss := range tc.router.shards {
		bc := ss.backend()
		bc.owedMu.Lock()
		n, owed := len(bc.frames), len(bc.owed)
		bc.owedMu.Unlock()
		if n != 0 || owed != 0 {
			t.Fatalf("shard %d: %d pending-frame entries, %d owed replies left after all replies", id, n, owed)
		}
	}

	for _, cl := range conns {
		_ = cl.Close()
	}
	// Disconnects propagate as CtrlEndSession; the registries must drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		total := 0
		for _, sh := range tc.shards {
			total += sh.eng.platform.NumSessions()
		}
		if total == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still live after all clients disconnected", total)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouterSeqIntegrity reuses the standalone server's strict wire-level
// client against a router: every frame request answered with its own Seq in
// order, sessions pinned per connection and distinct across connections —
// the reply stream must be indistinguishable through a forward hop.
func TestRouterSeqIntegrity(t *testing.T) {
	tc := startCluster(t, 2, nil, RouterOptions{})
	const clients = 12
	const polls = 20

	sessionCh := make(chan uint64, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if err := runSeqClient(tc.addr, c, polls, sessionCh); err != nil {
				errs <- fmt.Errorf("client %d: %w", c, err)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	close(sessionCh)
	seen := make(map[uint64]bool)
	for id := range sessionCh {
		if seen[id] {
			t.Fatalf("session %d served two connections", id)
		}
		seen[id] = true
	}
	if len(seen) != clients {
		t.Fatalf("saw %d distinct sessions, want %d", len(seen), clients)
	}
}

// TestRouterShedsOnRemoteLoad is the multi-node admission check: with the
// target shard's only worker deterministically stalled and a frame request
// outstanding, a healthy load report leaves the follow-up request inside
// the base deadline (forwarded), while an inflated shard backlog — reported
// over the wire via MsgLoad — collapses the effective deadline to its floor
// and the router sheds the follow-up before the forward hop.
func TestRouterShedsOnRemoteLoad(t *testing.T) {
	const base = 4 * time.Second // floor = base/16 = 250ms
	const stall = 600 * time.Millisecond

	run := func(lagged bool) (shed int64, err error) {
		var loadFn func() core.LoadSignal
		if lagged {
			loadFn = func() core.LoadSignal { return core.LoadSignal{Backlog: 1 << 40} }
		}
		tc := startCluster(t, 1, func(i int, o *ShardOptions) {
			o.workers = 1
			o.load = loadFn
		}, RouterOptions{deadline: base})

		// Stall the shard's only worker from inside the process: callbacks
		// run on the worker goroutine, so the scheduler renders nothing
		// until release — every forwarded frame request stays outstanding.
		sh := tc.shards[0]
		blocker := sh.eng.platform.SessionOrNew(1 << 60)
		if err := blocker.OnGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
			t.Fatal(err)
		}
		release := make(chan struct{})
		var releaseOnce sync.Once
		rel := func() { releaseOnce.Do(func() { close(release) }) }
		var blocked sync.WaitGroup
		blocked.Add(1)
		if err := sh.eng.sched.Submit(blocker, func(*core.Frame) {}, func(err error) {
			defer blocked.Done()
			<-release
		}); err != nil {
			t.Fatal(err)
		}
		defer blocked.Wait()
		defer rel()

		cl, err := Dial(tc.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
			t.Fatal(err)
		}
		// Let the shard's load pusher reach the router before admission
		// decisions matter.
		time.Sleep(50 * time.Millisecond)

		// First request: always forwarded (nothing outstanding yet), then
		// held behind the stalled worker.
		first := make(chan error, 1)
		go func() {
			_, _, err := cl.RequestFrame()
			first <- err
		}()
		time.Sleep(stall)

		// Follow-up on a second connection (the first client is blocked in
		// its synchronous reply read). The router decides admission the
		// moment the request arrives, so sample the shed counter after a
		// short settle, then release the worker and collect the reply —
		// in the healthy case it only arrives once the queue drains.
		cl2, err := Dial(tc.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl2.Close()
		if err := cl2.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
			t.Fatal(err)
		}
		second := make(chan error, 1)
		go func() {
			_, _, err := cl2.RequestFrame()
			second <- err
		}()
		time.Sleep(150 * time.Millisecond)
		shed = tc.router.Metrics().Counter("router.frames.shed").Value()
		rel()
		return shed, <-second
	}

	shed, err := run(false)
	if err != nil {
		t.Fatalf("healthy shard: follow-up request failed: %v", err)
	}
	if shed != 0 {
		t.Fatalf("healthy shard: router shed %d frames inside the base deadline", shed)
	}

	shed, err = run(true)
	if err == nil {
		t.Fatal("lagged shard: follow-up request succeeded, want router shed")
	}
	if !strings.Contains(err.Error(), ErrFrameShed.Error()) {
		t.Fatalf("lagged shard: error %q does not classify as a shed", err)
	}
	if shed == 0 {
		t.Fatal("lagged shard: router.frames.shed not incremented")
	}
}

// TestRouterEndToEndBurst is the short router-mode end-to-end test CI runs
// under -race: a burst of loadgen-style clients against a router over two
// shards, sheds tolerated, errors not.
func TestRouterEndToEndBurst(t *testing.T) {
	tc := startCluster(t, 2, nil, RouterOptions{})
	const clients = 8
	const polls = 10
	var wg sync.WaitGroup
	var frames, sheds int64
	var mu sync.Mutex
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(tc.addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			pos := geo.Destination(center, float64(c*30), float64(c)*50)
			if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: pos, AccuracyM: 3}); err != nil {
				errs <- err
				return
			}
			for r := 0; r < polls; r++ {
				_, _, err := cl.RequestFrame()
				switch {
				case err == nil:
					mu.Lock()
					frames++
					mu.Unlock()
				case strings.Contains(err.Error(), ErrFrameShed.Error()):
					mu.Lock()
					sheds++
					mu.Unlock()
				default:
					errs <- fmt.Errorf("client %d round %d: %w", c, r, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if frames == 0 {
		t.Fatalf("burst completed no frames (%d sheds)", sheds)
	}
}

// TestRouterStreamE2E is the subscribe path through the full topology:
// clients against a router over two shards, each subscribing once and
// then receiving seq-ordered pushed frames with zero request round-trips,
// the pushes anchored near the client's own reported position (session
// affinity through the forward hop), ending with a clean unsubscribe.
func TestRouterStreamE2E(t *testing.T) {
	tc := startCluster(t, 2, nil, RouterOptions{})
	const clients = 8
	const wantFrames = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(tc.addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			if cl.Proto() != wire.ProtoMax {
				errs <- fmt.Errorf("client %d negotiated v%d", c, cl.Proto())
				return
			}
			pos := geo.Destination(center, float64(c*360/clients), 300+float64(c%4)*120)
			if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: pos, AccuracyM: 3}); err != nil {
				errs <- err
				return
			}
			frames, err := cl.Subscribe(context.Background(), SubscribeOptions{Interval: 3 * time.Millisecond})
			if err != nil {
				errs <- fmt.Errorf("client %d subscribe: %w", c, err)
				return
			}
			var lastSeq uint64
			deadline := time.After(15 * time.Second)
			for got := 0; got < wantFrames; got++ {
				select {
				case f, ok := <-frames:
					if !ok {
						errs <- fmt.Errorf("client %d: stream closed after %d frames: %v", c, got, cl.StreamErr())
						return
					}
					if f.Seq <= lastSeq {
						errs <- fmt.Errorf("client %d: push seq %d after %d", c, f.Seq, lastSeq)
						return
					}
					lastSeq = f.Seq
					for _, a := range f.Annotations {
						if d := geo.DistanceMeters(pos, a.Anchor); d > 400 {
							errs <- fmt.Errorf("client %d: annotation anchored %.0fm away — foreign session's frame", c, d)
							return
						}
					}
				case <-deadline:
					errs <- fmt.Errorf("client %d: stream stalled", c)
					return
				}
			}
			if err := cl.Unsubscribe(); err != nil {
				errs <- fmt.Errorf("client %d unsubscribe: %w", c, err)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every subscription ended cleanly: nothing left to replay.
	tc.router.subsMu.Lock()
	left := len(tc.router.subs)
	tc.router.subsMu.Unlock()
	if left != 0 {
		t.Fatalf("%d subscriptions still tracked after clean unsubscribes", left)
	}
}

// TestRouterStreamFirstPushAtOnce pins the first overlay at subscribe
// through a router: a 10 s stream answers its subscribe with the ack and
// then push 1 at once, not one interval later.
func TestRouterStreamFirstPushAtOnce(t *testing.T) {
	tc := startCluster(t, 2, nil, RouterOptions{})
	rc := dialRaw(t, tc.addr)
	rc.hello(t, "raw", wire.ProtoMax)
	rc.sendGPS(t, 0, center)
	var sb wire.Buffer
	wire.EncodeSubscribeInto(&sb, wire.Subscribe{IntervalMS: 10_000, Budget: 16})
	subSeq := rc.send(t, wire.MsgSubscribe, 0, sb.Bytes())
	_ = rc.c.SetDeadline(time.Now().Add(2 * time.Second))
	if env := rc.read(t); env.Type != wire.MsgAck || env.Seq != subSeq {
		t.Fatalf("subscribe reply = %v seq %d, want ack seq %d", env.Type, env.Seq, subSeq)
	}
	if env := rc.read(t); env.Type != wire.MsgFramePush || env.Seq != 1 {
		t.Fatalf("after the ack: %v seq %d, want frame_push seq 1", env.Type, env.Seq)
	}
}

// TestRetryPolicyDeterministicDelays pins the reconnect backoff clock:
// doubling from base, capped at max — checked as pure math, no time
// elapses.
func TestRetryPolicyDeterministicDelays(t *testing.T) {
	p := defaultRetry
	want := []time.Duration{
		50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond,
		400 * time.Millisecond, 800 * time.Millisecond, time.Second,
		time.Second, time.Second, // past the cap it stays flat
	}
	for i, w := range want {
		if got := p.delay(i + 1); got != w {
			t.Fatalf("delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := p.delay(0); got != p.base {
		t.Fatalf("delay(0) = %v, want clamped to base", got)
	}
	var o RouterOptions
	o.defaults()
	if o.retry != defaultRetry || o.retry.attempts != 6 {
		t.Fatalf("router retry defaults = %+v", o.retry)
	}
}

// TestRouterReconnectsShardAndReplaysStreams bounces a shard under a live
// subscription: the router redials with backoff, replays the subscribe on
// the new connection, and — after the client refreshes its sensor state —
// pushes resume on the same client channel, no ErrShardDown in sight.
func TestRouterReconnectsShardAndReplaysStreams(t *testing.T) {
	tc := startCluster(t, 1, nil, RouterOptions{
		retry: retryPolicy{base: 20 * time.Millisecond, max: 100 * time.Millisecond, attempts: 50},
	})
	cl, err := Dial(tc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	frames, err := cl.Subscribe(context.Background(), SubscribeOptions{Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var lastSeq uint64
	select {
	case f := <-frames:
		lastSeq = f.Seq
	case <-time.After(10 * time.Second):
		t.Fatal("no frame before the bounce")
	}

	// Bounce: close the shard, then bring a fresh one up on the same
	// address with the same member ID.
	addr := tc.shards[0].cs.ln.Addr().String()
	if err := tc.shards[0].Close(); err != nil {
		t.Fatal(err)
	}
	p := newTestPlatform(t)
	var sh2 *Shard
	deadline := time.Now().Add(10 * time.Second)
	for {
		sh2 = NewShard(p, discardLogger(), ShardOptions{
			ID: 1,
		})
		if _, err := sh2.Listen(addr); err == nil {
			break
		}
		_ = sh2.Close()
		if time.Now().After(deadline) {
			t.Fatal("could not rebind the shard address")
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Cleanup(func() { _ = sh2.Close() })

	// The shard bounce razed server-side sensor state; refresh it while
	// the router reconnects and replays the subscription.
	refresh := time.NewTicker(20 * time.Millisecond)
	defer refresh.Stop()
	resumed := time.After(30 * time.Second)
	for {
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatalf("stream died across the bounce: %v", cl.StreamErr())
			}
			// The replayed server-side stream restarts its push counter,
			// but the router rebases it: f.Seq is the seq read off the
			// wire, untouched by the client, and it stays strictly
			// increasing across the bounce.
			if f.Seq <= lastSeq {
				t.Fatalf("push seq went %d -> %d across the bounce", lastSeq, f.Seq)
			}
			lastSeq = f.Seq
			// A push the old shard got out before it closed may still be
			// buffered here; the stream has resumed once the new shard pushes.
			if len(f.Annotations) > 0 && p.Metrics().Counter("server.stream.pushes").Value() > 0 {
				if tc.router.Metrics().Counter("router.shard.reconnects").Value() == 0 {
					t.Fatal("frames resumed without a recorded reconnect")
				}
				return // stream resumed on the new shard
			}
		case <-refresh.C:
			_ = cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3})
		case <-resumed:
			t.Fatal("stream never resumed after the shard came back")
		}
	}
}

// TestRouterStreamFailsAfterRetryBudget kills a shard for good under a
// live subscription with a tiny retry budget: once the budget is spent —
// and only then — the stream ends with the typed ErrShardDown obituary.
func TestRouterStreamFailsAfterRetryBudget(t *testing.T) {
	tc := startCluster(t, 1, nil, RouterOptions{
		retry: retryPolicy{base: 10 * time.Millisecond, max: 20 * time.Millisecond, attempts: 3},
	})
	cl, err := Dial(tc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	frames, err := cl.Subscribe(context.Background(), SubscribeOptions{Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-frames:
	case <-time.After(10 * time.Second):
		t.Fatal("no frame before the shard died")
	}
	if err := tc.shards[0].Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(30 * time.Second)
	for {
		select {
		case _, ok := <-frames:
			if ok {
				continue // in-flight frames drain first
			}
			serr := cl.StreamErr()
			if serr == nil || !strings.Contains(serr.Error(), ErrShardDown.Error()) {
				t.Fatalf("stream ended with %v, want ErrShardDown", serr)
			}
			if got := tc.router.Metrics().Counter("router.shard.reconnects").Value(); got != 0 {
				t.Fatalf("reconnect recorded against a dead listener: %d", got)
			}
			return
		case <-deadline:
			t.Fatal("stream never surfaced ErrShardDown after the retry budget")
		}
	}
}

// TestRouterRejectsMiswiredShard checks the hello handshake catches a
// membership config pointing at the wrong shard.
func TestRouterRejectsMiswiredShard(t *testing.T) {
	discard := log.New(io.Discard, "", 0)
	p, err := core.NewPlatform(core.Config{
		Seed: 1,
		City: geo.CityConfig{Center: center, RadiusM: 1500, NumPOIs: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShard(p, discard, ShardOptions{ID: 7})
	addr, err := sh.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sh.Close() })

	rt, err := NewRouter([]Member{{ID: 1, Addr: addr}}, discard, nil, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Connect(); err == nil {
		t.Fatal("router connected to a shard announcing the wrong ID")
	} else if !strings.Contains(err.Error(), "miswired") {
		t.Fatalf("unexpected connect error: %v", err)
	}
}

// TestShardPipelinedFrameRequestsSameSession pins the scratch-aliasing fix:
// a client that pipelines frame requests without awaiting replies re-enters
// Session.Frame while an earlier reply could still be encoding. The reply
// is encoded under the session lock (FrameVisit), so under -race with
// several workers every pipelined request must come back a valid frame.
func TestShardPipelinedFrameRequestsSameSession(t *testing.T) {
	discard := log.New(io.Discard, "", 0)
	p, err := core.NewPlatform(core.Config{
		Seed: 1,
		City: geo.CityConfig{Center: center, RadiusM: 1500, NumPOIs: 600},
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := NewShard(p, discard, ShardOptions{
		ID:      1,
		workers: 4,
	})
	addr, err := sh.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sh.Close() })

	// Speak the backend protocol directly: hello, then pipeline.
	conn := dialRaw(t, addr)
	conn.hello(t, "test-router", wire.ProtoMax)

	const session = 42
	const burst = 32
	conn.sendGPS(t, session, center)
	for i := 0; i < burst; i++ {
		conn.send(t, wire.MsgFrameRequest, session, nil)
	}
	seqs := make(map[uint64]bool)
	for i := 0; i < burst; i++ {
		env := conn.read(t)
		if env.Type == wire.MsgLoad {
			i-- // load pushes interleave with replies; not a frame reply
			continue
		}
		if env.Type != wire.MsgAnnotations {
			t.Fatalf("reply %d: type %v payload %q", i, env.Type, env.Payload)
		}
		if env.Session != session {
			t.Fatalf("reply %d: session %d", i, env.Session)
		}
		if _, err := core.DecodeFrame(env.Payload); err != nil {
			t.Fatalf("reply %d: corrupt frame payload: %v", i, err)
		}
		seqs[env.Seq] = true
	}
	if len(seqs) != burst {
		t.Fatalf("got %d distinct reply seqs, want %d", len(seqs), burst)
	}
}

// TestRouterReportsShardDownNotShed pins the failure diagnosis: once a
// shard's backend connection dies, frame requests must surface
// ErrShardDown — not be absorbed as benign overload sheds by a stale
// outstanding-frame head.
func TestRouterReportsShardDownNotShed(t *testing.T) {
	tc := startCluster(t, 1, nil, RouterOptions{})
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
	if err := tc.shards[0].Close(); err != nil {
		t.Fatal(err)
	}
	// No wait for the router to notice: a request racing the detection is
	// in the shard's ledger, and answered ErrShardDown when the reader sees
	// the connection die.
	_, _, err = cl.RequestFrame()
	if err == nil {
		t.Fatal("frame request succeeded against a dead shard")
	}
	if strings.Contains(err.Error(), ErrFrameShed.Error()) {
		t.Fatalf("dead shard reported as overload shed: %v", err)
	}
	if !strings.Contains(err.Error(), ErrShardDown.Error()) {
		t.Fatalf("dead shard surfaced %v, want ErrShardDown", err)
	}
	if shed := tc.router.Metrics().Counter("router.frames.shed").Value(); shed != 0 {
		t.Fatalf("dead shard produced %d fake overload sheds", shed)
	}
}

// TestShardLossAnswersInFlightRequests pins the ledger's last job: requests
// already forwarded when the backend connection dies are answered
// ErrShardDown, each exactly once and with its client's reply-window slot
// returned, instead of waiting forever for a shard that will never answer
// them; and the dead connection's ledger ends empty.
func TestShardLossAnswersInFlightRequests(t *testing.T) {
	tc := startCluster(t, 1, func(i int, o *ShardOptions) { o.workers = 1 }, RouterOptions{})
	// Wedge the shard's only worker: every frame forwarded now stays owed.
	sh := tc.shards[0]
	blocker := sh.eng.platform.SessionOrNew(1 << 60)
	if err := blocker.OnGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var blocked sync.WaitGroup
	blocked.Add(1)
	if err := sh.eng.sched.Submit(blocker, func(*core.Frame) {}, func(error) {
		defer blocked.Done()
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	defer blocked.Wait()
	defer close(release)

	rc := dialRaw(t, tc.addr)
	_ = rc.c.SetDeadline(time.Now().Add(10 * time.Second))
	id := rc.hello(t, "raw", wire.ProtoMax).ID
	rc.sendGPS(t, 0, center)
	const inFlight = 3
	owed := make(map[uint64]bool)
	for i := 0; i < inFlight; i++ {
		owed[rc.send(t, wire.MsgFrameRequest, 0, nil)] = true
	}
	ss := tc.router.shard(sh.id)
	bc := ss.backend()
	waitFor(t, "the frame requests to be forwarded", func() bool {
		bc.owedMu.Lock()
		defer bc.owedMu.Unlock()
		return len(bc.frames) == inFlight
	})
	_ = bc.conn.Close() // the backend connection dies under them
	for i := 0; i < inFlight; i++ {
		env := rc.read(t)
		if env.Type != wire.MsgError || !owed[env.Seq] || !strings.Contains(string(env.Payload), ErrShardDown.Error()) {
			t.Fatalf("reply %d = %v seq %d %q, want ErrShardDown for one of %v", i, env.Type, env.Seq, env.Payload, owed)
		}
		delete(owed, env.Seq)
	}
	// Exactly once: a second answer would drive the client's reply count
	// negative, a missed one would leave it positive.
	tc.router.sessMu.RLock()
	out := tc.router.sessions[id].out
	tc.router.sessMu.RUnlock()
	waitFor(t, "the client's reply window to be returned", func() bool {
		out.mu.Lock()
		defer out.mu.Unlock()
		return out.replies == 0
	})
	bc.owedMu.Lock()
	left, frames := len(bc.owed), len(bc.frames)
	bc.owedMu.Unlock()
	if left != 0 || frames != 0 {
		t.Fatalf("dead connection's ledger holds %d entries, %d frames", left, frames)
	}
}

// TestRouterStripsControlPayloads pins the discriminator isolation: a
// client control envelope whose payload collides with the router↔shard
// CtrlEndSession verb must still behave as a ping (Ack) and must not tear
// the session down, and a client's migrate_session is refused by the router
// rather than forwarded. Spoken raw, since the Client API never sends
// either.
func TestRouterStripsControlPayloads(t *testing.T) {
	tc := startCluster(t, 1, nil, RouterOptions{})
	rc := dialRaw(t, tc.addr)
	_ = rc.c.SetDeadline(time.Now().Add(10 * time.Second))
	rc.hello(t, "raw", wire.ProtoMax)
	rc.sendGPS(t, 0, center)
	frameSeq := rc.send(t, wire.MsgFrameRequest, 0, nil)
	env := rc.read(t)
	if env.Type != wire.MsgAnnotations || env.Seq != frameSeq {
		t.Fatalf("frame reply = %v seq %d", env.Type, env.Seq)
	}
	if got := tc.shards[0].eng.platform.NumSessions(); got != 1 {
		t.Fatalf("live sessions = %d, want 1", got)
	}
	// A control with the internal end-session discriminator, sent by the
	// client: must round-trip as an Ack like any other control.
	ctlSeq := rc.send(t, wire.MsgControl, 0, []byte{CtrlEndSession})
	env = rc.read(t)
	if env.Type != wire.MsgAck || env.Seq != ctlSeq {
		t.Fatalf("control reply = %v seq %d, want ack seq %d", env.Type, env.Seq, ctlSeq)
	}
	if got := tc.shards[0].eng.platform.NumSessions(); got != 1 {
		t.Fatalf("client control payload ended the session (live = %d)", got)
	}
	// An export request from a client would detach its session on the shard.
	migSeq := rc.send(t, wire.MsgMigrateSession, 0, nil)
	env = rc.read(t)
	if env.Type != wire.MsgError || env.Seq != migSeq || !strings.Contains(string(env.Payload), "unsupported") {
		t.Fatalf("migrate_session reply = %v seq %d %q, want the router's refusal", env.Type, env.Seq, env.Payload)
	}
	// The session still frames.
	rc.send(t, wire.MsgFrameRequest, 0, nil)
	if env = rc.read(t); env.Type != wire.MsgAnnotations {
		t.Fatalf("post-control frame reply = %v", env.Type)
	}
	if got := tc.shards[0].eng.platform.NumSessions(); got != 1 {
		t.Fatalf("live sessions = %d after the refused export, want 1", got)
	}
}

// TestRouterRefusesUndecodableSubscribe pins that a router answers a
// subscribe it cannot decode itself, and neither tracks nor forwards it: a
// tracked one would show as a phantom stream, be replayed on every shard
// bounce and migration resume, and — as a re-subscribe — overwrite a live
// stream's good payload.
func TestRouterRefusesUndecodableSubscribe(t *testing.T) {
	tc := startCluster(t, 1, nil, RouterOptions{})
	rc := dialRaw(t, tc.addr)
	_ = rc.c.SetDeadline(time.Now().Add(10 * time.Second))
	session := rc.hello(t, "raw", wire.ProtoMax).ID
	rc.sendGPS(t, 0, center)
	tracked := func() []byte {
		tc.router.subsMu.Lock()
		defer tc.router.subsMu.Unlock()
		if e := tc.router.subs[session]; e != nil {
			return e.payload
		}
		return nil
	}
	// refused sends a malformed subscribe and reads up to its error reply,
	// skipping the pushes of a live stream.
	refused := func(what string) {
		t.Helper()
		seq := rc.send(t, wire.MsgSubscribe, 0, []byte{0xff})
		for {
			env := rc.read(t)
			if env.Type == wire.MsgFramePush {
				continue
			}
			if env.Type != wire.MsgError || env.Seq != seq || !strings.Contains(string(env.Payload), "subscribe") {
				t.Fatalf("%s: reply = %v seq %d %q, want the decode error for seq %d", what, env.Type, env.Seq, env.Payload, seq)
			}
			return
		}
	}

	refused("first subscribe")
	if p := tracked(); p != nil {
		t.Fatalf("first subscribe: the refused payload %x is tracked", p)
	}

	var sb wire.Buffer
	wire.EncodeSubscribeInto(&sb, wire.Subscribe{IntervalMS: 5, Budget: 16})
	good := sb.Bytes()
	subSeq := rc.send(t, wire.MsgSubscribe, 0, good)
	if env := rc.read(t); env.Type != wire.MsgAck || env.Seq != subSeq {
		t.Fatalf("subscribe reply = %v seq %d", env.Type, env.Seq)
	}
	refused("re-subscribe")
	if p := tracked(); string(p) != string(good) {
		t.Fatalf("re-subscribe: tracked payload %x, want the live stream's %x", p, good)
	}
	// The live stream carries on.
	last := uint64(0)
	for i := 0; i < 3; i++ {
		env := rc.read(t)
		if env.Type != wire.MsgFramePush || env.Seq <= last {
			t.Fatalf("after the refusal: %v seq %d (last %d)", env.Type, env.Seq, last)
		}
		last = env.Seq
	}
}

// gatedConn is a router's end of a shard connection whose reads block while
// its gate is shut: the shard keeps writing, the router reads nothing until
// the gate opens — a router reader that has fallen behind its shard.
type gatedConn struct {
	net.Conn
	gate sync.RWMutex // write-locked: the gate is shut
}

func (g *gatedConn) Read(p []byte) (int, error) {
	g.gate.RLock() // waits while the gate is shut
	g.gate.RUnlock()
	return g.Conn.Read(p)
}

// TestRouterStreamResubscribeBehindSlowShard is the regression test for a
// re-subscribe read long after it was sent: with the router more than a
// second behind its shard, the replaced stream's last pushes, the
// re-subscribe's ack and the new stream's first pushes all reach it in one
// burst. The rebase happens at the ack, so the wire seq stays strictly
// increasing, the first push after the ack is the new stream's keyframe,
// and no push is dropped as stale.
func TestRouterStreamResubscribeBehindSlowShard(t *testing.T) {
	_, shardAddr := newExtraShard(t, 1)
	var gc *gatedConn
	rt, err := NewRouter([]Member{{ID: 1, Addr: shardAddr}}, discardLogger(), nil, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	dial := rt.dial
	rt.dial = func(addr string) (net.Conn, error) {
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		gc = &gatedConn{Conn: c}
		return gc, nil
	}
	if err := rt.Connect(); err != nil {
		t.Fatal(err)
	}
	addr, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	rc := dialRaw(t, addr)
	_ = rc.c.SetDeadline(time.Now().Add(20 * time.Second))
	rc.hello(t, "raw-v4", wire.ProtoMax)
	rc.sendGPS(t, 0, center)
	// 50 ms keeps the backlog the gate builds (≈27 pushes) inside the
	// router's per-client push queue, whose drop-oldest would otherwise
	// shed the keyframe legitimately.
	var sb wire.Buffer
	wire.EncodeSubscribeInto(&sb, wire.Subscribe{IntervalMS: 50, Budget: 16, Flags: wire.SubFlagDelta})
	subSeq := rc.send(t, wire.MsgSubscribe, 0, sb.Bytes())
	if env := rc.read(t); env.Type != wire.MsgAck || env.Seq != subSeq {
		t.Fatalf("subscribe reply = %v seq %d", env.Type, env.Seq)
	}
	var last uint64
	readPush := func() *wire.Envelope {
		t.Helper()
		env := rc.read(t)
		if env.Type != wire.MsgFrameDelta {
			t.Fatalf("read %v seq %d, want a delta push", env.Type, env.Seq)
		}
		if env.Seq <= last {
			t.Fatalf("wire push seq went %d -> %d", last, env.Seq)
		}
		last = env.Seq
		return env
	}
	for i := 0; i < 5; i++ {
		readPush()
	}

	gc.gate.Lock()
	time.Sleep(150 * time.Millisecond)
	resubSeq := rc.send(t, wire.MsgSubscribe, 0, sb.Bytes())
	time.Sleep(1200 * time.Millisecond)
	gc.gate.Unlock()

	// The replaced stream's pushes, then the ack, then the new stream.
	for {
		env := rc.read(t)
		if env.Type == wire.MsgAck && env.Seq == resubSeq {
			break
		}
		if env.Type != wire.MsgFrameDelta || env.Seq <= last {
			t.Fatalf("before the re-subscribe ack: %v seq %d (last %d)", env.Type, env.Seq, last)
		}
		last = env.Seq
	}
	if env := readPush(); !core.FrameDeltaIsKeyframe(env.Payload) {
		t.Fatalf("first push after the re-subscribe ack (seq %d) is not a keyframe", env.Seq)
	}
	for i := 0; i < 5; i++ {
		readPush()
	}
	if n := rt.Metrics().Counter("router.pushes.stale").Value(); n != 0 {
		t.Fatalf("router.pushes.stale = %d, want 0", n)
	}
}

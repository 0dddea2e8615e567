package server

import (
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"arbd/internal/core"
	"arbd/internal/sensor"
	"arbd/internal/server/membership"
	"arbd/internal/wire"
)

// rawPipe hands one end of an in-memory pipe to serve and returns the other
// as a rawConn. A net.Pipe has no buffer at all: every byte the server
// writes waits for the test to read it, so a test that stops reading is a
// peer whose TCP window closed at once.
func rawPipe(t *testing.T, serve func(net.Conn)) (rc *rawConn, served <-chan struct{}) {
	t.Helper()
	peer, accepted := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		serve(accepted)
		_ = accepted.Close()
	}()
	t.Cleanup(func() { _ = peer.Close() })
	return &rawConn{c: peer, fr: wire.NewFrameReader(peer), fw: wire.NewFrameWriter(peer)}, done
}

// pollWithin runs one RequestFrame on cl and fails the test unless it
// completes inside limit.
func pollWithin(t *testing.T, cl *Client, limit time.Duration, blame string) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, _, err := cl.RequestFrame()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(limit):
		t.Fatalf("a healthy client's poll took over %v: %s", limit, blame)
	}
}

// TestStalledPollerCostsOnlyItself is the regression test for the polled
// reply path: a client that requests a frame and never reads the reply must
// not hold the scheduler worker that rendered it. With one worker, a reply
// written from the worker would wedge every other session's frames behind
// the stalled peer; queued on the connection's outbox it costs the worker
// an enqueue.
func TestStalledPollerCostsOnlyItself(t *testing.T) {
	p := newTestPlatform(t)
	srv := newServer(p, discardLogger(), 1)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	goroutines, sessions := runtime.NumGoroutine(), p.NumSessions()

	stalled, served := rawPipe(t, srv.cs.serve)
	stalled.hello(t, "stalled", wire.ProtoMax)
	stalled.sendGPS(t, 0, center)
	stalled.send(t, wire.MsgFrameRequest, 0, nil)
	// Its frame is rendered; the reply now waits on a peer that never reads.
	done := p.Metrics().Counter("server.frames.done")
	waitFor(t, "the stalled client's frame to render", func() bool { return done.Value() >= 1 })

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	pollWithin(t, cl, time.Second, "the stalled peer's unread reply is holding the only scheduler worker")

	// Hanging up is all it takes to get everything back.
	_ = cl.Close()
	_ = stalled.c.Close()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("the stalled connection's loop did not end when its peer hung up")
	}
	waitFor(t, "sessions to end", func() bool { return p.NumSessions() == sessions })
	waitFor(t, "connection goroutines to exit", func() bool { return runtime.NumGoroutine() <= goroutines })
}

// TestStalledRoutedClientCostsOnlyItself is the same promise one hop out: a
// routed client that pipelines frame requests and never reads must not
// delay another client placed on the same shard. The shard reader that
// forwards the stalled client's replies serves every other client of the
// shard; a reply written from it blocks them all once the stalled peer's
// socket fills — at once, on a pipe.
func TestStalledRoutedClientCostsOnlyItself(t *testing.T) {
	tc := startCluster(t, 1, nil, RouterOptions{})
	stalled, _ := rawPipe(t, tc.router.cs.serve)
	stalled.hello(t, "stalled", wire.ProtoMax)
	stalled.sendGPS(t, 0, center)
	go func() { // the router may stop reading a peer that never does: this write then blocks
		for i := 0; i < 200; i++ {
			if stalled.trySend(wire.MsgFrameRequest, 0, nil) != nil {
				return
			}
		}
	}()
	// Wait until the shard has nothing left to render for it: every reply
	// the stalled client will be sent without reading is queued, or stuck.
	done := tc.shards[0].eng.platform.Metrics().Counter("server.frames.done")
	var last int64
	waitFor(t, "the stalled client's frames to stop", func() bool {
		time.Sleep(100 * time.Millisecond)
		now := done.Value()
		quiet := now > 0 && now == last
		last = now
		return quiet
	})

	cl, err := Dial(tc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	pollWithin(t, cl, time.Second, "the stalled client's unread replies are holding the shard reader")
}

// TestStalledShardCostsOnlyItsOwnClients is the forward direction's
// promise: a shard that completes its hello and then never reads stalls
// only the clients forwarding to it. While one client's forward to it is
// pending, a client on the other shard polls inside a second and a third
// shard joins inside a second — no router goroutine holds a lock across a
// write to a shard. Close then leaves nothing of the router running: no
// client loop, shard reader or backend writer outlives it.
func TestStalledShardCostsOnlyItsOwnClients(t *testing.T) {
	_, healthyAddr := newExtraShard(t, 1)
	_, joinAddr := newExtraShard(t, 3)
	stalledEnd, routerEnd := net.Pipe()
	t.Cleanup(func() { _ = stalledEnd.Close() })
	go func() { // the stalled shard answers the router's hello, then reads nothing
		hello, err := wire.NewFrameReader(stalledEnd).ReadEnvelope()
		if err != nil {
			return
		}
		var hb wire.Buffer
		wire.EncodeHelloInto(&hb, wire.Hello{ID: 2, Name: "stalled", Version: wire.ProtoMax})
		_ = sendEnvelope(wire.NewFrameWriter(stalledEnd), &wire.Envelope{Type: wire.MsgHello, Seq: hello.Seq, Payload: hb.Bytes()})
	}()
	goroutines := runtime.NumGoroutine()
	members := []Member{{ID: 1, Addr: healthyAddr}, {ID: 2, Addr: "stalled"}}
	rt, err := NewRouter(members, discardLogger(), nil, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	dial := rt.dial
	rt.dial = func(addr string) (net.Conn, error) {
		if addr == "stalled" {
			return routerEnd, nil
		}
		return dial(addr)
	}
	if err := rt.Connect(); err != nil {
		t.Fatal(err)
	}
	addr, err := rt.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// One client on each shard, both staying put when shard 3 joins: the
	// join must not wait on a migration off the stalled shard.
	grown, err := membership.NewRing(append(members, Member{ID: 3, Addr: joinAddr}))
	if err != nil {
		t.Fatal(err)
	}
	place := func(shard uint64) *Client {
		id := rt.nextSess.Load() + 1
		for rt.view.Load().Ring().Pick(id).ID != shard || grown.Pick(id).ID != shard {
			id++
		}
		rt.nextSess.Store(id - 1)
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = cl.Close() })
		if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
			t.Fatal(err)
		}
		return cl
	}
	stalled, healthy := place(2), place(1)
	pending := make(chan error, 1)
	go func() {
		_, _, err := stalled.RequestFrame()
		pending <- err
	}()
	bc := rt.shard(2).backend()
	waitFor(t, "the stalled client's frame request to be forwarded", func() bool {
		bc.owedMu.Lock()
		defer bc.owedMu.Unlock()
		return len(bc.frames) == 1
	})

	pollWithin(t, healthy, time.Second, "a forward to the stalled shard is holding the router")
	joined := make(chan error, 1)
	go func() {
		_, err := rt.Join(Member{ID: 3, Addr: joinAddr})
		joined <- err
	}()
	select {
	case err := <-joined:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("a shard join took over a second: a forward to the stalled shard holds the membership lock")
	}
	pollWithin(t, healthy, time.Second, "after the join")
	select {
	case err := <-pending:
		t.Fatalf("the stalled shard's client was answered: %v", err)
	default:
	}

	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	for _, fn := range []string{"(*Router)", "backendWriter"} {
		if strings.Contains(stacks, fn) {
			t.Fatalf("%s is still running after Router.Close:\n%s", fn, stacks)
		}
	}
	if err := <-pending; err == nil {
		t.Fatal("the stalled shard's client got a frame")
	}
	_ = stalled.Close()
	_ = healthy.Close()
	waitFor(t, "connection goroutines to exit", func() bool { return runtime.NumGoroutine() <= goroutines })
}

// TestLoadReportDropsAreNotFrameDrops pins what server.stream.dropped counts:
// frame pushes a peer never received. A router that stops reading a backend
// connection with no subscriptions loses only load reports, each superseded
// by the next, and the shard must not report them as lost frames.
func TestLoadReportDropsAreNotFrameDrops(t *testing.T) {
	p := newTestPlatform(t)
	var reports atomic.Int64
	sh := NewShard(p, discardLogger(), ShardOptions{ID: 1, loadEvery: time.Millisecond,
		load: func() core.LoadSignal { reports.Add(1); return core.LoadSignal{} }})
	t.Cleanup(func() { _ = sh.Close() })
	rc, _ := rawPipe(t, sh.cs.serve)
	rc.hello(t, "stalled-router", wire.ProtoMax)
	// Twice the backend outbox's push capacity, none of it read.
	waitFor(t, "the load reports to overflow the outbox", func() bool { return reports.Load() > 2*backendPushQueue })
	if n := p.Metrics().Counter("server.stream.dropped").Value(); n != 0 {
		t.Fatalf("server.stream.dropped = %d with no stream on the connection: load reports counted as frames", n)
	}
}

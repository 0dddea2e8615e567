package server

import (
	"net"
	"runtime"
	"testing"
	"time"

	"arbd/internal/sensor"
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
	srv := NewWithOptions(p, discardLogger(), Options{Scheduler: SchedulerConfig{Workers: 1, Deadline: -1}})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	goroutines, sessions := runtime.NumGoroutine(), p.NumSessions()

	stalled, served := rawPipe(t, srv.serveConn)
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
	tc := startCluster(t, 1, nil, RouterOptions{Deadline: -1})
	stalled, _ := rawPipe(t, tc.router.serveClient)
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
	done := tc.shards[0].Engine().Platform().Metrics().Counter("server.frames.done")
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

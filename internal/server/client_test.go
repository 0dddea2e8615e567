package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"arbd/internal/core"
	"arbd/internal/geo"
	"arbd/internal/metrics"
	"arbd/internal/render"
	"arbd/internal/sensor"
	"arbd/internal/wire"
)

// fakeServer accepts one connection, answers the hello at the given
// version, and hands the conn to serve. It stands in for misbehaving or
// down-level servers the real Engine would never produce.
func fakeServer(t *testing.T, version uint32, serve func(fr *wire.FrameReader, fw *wire.FrameWriter)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		fr := wire.NewFrameReader(conn)
		fw := wire.NewFrameWriter(conn)
		env, err := fr.ReadEnvelope()
		if err != nil || env.Type != wire.MsgHello {
			return
		}
		var hb wire.Buffer
		wire.EncodeHelloInto(&hb, wire.Hello{ID: 99, Name: "fake", Version: version})
		_ = fw.WriteEnvelope(&wire.Envelope{Type: wire.MsgHello, Seq: env.Seq, Payload: hb.Bytes()})
		_ = fw.Flush()
		if serve != nil {
			serve(fr, fw)
		}
	}()
	return ln.Addr().String()
}

// encodeTaggedFrame builds a valid empty-frame payload whose ElapsedNs
// carries the tag, so tests can tell replies apart.
func encodeTaggedFrame(tag uint64) []byte {
	var b wire.Buffer
	b.Uvarint(0)   // annotations
	b.Uvarint(0)   // level
	b.Uvarint(tag) // elapsed ns = tag
	return b.Bytes()
}

// TestRequestFrameMatchesSeq is the regression test for the reply-matching
// bug: the old client accepted *any* MsgAnnotations as the answer to its
// frame request. The fake server answers each request with an unrelated
// annotations envelope (wrong seq) first, then the real reply; the client
// must return the frame whose envelope carried the request's seq.
func TestRequestFrameMatchesSeq(t *testing.T) {
	addr := fakeServer(t, wire.ProtoMin, func(fr *wire.FrameReader, fw *wire.FrameWriter) {
		for {
			env, err := fr.ReadEnvelope()
			if err != nil {
				return
			}
			if env.Type != wire.MsgFrameRequest {
				continue
			}
			// A stray reply with an unrelated seq, then the real one.
			_ = fw.WriteEnvelope(&wire.Envelope{Type: wire.MsgAnnotations, Seq: env.Seq + 1000,
				Session: 99, Payload: encodeTaggedFrame(666)})
			_ = fw.WriteEnvelope(&wire.Envelope{Type: wire.MsgAnnotations, Seq: env.Seq,
				Session: 99, Payload: encodeTaggedFrame(42)})
			_ = fw.Flush()
		}
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 3; i++ {
		f, _, err := cl.RequestFrame()
		if err != nil {
			t.Fatal(err)
		}
		if f.ElapsedNs != 42 {
			t.Fatalf("round %d: client returned the wrong-seq reply (tag %d)", i, f.ElapsedNs)
		}
	}
}

// TestPipelinedRequestsMatchOutOfOrderReplies drives concurrent requests
// against a server that answers them in reverse order: each caller must
// still get its own reply.
func TestPipelinedRequestsMatchOutOfOrderReplies(t *testing.T) {
	const batch = 4
	addr := fakeServer(t, wire.ProtoMin, func(fr *wire.FrameReader, fw *wire.FrameWriter) {
		for {
			var pend []*wire.Envelope
			for len(pend) < batch {
				env, err := fr.ReadEnvelope()
				if err != nil {
					return
				}
				if env.Type == wire.MsgFrameRequest {
					pend = append(pend, env)
				}
			}
			for i := len(pend) - 1; i >= 0; i-- {
				_ = fw.WriteEnvelope(&wire.Envelope{Type: wire.MsgAnnotations, Seq: pend[i].Seq,
					Session: 99, Payload: encodeTaggedFrame(pend[i].Seq)})
			}
			_ = fw.Flush()
		}
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	errs := make(chan error, batch)
	for i := 0; i < batch; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, _, err := cl.RequestFrame()
			if err != nil {
				errs <- err
				return
			}
			if f.ElapsedNs == 0 {
				errs <- errors.New("untagged reply")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The matching invariant is stronger than "no error": every caller saw
	// the tag equal to a seq the server actually used, and the ledger of
	// owed replies drained fully.
	cl.owedMu.Lock()
	left := len(cl.owed)
	cl.owedMu.Unlock()
	if left != 0 {
		t.Fatalf("%d pending entries leaked", left)
	}
}

// TestDialVersionMismatchTyped pins the fail-closed handshake from the
// dialer's side: a server announcing a version below the floor fails the
// dial itself with a *wire.VersionError — typed, immediate, no hang, no
// client left half-open.
func TestDialVersionMismatchTyped(t *testing.T) {
	addr := fakeServer(t, wire.ProtoMin-1, nil)
	_, err := Dial(addr)
	var ve *wire.VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("dial error = %v, want *wire.VersionError", err)
	}
	if ve.Remote != wire.ProtoMin-1 || ve.Need != wire.ProtoMin {
		t.Fatalf("version error fields: %+v", ve)
	}
}

// overlayKey is the wire-visible content of an overlay, for comparing a
// frame that crossed the wire with a reference render.
func overlayKey(anns []render.Annotation) string {
	var b wire.Buffer
	for _, a := range anns {
		b.Uvarint(a.ID)
		b.String(a.Label)
		for _, v := range []float64{a.X, a.Y, a.W, a.H, a.Anchor.Lat, a.Anchor.Lon} {
			b.Float64(v)
		}
		b.Bool(a.XRay)
	}
	return string(b.Bytes())
}

// TestSubscribeStandalone is the streaming happy path on a standalone
// server: subscribe once, then pushed frames arrive at a steady cadence
// with strictly increasing stream seqs and no further requests from the
// client; unsubscribe closes the channel cleanly. In between it is the
// regression test for the encode race the standalone role used to have: with
// the subscription ticking at the minimum interval, the same connection
// polls RequestFrame in a loop while sensors move the pose, so two renders
// of one session are always in flight — and every frame, polled or pushed,
// must be one a mirror session fed the same sensor samples rendered alone.
func TestSubscribeStandalone(t *testing.T) {
	srv, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Proto() != wire.ProtoMax {
		t.Fatalf("negotiated v%d, want v%d", cl.Proto(), wire.ProtoMax)
	}
	if cl.SessionID() == 0 {
		t.Fatal("handshake did not carry the session ID")
	}

	// The mirror: an in-process session on the same platform, stepped
	// through the same samples just before the server's is. Sample times
	// are built from integers so both fusers see identical intervals. Each
	// step's overlay is recorded before the step is sent, so whichever
	// state the server renders at, its reference is already there.
	platform := srv.eng.platform
	mirror := platform.NewSession()
	defer platform.DetachSession(mirror.ID)
	var refMu sync.Mutex
	refs := make(map[string]bool)
	base := time.Now().UnixNano()
	step := func(i int) error {
		at := time.Unix(0, base+int64(i)*int64(10*time.Millisecond))
		fix := sensor.GPSFix{Time: at, Position: geo.Destination(center, 90, float64(i)), AccuracyM: 3}
		imu := sensor.IMUSample{Time: at, CompassDeg: float64(i % 360)}
		record := func() error {
			for {
				f, err := mirror.Frame(at)
				if err != nil {
					return err
				}
				if f.Level == core.DegradeNone { // a slow reference render degrades the next; redo
					refMu.Lock()
					refs[overlayKey(f.Annotations)] = true
					refMu.Unlock()
					return nil
				}
			}
		}
		if err := mirror.OnGPS(fix); err != nil {
			return err
		}
		if err := record(); err != nil {
			return err
		}
		if err := cl.SendGPS(fix); err != nil {
			return err
		}
		mirror.OnIMU(imu)
		if err := record(); err != nil {
			return err
		}
		return cl.SendIMU(imu)
	}
	// check holds a frame that crossed the wire against the references. A
	// frame the server rendered degraded (a stall blew its frame budget) has
	// no reference and only has to decode, which it already did.
	check := func(kind string, f *core.DecodedFrame) error {
		refMu.Lock()
		defer refMu.Unlock()
		if f.Level == core.DegradeNone && !refs[overlayKey(f.Annotations)] {
			return fmt.Errorf("%s frame (seq %d) matches no reference render: %+v", kind, f.Seq, f.Annotations)
		}
		return nil
	}

	if err := step(0); err != nil {
		t.Fatal(err)
	}
	frames, err := cl.Subscribe(context.Background(), SubscribeOptions{Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var lastSeq uint64
	nextPush := func() *core.DecodedFrame {
		t.Helper()
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatalf("stream closed at seq %d: %v", lastSeq, cl.StreamErr())
			}
			if f.Seq <= lastSeq {
				t.Fatalf("push seq went %d -> %d: not strictly increasing", lastSeq, f.Seq)
			}
			lastSeq = f.Seq
			if err := check("pushed", f); err != nil {
				t.Fatal(err)
			}
			return f
		case <-time.After(10 * time.Second):
			t.Fatalf("stream stalled at seq %d", lastSeq)
			return nil
		}
	}
	for got := 0; got < 10; got++ {
		if f := nextPush(); len(f.Annotations) == 0 {
			t.Fatal("pushed frame carries no annotations")
		}
	}

	// Pollers and the sensor walk run beside the stream until enough of
	// each kind of frame has been checked.
	const wantPolled, wantSteps = 100, 100
	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := step(i); err != nil {
				errs <- err
				return
			}
			if i == wantSteps {
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for n := 0; n < wantPolled; n++ {
			f, _, err := cl.RequestFrame()
			if err == nil {
				err = check("polled", f)
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			nextPush()
		}
	}
	close(stop)
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	if err := cl.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	// The channel must close (possibly after a few in-flight frames).
	for {
		select {
		case _, ok := <-frames:
			if !ok {
				if err := cl.StreamErr(); err != nil {
					t.Fatalf("clean unsubscribe left StreamErr = %v", err)
				}
				// Request/reply still works after the stream ends.
				if _, _, err := cl.RequestFrame(); err != nil {
					t.Fatal(err)
				}
				return
			}
		case <-time.After(5 * time.Second):
			t.Fatal("channel never closed after unsubscribe")
		}
	}
}

// TestSubscribeContextCancelUnsubscribes checks the context path: when the
// subscription context is cancelled the client unsubscribes on its own and
// the channel closes.
func TestSubscribeContextCancelUnsubscribes(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	frames, err := cl.Subscribe(ctx, SubscribeOptions{Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// One frame proves the stream is live, then cancel.
	select {
	case <-frames:
	case <-time.After(10 * time.Second):
		t.Fatal("no frame before cancel")
	}
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-frames:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("channel never closed after context cancel")
		}
	}
}

// TestCloseUnblocksSubscribersAndWaiters checks Close's contract: an
// in-flight round-trip and a live subscription both unblock.
func TestCloseUnblocksSubscribersAndWaiters(t *testing.T) {
	// A server that acks subscribes but then goes silent, so the client
	// has a live stream and a hanging request.
	addr := fakeServer(t, wire.ProtoMin, func(fr *wire.FrameReader, fw *wire.FrameWriter) {
		for {
			env, err := fr.ReadEnvelope()
			if err != nil {
				return
			}
			if env.Type == wire.MsgSubscribe {
				_ = fw.WriteEnvelope(&wire.Envelope{Type: wire.MsgAck, Seq: env.Seq})
				_ = fw.Flush()
			}
			// Frame requests are swallowed: the waiter must be freed by
			// Close, not by a reply.
		}
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := cl.Subscribe(context.Background(), SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reqDone := make(chan error, 1)
	go func() {
		_, _, err := cl.RequestFrame()
		reqDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the request reach the wire
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-reqDone:
		if err == nil {
			t.Fatal("request succeeded against a silent server")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the request waiter")
	}
	select {
	case _, ok := <-frames:
		if ok {
			// Drain: channel must close shortly.
			for range frames {
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not close the subscription channel")
	}
	if cl.StreamErr() == nil {
		t.Fatal("abnormal stream end recorded no error")
	}
}

// blockingWriter blocks every Write until released, emulating a peer that
// stops reading while the kernel buffer is full.
type blockingWriter struct {
	release chan struct{}
}

func (bw *blockingWriter) Write(p []byte) (int, error) {
	<-bw.release
	return len(p), nil
}

// TestOutboxDropsOldestWhenFull pins the backpressure policy at the unit
// level: with the writer wedged, enqueues beyond capacity drop the oldest
// queued push (releasing its buffer) and never block the caller.
func TestOutboxDropsOldestWhenFull(t *testing.T) {
	bw := &blockingWriter{release: make(chan struct{})}
	var reg metrics.Registry
	dropped := reg.Counter("dropped")
	ob := newOutbox(bw, 4, func(wire.MsgType, uint64) { dropped.Inc() })

	released := make(map[uint64]bool)
	var mu sync.Mutex
	enq := func(seq uint64) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			ob.enqueue(outMsg{env: wire.Envelope{Type: wire.MsgFramePush, Seq: seq},
				release: func() { mu.Lock(); released[seq] = true; mu.Unlock() }})
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("enqueue(%d) blocked", seq)
		}
	}
	// The writer takes the first message off the queue and wedges in
	// Write; capacity 4 then fills with the next four. Give the writer a
	// beat to pick up msg 1 so the accounting below is deterministic.
	enq(1)
	deadline := time.Now().Add(2 * time.Second)
	for {
		ob.mu.Lock()
		n := ob.queueLenLocked()
		ob.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("writer never picked up the first push")
		}
		time.Sleep(time.Millisecond)
	}
	for seq := uint64(2); seq <= 5; seq++ {
		enq(seq) // fills capacity exactly
	}
	enq(6) // must evict 2
	enq(7) // must evict 3
	mu.Lock()
	if !released[2] || !released[3] {
		mu.Unlock()
		t.Fatal("oldest pushes were not dropped")
	}
	if released[6] || released[7] {
		mu.Unlock()
		t.Fatal("newest pushes were dropped")
	}
	mu.Unlock()
	if got := dropped.Value(); got != 2 {
		t.Fatalf("dropped counter = %d, want 2", got)
	}
	close(bw.release) // unwedge; everything drains
	ob.close()
	mu.Lock()
	defer mu.Unlock()
	for seq := uint64(4); seq <= 7; seq++ {
		if !released[seq] {
			t.Fatalf("push %d never released after drain", seq)
		}
	}
}

// TestReplyWindowBoundsNonReadingPeer pins the reply class's bound: replies
// are never dropped, so what stops a peer that sends requests and never
// reads from queueing without limit is its own read loop, which takes no
// further envelope while replyWindow replies are owed. A polled frame is
// owed from the request's read — waiting for a worker, rendering or
// unwritten — and through a router so is every reply a shard still owes, so
// on every acceptor frame requests are held to the window as exactly as
// pings. Nothing is lost either: once the peer reads, every request is
// answered, pings in order.
func TestReplyWindowBoundsNonReadingPeer(t *testing.T) {
	srv := New(newTestPlatform(t), discardLogger())
	t.Cleanup(func() { _ = srv.Close() })
	tc := startCluster(t, 1, nil, RouterOptions{})
	acceptors := []struct {
		name    string
		serve   func(net.Conn)
		session uint64 // what a shard's envelopes must address; ignored elsewhere
	}{
		{"standalone", srv.cs.serve, 0},
		{"shard", tc.shards[0].cs.serve, 7},
		{"router", tc.router.cs.serve, 0},
	}
	for _, a := range acceptors {
		t.Run(a.name, func(t *testing.T) {
			rc, _ := rawPipe(t, a.serve)
			rc.hello(t, "pipeliner", wire.ProtoMax)
			rc.sendGPS(t, a.session, center)

			const requests = 10000
			base := rc.seq         // the requests carry the seqs after it
			var taken atomic.Int64 // requests the read loop has consumed
			// Every other request is a frame request.
			isPing := func(seq uint64) bool { return (seq-base)%2 == 1 }
			go func() {
				for seq := base + 1; seq <= base+requests; seq++ {
					typ := wire.MsgFrameRequest
					if isPing(seq) {
						typ = wire.MsgControl
					}
					// The pipe completes a write only when the peer has read it.
					if rc.trySend(typ, a.session, nil) != nil {
						return
					}
					taken.Add(1)
				}
			}()
			waitFor(t, "the read loop to park", func() bool {
				before := taken.Load()
				time.Sleep(100 * time.Millisecond)
				return before > 0 && taken.Load() == before
			})
			if n := taken.Load(); n != replyWindow {
				t.Fatalf("%d requests taken from a peer that reads nothing, want exactly replyWindow = %d", n, replyWindow)
			}
			lastAck := base
			answered := make(map[uint64]bool, requests)
			for len(answered) < requests {
				env := rc.read(t)
				if env.Type == wire.MsgLoad && env.Seq == 0 {
					continue // a shard's load report: a push, not a reply
				}
				want := wire.MsgAnnotations
				if isPing(env.Seq) {
					want = wire.MsgAck
					if env.Seq <= lastAck {
						t.Fatalf("ack of ping %d after the ack of ping %d", env.Seq, lastAck)
					}
					lastAck = env.Seq
				}
				if env.Type != want || env.Seq <= base || env.Seq > base+requests || answered[env.Seq] {
					t.Fatalf("reply %d = %v seq %d, want one %v per request", len(answered), env.Type, env.Seq, want)
				}
				answered[env.Seq] = true
			}
		})
	}
}

// TestStreamSkipsTicksWhenBehind pins cadence degradation: with the only
// scheduler worker wedged, a fast subscription's ticks are skipped (at
// most one frame in flight) instead of piling jobs into the queue.
func TestStreamSkipsTicksWhenBehind(t *testing.T) {
	p := newTestPlatform(t)
	srv := newServer(p, discardLogger(), 1)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	// Wedge the single worker.
	blocker := p.NewSession()
	if err := blocker.OnGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	var blocked sync.WaitGroup
	blocked.Add(1)
	if err := srv.eng.sched.Submit(blocker, func(*core.Frame) {}, func(err error) {
		defer blocked.Done()
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	defer blocked.Wait()
	defer close(release)

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Subscribe(context.Background(), SubscribeOptions{Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	skipped := srv.eng.sched.reg.Counter("server.stream.skipped")
	deadline := time.Now().Add(10 * time.Second)
	for skipped.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("stream skipped no ticks while the worker was wedged")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Cadence degraded to completion pacing: exactly one frame job belongs
	// to the stream (queued behind the blocker) and no pushes complete
	// while the worker is wedged — the stream parks instead of piling jobs
	// into the queue.
	time.Sleep(20 * time.Millisecond)
	if pushes := srv.eng.sched.reg.Counter("server.stream.pushes").Value(); pushes != 0 {
		t.Fatalf("pushes completed while the only worker was wedged: %d", pushes)
	}
	if got := skipped.Value(); got != 1 {
		t.Fatalf("skipped = %d ticks, want exactly 1 (the stream parks on the in-flight frame)", got)
	}
}

// TestStreamStoppedByClosedSchedulerIsReleased: a stream whose frame the
// closed scheduler refused stops pacing on its own, and ending its
// subscription still releases its outbox reserve and takes it off the
// stream summaries. A stop that skipped a stream already marked stopped
// once left both behind.
func TestStreamStoppedByClosedSchedulerIsReleased(t *testing.T) {
	p := newTestPlatform(t)
	eng := newEngine(p, 1)
	defer eng.Close()
	out := newOutbox(io.Discard, 1, nil)
	defer out.close()
	eng.sched.Close()
	sess := p.NewSession()
	eng.newStream(sess, wire.Subscribe{Budget: 16}, out, false).tick(time.Now())
	eng.stopStream(out, sess.ID)
	out.mu.Lock()
	reserve := out.reserve
	out.mu.Unlock()
	if reserve != 0 {
		t.Fatalf("outbox reserve = %d after the stream stopped, want 0", reserve)
	}
	if got := eng.StreamSummaries(); len(got) != 0 {
		t.Fatalf("stopped stream still summarised: %+v", got)
	}
}

// TestStaleContextCannotKillNewerSubscription pins the watcher scoping: a
// cancelled context from an *earlier*, already-unsubscribed subscription
// must not tear down the stream that replaced it.
func TestStaleContextCannotKillNewerSubscription(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	if _, err := cl.Subscribe(ctx1, SubscribeOptions{Interval: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	frames, err := cl.Subscribe(context.Background(), SubscribeOptions{Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cancel1() // the first subscription's watcher must be a no-op by now
	// The second stream keeps flowing well past the cancellation.
	deadline := time.After(10 * time.Second)
	for got := 0; got < 5; got++ {
		select {
		case _, ok := <-frames:
			if !ok {
				t.Fatalf("stale context killed the newer subscription after %d frames (StreamErr=%v)",
					got, cl.StreamErr())
			}
		case <-deadline:
			t.Fatal("stream stalled")
		}
	}
}

// TestSubscribeTwiceFails pins the one-stream-per-connection rule.
func TestSubscribeTwiceFails(t *testing.T) {
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Subscribe(context.Background(), SubscribeOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Subscribe(context.Background(), SubscribeOptions{}); !errors.Is(err, ErrAlreadySubscribed) {
		t.Fatalf("second subscribe err = %v, want ErrAlreadySubscribed", err)
	}
}

// TestRawSubscribePushesWithoutRequests is the wire-level acceptance
// check: after hello and subscribe, pushed frames arrive with strictly
// increasing seqs while the client sends nothing at all.
func TestRawSubscribePushesWithoutRequests(t *testing.T) {
	_, addr := startServer(t)
	rc := dialRaw(t, addr)
	peer := rc.hello(t, "raw", wire.ProtoMax)
	if peer.Version != wire.ProtoMax {
		t.Fatalf("server announced v%d", peer.Version)
	}
	rc.sendGPS(t, 0, center)
	var sb wire.Buffer
	wire.EncodeSubscribeInto(&sb, wire.Subscribe{IntervalMS: 2, Budget: 16})
	subSeq := rc.send(t, wire.MsgSubscribe, 0, sb.Bytes())
	if env := rc.read(t); env.Type != wire.MsgAck || env.Seq != subSeq {
		t.Fatalf("subscribe reply = %v seq %d", env.Type, env.Seq)
	}
	var last uint64
	for i := 0; i < 5; i++ {
		env := rc.read(t)
		if env.Type != wire.MsgFramePush {
			t.Fatalf("push %d: type %v", i, env.Type)
		}
		if env.Seq <= last {
			t.Fatalf("push seq went %d -> %d", last, env.Seq)
		}
		last = env.Seq
		if _, err := core.DecodeFrame(env.Payload); err != nil {
			t.Fatalf("push %d: corrupt frame: %v", i, err)
		}
	}
}

func discardLogger() *log.Logger { return log.New(io.Discard, "", 0) }

// newTestPlatform builds the small-city platform the server tests share.
func newTestPlatform(t *testing.T) *core.Platform {
	t.Helper()
	p, err := core.NewPlatform(core.Config{
		Seed: 1,
		City: geo.CityConfig{Center: center, RadiusM: 1500, NumPOIs: 600},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

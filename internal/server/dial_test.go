package server

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"arbd/internal/core"
	"arbd/internal/sensor"
	"arbd/internal/wire"
)

// pipeClient connects a Client over a net.Pipe to a fake server that answers
// the hello at wire.ProtoMax and hands its end to serve, if set. A pipe has
// no buffers: once serve returns, nothing the client writes is ever taken.
func pipeClient(t *testing.T, serve func(fr *wire.FrameReader, fw *wire.FrameWriter)) *Client {
	t.Helper()
	serverEnd, clientEnd := net.Pipe()
	t.Cleanup(func() { _ = serverEnd.Close() })
	go func() {
		fr, fw := wire.NewFrameReader(serverEnd), wire.NewFrameWriter(serverEnd)
		env, err := fr.ReadEnvelope()
		if err != nil || env.Type != wire.MsgHello {
			return
		}
		var hb wire.Buffer
		wire.EncodeHelloInto(&hb, wire.Hello{ID: 99, Name: "fake", Version: wire.ProtoMax})
		if sendEnvelope(fw, &wire.Envelope{Type: wire.MsgHello, Seq: env.Seq, Payload: hb.Bytes()}) != nil {
			return
		}
		if serve != nil {
			serve(fr, fw)
		}
	}()
	cl, err := NewClient(context.Background(), clientEnd, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// requestWithin runs a 200 ms RequestFrameContext and fails the test unless
// it returns context.DeadlineExceeded inside a second.
func requestWithin(t *testing.T, cl *Client) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := cl.RequestFrameContext(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("RequestFrameContext = %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(time.Second):
		t.Fatal("a 200 ms RequestFrameContext still blocked after 1 s: the call parked on its write")
	}
}

// TestClientContextBoundsStalledWrite is the regression test for writes made
// on the caller's goroutine: against a server that answers the hello and
// then stops reading, a context still bounds a round trip, a sensor sample
// is queued without waiting for the wire, and Close leaves no reader,
// writer or context watcher behind.
func TestClientContextBoundsStalledWrite(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cl := pipeClient(t, nil)
	requestWithin(t, cl)
	sent := make(chan error, 1)
	go func() { sent <- cl.SendIMU(sensor.IMUSample{Time: time.Now()}) }()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("SendIMU blocked on a server that stopped reading")
	}
	closed := make(chan error, 1)
	go func() { closed <- cl.Close() }()
	select {
	case <-closed:
	case <-time.After(time.Second):
		t.Fatal("Close blocked on a server that stopped reading")
	}
	waitFor(t, "the client's goroutines to exit", func() bool { return runtime.NumGoroutine() <= baseline })
}

// TestClientAckNeverStallsDemux is the regression test for progress acks
// written by the read loop: a server that streams delta keyframes and never
// reads must not stop the client's demux when the eighth push makes it ack.
// Every push is delivered, or counted as dropped by a slow consumer.
func TestClientAckNeverStallsDemux(t *testing.T) {
	const pushes = 20
	cl := pipeClient(t, func(fr *wire.FrameReader, fw *wire.FrameWriter) {
		sub, err := fr.ReadEnvelope()
		if err != nil || sendEnvelope(fw, &wire.Envelope{Type: wire.MsgAck, Seq: sub.Seq}) != nil {
			return
		}
		for seq := uint64(1); seq <= pushes; seq++ {
			var b wire.Buffer
			core.EncodeFrameDeltaInto(&b, &core.Frame{}, true)
			if sendEnvelope(fw, &wire.Envelope{Type: wire.MsgFrameDelta, Seq: seq, Payload: b.Bytes()}) != nil {
				return
			}
		}
	})
	defer cl.Close()
	frames, err := cl.Subscribe(context.Background(), SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Int64
	go func() {
		for range frames {
			delivered.Add(1)
		}
	}()
	for deadline := time.Now().Add(time.Second); delivered.Load()+cl.PushesDropped() < pushes; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d pushes delivered (%d dropped) after 1 s: the demux stalled",
				delivered.Load(), pushes, cl.PushesDropped())
		}
	}
}

// TestClientSendWindowBounded pins the sensor path's bound and order:
// samples are never dropped, so against a server that stops reading the
// sender parks once replyWindow messages are unwritten — while a round trip
// beside it still returns at its deadline — and Close releases it. On a
// server that reads, a sample sent before a frame request arrives first.
func TestClientSendWindowBounded(t *testing.T) {
	cl := pipeClient(t, nil)
	var sent atomic.Int64
	senderDone := make(chan error, 1)
	go func() {
		for i := 0; i < 10000; i++ {
			if err := cl.SendIMU(sensor.IMUSample{Time: time.Now()}); err != nil {
				senderDone <- err
				return
			}
			sent.Add(1)
		}
		senderDone <- nil
	}()
	waitFor(t, "the sender to park", func() bool {
		before := sent.Load()
		time.Sleep(100 * time.Millisecond)
		return before > 0 && sent.Load() == before
	})
	if n := sent.Load(); n > replyWindow {
		t.Fatalf("%d samples queued for a server that reads nothing, want at most replyWindow = %d", n, replyWindow)
	}
	requestWithin(t, cl)
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-senderDone:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("parked sender released with %v, want ErrClientClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not release the parked sender")
	}

	const rounds = 50
	order := make(chan wire.MsgType, 2*rounds)
	addr := fakeServer(t, wire.ProtoMax, func(fr *wire.FrameReader, fw *wire.FrameWriter) {
		for {
			env, err := fr.ReadEnvelope()
			if err != nil {
				return
			}
			order <- env.Type
			if env.Type == wire.MsgFrameRequest {
				_ = sendEnvelope(fw, &wire.Envelope{Type: wire.MsgAnnotations, Seq: env.Seq, Payload: encodeTaggedFrame(1)})
			}
		}
	})
	reader, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	for i := 0; i < rounds; i++ {
		if err := reader.SendIMU(sensor.IMUSample{Time: time.Now()}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := reader.RequestFrame(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*rounds; i++ {
		want := wire.MsgSensorEvent
		if i%2 == 1 {
			want = wire.MsgFrameRequest
		}
		if got := <-order; got != want {
			t.Fatalf("message %d on the wire is %v, want %v: wire order is not call order", i, got, want)
		}
	}
}

// TestClientRoundTripAllocs holds a round trip to the allocations of what it
// returns: in steady state, whole-process, a ping allocates nothing and a
// polled frame no more than decoding its payload does — no per-call reply
// channel, envelope or payload copy.
func TestClientRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	_, addr := startServer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	var last *core.DecodedFrame
	ping := func() {
		if err := cl.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	poll := func() {
		f, _, err := cl.RequestFrame()
		if err != nil {
			t.Fatal(err)
		}
		last = f
	}
	for i := 0; i < 100; i++ {
		ping()
		poll()
	}
	if allocs := testing.AllocsPerRun(500, ping); allocs > 0 {
		t.Fatalf("a ping allocated %.0f times, want 0", allocs)
	}
	var payload wire.Buffer
	core.EncodeFrameInto(&payload, &core.Frame{Annotations: last.Annotations, Level: last.Level})
	decode := testing.AllocsPerRun(500, func() {
		if _, err := core.DecodeFrame(payload.Bytes()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs := testing.AllocsPerRun(500, poll); allocs > decode {
		t.Fatalf("a polled frame allocated %.0f times, want at most the %.0f of decoding it", allocs, decode)
	}
}

// TestLedgerKeySpacesStayApart pins the ledger's two key spaces: a round
// trip is owed under (0, its link seq), a forward under its client's
// (session, seq). On one connection a forward (7, 1) and a round trip for
// session 7 that goes out as link seq 1 are both owed; the round trip's
// reply, which carries session 7 and seq 1, settles only the round trip, and
// the forward's settle only the forward.
func TestLedgerKeySpacesStayApart(t *testing.T) {
	sent := make(chan wire.Envelope, 1)
	cl := pipeClient(t, func(fr *wire.FrameReader, fw *wire.FrameWriter) {
		env, err := fr.ReadEnvelope()
		if err != nil {
			return
		}
		sent <- *env
		_ = sendEnvelope(fw, &wire.Envelope{Type: wire.MsgAck, Seq: env.Seq, Session: env.Session})
	})
	t.Cleanup(func() { _ = cl.Close() })
	out := newOutbox(io.Discard, 1, nil)
	t.Cleanup(out.close)
	owed := func() (entries, frames int) {
		cl.owedMu.Lock()
		defer cl.owedMu.Unlock()
		return len(cl.owed), len(cl.frames)
	}

	if !cl.owe(7, 1, wire.MsgFrameRequest, out) {
		t.Fatal("a live connection refused the forward")
	}
	if err := cl.roundTrip(context.Background(), wire.Envelope{Type: wire.MsgControl, Session: 7}, wire.MsgAck, nil); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if env := <-sent; env.Seq != 1 || env.Session != 7 {
		t.Fatalf("round trip went out as (session %d, seq %d), want (7, 1)", env.Session, env.Seq)
	}
	if n, f := owed(); n != 1 || f != 1 {
		t.Fatalf("after the round trip's reply: %d entries, %d frames owed, want the forward alone", n, f)
	}
	if got := cl.settleForward(7, 1); got != wire.MsgFrameRequest {
		t.Fatalf("forward settled as %v, want %v", got, wire.MsgFrameRequest)
	}
	if got := cl.settleForward(7, 1); got != 0 {
		t.Fatalf("forward settled twice, second as %v", got)
	}
	if n, f := owed(); n != 0 || f != 0 {
		t.Fatalf("ledger ends with %d entries, %d frames", n, f)
	}
}

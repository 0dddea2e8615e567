package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"arbd/internal/geo"
	"arbd/internal/sensor"
	"arbd/internal/wire"
)

// TestPooledFrameBuffersNoCrossTalk drives many concurrent connections
// through the pooled zero-copy response path and checks no response leaks
// another session's data: every annotation a client receives must anchor
// near that client's own reported position. Run under -race (CI does) this
// also proves pooled wire.Buffers never cross concurrent frame responses.
func TestPooledFrameBuffersNoCrossTalk(t *testing.T) {
	_, addr := startServer(t)
	const clients = 24
	const polls = 15
	// Positions far enough apart that one client's query radius (250 m
	// default) cannot reach another's POIs.
	positions := make([]geo.Point, clients)
	for i := range positions {
		positions[i] = geo.Destination(center, float64(i*360/clients), 200+float64(i%5)*150)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			pos := positions[c]
			if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: pos, AccuracyM: 3}); err != nil {
				errs <- err
				return
			}
			for r := 0; r < polls; r++ {
				f, _, err := cl.RequestFrame()
				if err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", c, r, err)
					return
				}
				for _, a := range f.Annotations {
					if d := geo.DistanceMeters(pos, a.Anchor); d > 300 {
						errs <- fmt.Errorf("client %d round %d: annotation %d anchored %.0f m away — another session's frame?",
							c, r, a.ID, d)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPolledReplyAllocatesNothing extends the pooled-frame discipline to the
// whole delivery path: in steady state one polled frame — read, scheduled,
// rendered, encoded, staged, queued on the outbox, written — allocates
// nothing on the server.
func TestPolledReplyAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	srv := newServer(newTestPlatform(t), discardLogger(), 1)
	t.Cleanup(func() { _ = srv.Close() })
	rc, _ := rawPipe(t, srv.cs.serve)
	rc.hello(t, "poller", wire.ProtoMax)
	rc.sendGPS(t, 0, center)

	// The test's own half must not allocate either: one pre-framed request,
	// and replies read into a fixed buffer (8-byte frame header, body).
	var batch wire.EnvelopeBatch
	_ = batch.Add(&wire.Envelope{Type: wire.MsgFrameRequest, Seq: 7})
	request := batch.Bytes()
	reply := make([]byte, 1<<20)
	poll := func() {
		if _, err := rc.c.Write(request); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(rc.c, reply[:8]); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(rc.c, reply[:binary.LittleEndian.Uint32(reply)]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		poll() // warm the pools, the scratch and the batch arenas
	}
	if allocs := testing.AllocsPerRun(200, poll); allocs > 0 {
		t.Fatalf("a polled frame allocated %.0f times, want 0", allocs)
	}
}

// TestPushedFrameAllocatesNothing holds the server-clocked path to the same
// budget: in steady state one pushed frame — paced, scheduled, rendered,
// delta-encoded, queued on the outbox, written — allocates nothing on the
// server, the pacer included.
func TestPushedFrameAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	srv := newServer(newTestPlatform(t), discardLogger(), 1)
	t.Cleanup(func() { _ = srv.Close() })
	rc, _ := rawPipe(t, srv.cs.serve)
	rc.hello(t, "subscriber", wire.ProtoMax)
	rc.sendGPS(t, 0, center)
	var sb wire.Buffer
	wire.EncodeSubscribeInto(&sb, wire.Subscribe{IntervalMS: 1, Budget: 16, Flags: wire.SubFlagDelta})
	subSeq := rc.send(t, wire.MsgSubscribe, 0, sb.Bytes())
	if env := rc.read(t); env.Type != wire.MsgAck || env.Seq != subSeq {
		t.Fatalf("subscribe reply = %v seq %d", env.Type, env.Seq)
	}

	// Pushes are read into a fixed buffer (8-byte frame header, body).
	push := make([]byte, 1<<20)
	readOnePush := func() {
		if _, err := io.ReadFull(rc.c, push[:8]); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(rc.c, push[:binary.LittleEndian.Uint32(push)]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		readOnePush() // warm the pools, the scratch and the pacer's heap
	}
	if allocs := testing.AllocsPerRun(300, readOnePush); allocs > 0 {
		t.Fatalf("a pushed frame allocated %.2f times, want 0", allocs)
	}
}

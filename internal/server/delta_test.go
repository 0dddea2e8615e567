package server

import (
	"context"
	"io"
	"net"
	"runtime"
	"sort"
	"testing"
	"time"

	"arbd/internal/core"
	"arbd/internal/geo"
	"arbd/internal/obs"
	"arbd/internal/sensor"
	"arbd/internal/wire"
)

// TestDeltaStreamAckGapForcesKeyframe is the wire-level acceptance check for
// protocol v4 streaming: a delta subscription opens with a keyframe, settles
// into diff pushes that apply cleanly in sequence, and answers a
// WantKeyframe ack — the resync a client sends after a push gap — with a
// fresh keyframe instead of leaving the client decoding against a stale
// base forever.
func TestDeltaStreamAckGapForcesKeyframe(t *testing.T) {
	_, addr := startServer(t)
	rc := dialRaw(t, addr)
	peer := rc.hello(t, "raw-v4", wire.ProtoMax)
	if peer.Version < wire.ProtoV4 {
		t.Fatalf("server announced v%d, want >= v%d", peer.Version, wire.ProtoV4)
	}
	rc.sendGPS(t, 0, center)
	var sb wire.Buffer
	wire.EncodeSubscribeInto(&sb, wire.Subscribe{IntervalMS: 2, Budget: 16, Flags: wire.SubFlagDelta})
	subSeq := rc.send(t, wire.MsgSubscribe, 0, sb.Bytes())
	if env := rc.read(t); env.Type != wire.MsgAck || env.Seq != subSeq {
		t.Fatalf("subscribe reply = %v seq %d", env.Type, env.Seq)
	}

	env := rc.read(t)
	if env.Type != wire.MsgFrameDelta {
		t.Fatalf("first push type = %v, want MsgFrameDelta", env.Type)
	}
	if !core.FrameDeltaIsKeyframe(env.Payload) {
		t.Fatal("first push of a delta stream must be a keyframe")
	}
	base, err := core.ApplyFrameDelta(nil, env.Payload)
	if err != nil {
		t.Fatal(err)
	}
	last := env.Seq
	sawDiff := false
	for i := 0; i < 5; i++ {
		env = rc.read(t)
		if env.Type != wire.MsgFrameDelta {
			t.Fatalf("push %d: type %v", i, env.Type)
		}
		if env.Seq <= last {
			t.Fatalf("push seq went %d -> %d", last, env.Seq)
		}
		last = env.Seq
		if !core.FrameDeltaIsKeyframe(env.Payload) {
			sawDiff = true
		}
		if base, err = core.ApplyFrameDelta(base, env.Payload); err != nil {
			t.Fatalf("push %d: apply: %v", i, err)
		}
	}
	if !sawDiff {
		t.Fatal("no diff push among the first 5 — every push is a keyframe, deltas buy nothing")
	}

	// The resync path: a client that lost a push acks with WantKeyframe.
	// Pushes already queued server-side may still arrive as diffs; a
	// keyframe must follow promptly.
	var ab wire.Buffer
	wire.EncodeFrameAckInto(&ab, wire.FrameAck{AppliedSeq: last, WantKeyframe: true})
	rc.send(t, wire.MsgAck, 0, ab.Bytes())
	for i := 0; i < 32; i++ {
		env = rc.read(t)
		if env.Type != wire.MsgFrameDelta {
			t.Fatalf("post-ack push type = %v", env.Type)
		}
		if core.FrameDeltaIsKeyframe(env.Payload) {
			if _, err := core.ApplyFrameDelta(nil, env.Payload); err != nil {
				t.Fatalf("forced keyframe corrupt: %v", err)
			}
			return
		}
	}
	t.Fatal("no keyframe within 32 pushes of a WantKeyframe ack")
}

// TestV3PinnedClientStreamsFullFrames pins backward compatibility: a client
// capped at protocol v3 subscribes without the delta flag and keeps
// receiving decodable full-frame pushes from a v4 server, end to end
// through the public client API.
func TestV3PinnedClientStreamsFullFrames(t *testing.T) {
	_, addr := startServer(t)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(context.Background(), raw, DialOptions{maxProto: wire.ProtoV3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	ch, err := cl.Subscribe(context.Background(),
		SubscribeOptions{Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 5; i++ {
		f, ok := <-ch
		if !ok {
			t.Fatalf("stream died after %d frames: %v", i, cl.StreamErr())
		}
		if len(f.Annotations) == 0 {
			t.Fatalf("frame %d: empty overlay", i)
		}
		if f.Seq <= last {
			t.Fatalf("frame seq went %d -> %d", last, f.Seq)
		}
		last = f.Seq
	}
}

// subscribeRaw hellos at version, subscribes with flags and consumes the
// subscribe ack, leaving the connection at its first push.
func subscribeRaw(t *testing.T, addr string, version, flags uint32, pos geo.Point) *rawConn {
	t.Helper()
	rc := dialRaw(t, addr)
	rc.hello(t, "cohort", version)
	rc.sendGPS(t, 0, pos)
	var sb wire.Buffer
	wire.EncodeSubscribeInto(&sb, wire.Subscribe{IntervalMS: 5, Budget: 16, Flags: flags})
	subSeq := rc.send(t, wire.MsgSubscribe, 0, sb.Bytes())
	if env := rc.read(t); env.Type != wire.MsgAck || env.Seq != subSeq {
		t.Fatalf("subscribe reply = %v seq %d", env.Type, env.Seq)
	}
	return rc
}

// TestSubscribePacersShareOnePacer pins the engine's pacing to one
// goroutine however many streams it paces: 64 live subscriptions read the
// server.stream.pacers gauge at 1 and add no goroutine per stream.
func TestSubscribePacersShareOnePacer(t *testing.T) {
	const streams = 64
	srv, addr := startServer(t)
	conns := make([]*rawConn, streams)
	for i := range conns {
		conns[i] = dialRaw(t, addr)
		conns[i].hello(t, "pacer", wire.ProtoMax)
		conns[i].sendGPS(t, 0, geo.Destination(center, float64(i*360/streams), 300))
	}
	before := runtime.NumGoroutine()
	var sb wire.Buffer
	wire.EncodeSubscribeInto(&sb, wire.Subscribe{IntervalMS: 5, Budget: 16})
	for _, rc := range conns {
		rc.send(t, wire.MsgSubscribe, 0, sb.Bytes())
	}
	for i, rc := range conns {
		if env := rc.read(t); env.Type != wire.MsgAck {
			t.Fatalf("stream %d: subscribe reply = %v", i, env.Type)
		}
		if env := rc.read(t); env.Type != wire.MsgFramePush {
			t.Fatalf("stream %d: first push = %v", i, env.Type)
		}
	}
	// Every stream has pushed, so every stream is armed on the pacer.
	if got := srv.eng.platform.Metrics().Gauge("server.stream.pacers").Value(); got != 1 {
		t.Fatalf("server.stream.pacers = %v with %d live streams, want 1", got, streams)
	}
	// A stream is a pacer tick, not a goroutine: a few runtime goroutines
	// may come and go, one per stream may not.
	if grew := runtime.NumGoroutine() - before; grew >= streams/4 {
		t.Fatalf("%d subscriptions added %d goroutines", streams, grew)
	}
}

// TestSubscribeTicksNeverEarly pins the cadence contract: a stream pushes
// its first frame when it starts, then at its requested interval or
// slower, never faster. A frame's flight opens at the pacer's fire time —
// an owed, completion-paced tick's included — so in push order one
// stream's flight starts are at least an interval apart, and push 1's
// starts within 50 ms of its subscribe, not an interval later. The 600 ms
// stream is longer than any one pass of a coarse clock and must still tick
// on time: twice inside 1.5 s.
func TestSubscribeTicksNeverEarly(t *testing.T) {
	srv, addr := startServer(t)
	intervals := make(map[uint64]time.Duration)
	subscribed := make(map[uint64]time.Time)
	for _, ms := range []uint32{5, 600} {
		rc := dialRaw(t, addr)
		id := rc.hello(t, "cadence", wire.ProtoMax).ID
		rc.sendGPS(t, 0, center)
		var sb wire.Buffer
		wire.EncodeSubscribeInto(&sb, wire.Subscribe{IntervalMS: ms, Budget: 16})
		subscribed[id] = time.Now()
		rc.send(t, wire.MsgSubscribe, 0, sb.Bytes())
		go func() { _, _ = io.Copy(io.Discard, rc.c) }() // ack and pushes, unread
		intervals[id] = time.Duration(ms) * time.Millisecond
	}
	time.Sleep(1500 * time.Millisecond)
	pushed := make(map[uint64][]obs.FrameRecord)
	for _, rec := range srv.eng.rec.Records(nil) {
		if _, ok := intervals[rec.Session]; ok && rec.Seq > 0 {
			pushed[rec.Session] = append(pushed[rec.Session], rec)
		}
	}
	for id, iv := range intervals {
		recs := pushed[id]
		if len(recs) < 2 {
			t.Fatalf("stream every %v: %d pushes in 1.5 s, want at least 2", iv, len(recs))
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
		if wait := time.Duration(recs[0].Start - subscribed[id].UnixNano()); recs[0].Seq != 1 || wait > 50*time.Millisecond {
			t.Fatalf("stream every %v: push %d started %v after its subscribe, want push 1 within 50ms",
				iv, recs[0].Seq, wait)
		}
		for i := 1; i < len(recs); i++ {
			if gap := time.Duration(recs[i].Start - recs[i-1].Start); gap < iv {
				t.Fatalf("stream every %v: push %d started %v after push %d — early",
					iv, recs[i].Seq, gap, recs[i-1].Seq)
			}
		}
	}
}

// TestSubscribeDeltaCohortSendsFewerBytes pins what protocol v4 buys the
// streaming fan-out: two servers on the same seed each serve a cohort of
// walking sessions created in the same order (so session seeds match), one
// cohort capped at v3 full pushes and one on v4 deltas. Past each stream's
// first push (the delta keyframe), the delta cohort's wire bytes per push
// are strictly below the full cohort's.
func TestSubscribeDeltaCohortSendsFewerBytes(t *testing.T) {
	const sessions, pushes = 4, 16
	_, fullAddr := startServer(t)
	_, deltaAddr := startServer(t)
	pos := make([]geo.Point, sessions)
	full := make([]*rawConn, sessions)
	delta := make([]*rawConn, sessions)
	for i := range pos {
		pos[i] = geo.Destination(center, float64(i*90), 200)
		full[i] = subscribeRaw(t, fullAddr, wire.ProtoV3, 0, pos[i])
		delta[i] = subscribeRaw(t, deltaAddr, wire.ProtoMax, wire.SubFlagDelta, pos[i])
	}
	// wireBytes reads one push of the wanted type and returns what it cost
	// on the wire: the frame header plus the encoded envelope.
	wireBytes := func(rc *rawConn, want wire.MsgType) int {
		t.Helper()
		env := rc.read(t)
		if env.Type != want {
			t.Fatalf("push type = %v, want %v", env.Type, want)
		}
		return 8 + len(wire.EncodeEnvelope(nil, env))
	}
	for i := 0; i < sessions; i++ {
		wireBytes(full[i], wire.MsgFramePush)
		first := delta[i].read(t)
		if first.Type != wire.MsgFrameDelta || !core.FrameDeltaIsKeyframe(first.Payload) {
			t.Fatalf("session %d: first delta-stream push is not a keyframe", i)
		}
	}
	var fullBytes, deltaBytes int
	for step := 1; step <= pushes; step++ {
		for i := 0; i < sessions; i++ {
			fullBytes += wireBytes(full[i], wire.MsgFramePush)
			deltaBytes += wireBytes(delta[i], wire.MsgFrameDelta)
			// A pedestrian step: the overlay moves, so diffs carry real
			// field updates rather than empty pushes.
			p := geo.Destination(pos[i], float64(i*90+45), float64(step))
			full[i].sendGPS(t, 0, p)
			delta[i].sendGPS(t, 0, p)
		}
	}
	n := sessions * pushes
	t.Logf("wire bytes per push: full %d, delta %d", fullBytes/n, deltaBytes/n)
	if deltaBytes >= fullBytes {
		t.Fatalf("delta cohort sent %d B over %d pushes, full cohort %d B: deltas must be strictly cheaper",
			deltaBytes, n, fullBytes)
	}
}

package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"arbd/internal/geo"
	"arbd/internal/sensor"
	"arbd/internal/sim"
	"arbd/internal/wire"
)

// newReusePlatform builds a deterministic platform for scratch-equivalence
// tests.
func newReusePlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := NewPlatform(Config{
		Seed:  1,
		City:  geo.CityConfig{Center: center, RadiusM: 1500, NumPOIs: 800, TallRatio: 0.2},
		clock: sim.NewVirtualClock(sim.Epoch),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFrameScratchEquivalence drives two identical platforms — one with the
// per-session frame scratch, one fully allocating — through the same sensor
// stream and requires byte-identical encoded frames at every step. This is
// the round-trip guarantee that buffer reuse changes performance, not
// output.
func TestFrameScratchEquivalence(t *testing.T) {
	pooled := newReusePlatform(t)
	alloc := newReusePlatform(t)
	sp, sa := pooled.NewSession(), alloc.NewSession()
	sa.scratch = nil // the reference path: every frame freshly allocated

	for step := 0; step < 12; step++ {
		at := sim.Epoch.Add(time.Duration(step) * time.Second)
		pos := geo.Destination(center, float64(step*30), float64(step)*40)
		for _, s := range []*Session{sp, sa} {
			if err := s.OnGPS(sensor.GPSFix{Time: at, Position: pos, AccuracyM: 4}); err != nil {
				t.Fatal(err)
			}
			s.OnIMU(sensor.IMUSample{Time: at, CompassDeg: float64(step * 25 % 360)})
		}
		fp, err := sp.Frame(at)
		if err != nil {
			t.Fatal(err)
		}
		// Encode the pooled frame before the allocating session renders:
		// its contents alias scratch the next sp.Frame call will reuse.
		encP := encodeFrame(fp)
		jitterP := fp.JitterPx
		recP := append([]uint64(nil), fp.Recommended...)

		fa, err := sa.Frame(at)
		if err != nil {
			t.Fatal(err)
		}
		encA := encodeFrame(fa)
		if !bytes.Equal(encP, encA) {
			t.Fatalf("step %d: pooled and allocating frames encode differently (%d vs %d bytes)",
				step, len(encP), len(encA))
		}
		if jitterP != fa.JitterPx {
			t.Fatalf("step %d: jitter %v vs %v", step, jitterP, fa.JitterPx)
		}
		if len(recP) != len(fa.Recommended) {
			t.Fatalf("step %d: recommended %d vs %d", step, len(recP), len(fa.Recommended))
		}
	}
}

// encodeFrame returns the frame's wire encoding in a buffer of its own.
func encodeFrame(f *Frame) []byte {
	var b wire.Buffer
	EncodeFrameInto(&b, f)
	return b.Bytes()
}

// TestEncodeFrameIntoMatchesEncodeFrame checks the Into form and the
// allocating form produce identical bytes, that the Into form appends (so
// pooled buffers can front-run a header), and that the result round-trips.
func TestEncodeFrameIntoMatchesEncodeFrame(t *testing.T) {
	p := newReusePlatform(t)
	s := p.NewSession()
	if err := s.OnGPS(sensor.GPSFix{Time: sim.Epoch, Position: center, AccuracyM: 4}); err != nil {
		t.Fatal(err)
	}
	f, err := s.Frame(sim.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Annotations) == 0 {
		t.Fatal("frame has no annotations")
	}
	want := encodeFrame(f)

	buf := wire.NewBuffer(64)
	EncodeFrameInto(buf, f)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("EncodeFrameInto differs from encodeFrame")
	}
	// Reuse after Reset must reproduce the same bytes — the pooled server
	// path.
	buf.Reset()
	EncodeFrameInto(buf, f)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("EncodeFrameInto differs after buffer reuse")
	}
	dec, err := DecodeFrame(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Annotations) != len(f.Annotations) {
		t.Fatalf("round-trip annotations %d, want %d", len(dec.Annotations), len(f.Annotations))
	}
}

// poiKey is the analytics key of a POI as a string.
func poiKey(id uint64) string { return string(appendPOIKey(nil, id)) }

// TestPoiKeyMatchesSprintf pins the strconv fast path to the old format.
func TestPoiKeyMatchesSprintf(t *testing.T) {
	for _, id := range []uint64{0, 1, 9, 10, 99, 12345, 18446744073709551615} {
		want := fmt.Sprintf("poi-%d", id)
		if got := poiKey(id); got != want {
			t.Fatalf("poiKey(%d) = %q, want %q", id, got, want)
		}
	}
}

// TestAdaptiveBatchSize checks the load tracker grows the effective batch
// size with flush latency and respects the ceiling.
func TestAdaptiveBatchSize(t *testing.T) {
	lt := newLoadTracker(32, 128)
	if got := lt.batchSize(time.Now()); got != 32 {
		t.Fatalf("cold batch size = %d, want base 32", got)
	}
	// Fast flushes: stay at base.
	for i := 0; i < 20; i++ {
		lt.observeFlush(100*time.Microsecond, time.Now())
	}
	if got := lt.batchSize(time.Now()); got != 32 {
		t.Fatalf("fast-flush batch size = %d, want base 32", got)
	}
	// Slow flushes: the EWMA converges upward and the size grows…
	for i := 0; i < 50; i++ {
		lt.observeFlush(5*time.Millisecond, time.Now())
	}
	if got := lt.batchSize(time.Now()); got <= 32 {
		t.Fatalf("slow-flush batch size = %d, want > base", got)
	}
	// …but never past the ceiling.
	for i := 0; i < 50; i++ {
		lt.observeFlush(5*time.Second, time.Now())
	}
	if got := lt.batchSize(time.Now()); got != 128 {
		t.Fatalf("saturated batch size = %d, want ceiling 128", got)
	}
}

// TestLoadSignalReportsPressure checks the platform surfaces flush latency
// and analytics backlog to admission control.
func TestLoadSignalReportsPressure(t *testing.T) {
	p := newReusePlatform(t)
	if sig := p.LoadSignal(); sig.FlushLatency < 0 || sig.Backlog != 0 {
		t.Fatalf("idle signal = %+v", sig)
	}
	p.load.observeFlush(10*time.Millisecond, time.Now())
	if sig := p.LoadSignal(); sig.FlushLatency == 0 {
		t.Fatal("flush latency not surfaced")
	}
	// Backlog: give the platform its consumer group without starting the
	// consumer, then publish interactions nobody drains.
	g, err := p.broker.NewGroup(TopicInteractions)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	p.group = g
	p.mu.Unlock()
	s := p.NewSession()
	for i := 0; i < 40; i++ {
		if err := s.RecordInteraction(uint64(i%5+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FlushTelemetry(); err != nil {
		t.Fatal(err)
	}
	if sig := p.LoadSignal(); sig.Backlog != 40 {
		t.Fatalf("backlog = %d, want 40", sig.Backlog)
	}
}

package core

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"arbd/internal/geo"
	"arbd/internal/sensor"
	"arbd/internal/sim"
	"arbd/internal/wire"
)

// TestTelemetryRecordsMatchWireBuffer pins the stack encoder to the
// wire.Buffer encoding interaction records have always had on the broker.
func TestTelemetryRecordsMatchWireBuffer(t *testing.T) {
	for _, id := range []uint64{0, 1, 127, 128, 1 << 40, math.MaxUint64} {
		var in wire.Buffer
		in.String("poi-" + strconv.FormatUint(id, 10))
		in.Uvarint(id ^ 0xfff)
		in.Float64(0.3)
		got := appendInteraction(nil, id, id^0xfff, 0.3)
		if !bytes.Equal(got, in.Bytes()) {
			t.Fatalf("interaction record for %d = %x, want %x", id, got, in.Bytes())
		}
		if n := len(got); n > interactionRecordMax {
			t.Fatalf("interaction record %d bytes > interactionRecordMax %d", n, interactionRecordMax)
		}
		key, weight, err := decodeInteraction(got)
		if err != nil || weight != 0.3 {
			t.Fatalf("decode = %q, %v, %v", key, weight, err)
		}
		if string(key) != "poi-"+strconv.FormatUint(id, 10) {
			t.Fatalf("decoded key %q for POI %d", key, id)
		}
	}
	if _, _, err := decodeInteraction([]byte{5, 'p'}); err == nil {
		t.Fatal("truncated interaction record decoded")
	}
}

// TestUnknownGazeTarget: a gaze or interaction at an ID that names no POI
// is refused before it reaches any state keyed by target.
func TestUnknownGazeTarget(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	s := p.NewSession()
	const unknown = 1 << 40
	for _, dwell := range []float64{200, 2000} {
		err := s.OnGaze(sensor.GazeSample{TargetID: unknown, DwellMS: dwell})
		if !errors.Is(err, geo.ErrPOINotFound) {
			t.Fatalf("gaze at unknown target (dwell %v): err = %v, want ErrPOINotFound", dwell, err)
		}
	}
	if err := s.RecordInteraction(unknown, 1); !errors.Is(err, geo.ErrPOINotFound) {
		t.Fatalf("interaction with unknown target: err = %v, want ErrPOINotFound", err)
	}
	s.mu.Lock()
	gazed := len(s.gaze)
	s.mu.Unlock()
	if gazed != 0 {
		t.Fatalf("gaze map holds %d targets after refused samples", gazed)
	}
	if n := countRecords(t, p); n != 0 {
		t.Fatalf("%d interaction records published for refused targets", n)
	}
	// A real POI still counts.
	if err := s.OnGaze(sensor.GazeSample{TargetID: 5, DwellMS: 2000}); err != nil {
		t.Fatal(err)
	}
	if n := countRecords(t, p); n != 1 {
		t.Fatalf("%d interaction records published for a real target, want 1", n)
	}
}

// TestConsumerKeyTableHoldsOnlyPOIs: the consumer interns the key of a POI
// once and hands the same string back; a key naming no POI — a record that
// arrived with a migrated session — is copied and never enters the table.
func TestConsumerKeyTableHoldsOnlyPOIs(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	c := &crowdConsumer{p: p, keys: make(map[string]string)}
	first := c.intern([]byte("poi-7"))
	second := c.intern([]byte("poi-7"))
	if first != "poi-7" || unsafe.StringData(first) != unsafe.StringData(second) {
		t.Fatalf("poi-7 interned as %q then %q, want one shared string", first, second)
	}
	for _, key := range []string{"poi-1099511627776", "poi-007", "poi-+7", "7", "not-a-poi"} {
		if got := c.intern([]byte(key)); got != key {
			t.Fatalf("intern(%q) = %q", key, got)
		}
	}
	if len(c.keys) != 1 {
		t.Fatalf("key table holds %d keys, want 1 (only the real POI)", len(c.keys))
	}
}

// TestIngestSteadyStateAllocs drives a started platform with the
// sensor_flood mix — 50 % IMU, 48 % gaze dwells that become interactions,
// 2 % GPS — over 64 sessions and counts every allocation the process makes
// between the sensor calls and the crowd view: the publish, the broker, the
// consumer, the sketch and the window. Segment rolls in the broker are
// the one steady cost, amortised over 1,024 records.
func TestIngestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	cfg := testConfig()
	// A still platform clock keeps every record in one window, so the
	// count covers the per-event path, not window turnover.
	cfg.clock = sim.NewVirtualClock(sim.Epoch)
	p := newTestPlatform(t, cfg)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := p.Stop(); err != nil {
			t.Error(err)
		}
	}()
	sessions := make([]*Session, 64)
	for i := range sessions {
		sessions[i] = p.NewSession()
	}
	rng := sim.NewRand(3)
	pattern := make([]byte, 100)
	for i := range pattern {
		switch {
		case i < 50:
			pattern[i] = 'i'
		case i < 98:
			pattern[i] = 'g'
		default:
			pattern[i] = 'p'
		}
	}
	rng.Shuffle(len(pattern), func(i, j int) { pattern[i], pattern[j] = pattern[j], pattern[i] })
	numPOIs := uint64(cfg.City.NumPOIs)
	events := 0
	run := func(n int) {
		for k := 0; k < n; k++ {
			s := sessions[events%len(sessions)]
			at := sim.Epoch.Add(time.Duration(events) * time.Millisecond)
			switch pattern[events%len(pattern)] {
			case 'i':
				s.OnIMU(sensor.IMUSample{Time: at, GyroZRad: 0.01, AccelMps2: 0.2, CompassDeg: float64(events % 360)})
			case 'g':
				target := uint64(events*7919)%numPOIs + 1
				if err := s.OnGaze(sensor.GazeSample{Time: at, TargetID: target, DwellMS: 1500}); err != nil {
					t.Fatal(err)
				}
			case 'p':
				if err := s.OnGPS(sensor.GPSFix{Time: at, Position: center, AccuracyM: 3}); err != nil {
					t.Fatal(err)
				}
			}
			events++
		}
		if err := p.WaitAnalyticsIdle(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: every session's gaze map, the key table, the sketch and the
	// window state meet every POI; buffers reach their working size.
	run(200_000)
	const measured = 200_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(measured)
	runtime.ReadMemStats(&after)
	perEvent := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("%.4f allocations, %.1f bytes per event", perEvent, float64(after.TotalAlloc-before.TotalAlloc)/measured)
	if perEvent > 0.05 {
		t.Fatalf("ingest allocates %.4f objects per event, want <= 0.05", perEvent)
	}
}

// TestGPSFixesAddNoLiveBytes: a GPS fix moves the session's tracking and
// nothing else, so 200,000 fixes over 64 sessions leave the live heap
// within 64 KiB of where they found it.
func TestGPSFixesAddNoLiveBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; heap budgets only hold without -race")
	}
	p := newTestPlatform(t, testConfig())
	sessions := make([]*Session, 64)
	for i := range sessions {
		sessions[i] = p.NewSession()
	}
	fixes := func(from, n int) {
		for k := from; k < from+n; k++ {
			fix := sensor.GPSFix{
				Time:      sim.Epoch.Add(time.Duration(k) * time.Millisecond),
				Position:  geo.Destination(center, float64(k%360), float64(k%50)),
				AccuracyM: 3,
			}
			if err := sessions[k%len(sessions)].OnGPS(fix); err != nil {
				t.Fatal(err)
			}
		}
	}
	fixes(0, 1024) // every session's tracking state meets its first fixes
	const measured = 200_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	fixes(1024, measured)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	runtime.KeepAlive(sessions)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d fixes over %d sessions: live heap %+d B", measured, len(sessions), growth)
	if growth > 64<<10 {
		t.Fatalf("%d GPS fixes grew the live heap by %d B, want ≤ %d", measured, growth, 64<<10)
	}
}

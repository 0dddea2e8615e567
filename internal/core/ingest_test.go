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

// TestTelemetryRecordsMatchWireBuffer pins the stack encoders to the
// wire.Buffer encoding the records have always had on the broker.
func TestTelemetryRecordsMatchWireBuffer(t *testing.T) {
	for _, id := range []uint64{0, 1, 127, 128, 1 << 40, math.MaxUint64} {
		at := geo.Point{Lat: 22.3364 + float64(id%7), Lon: -114.2655}
		var loc wire.Buffer
		loc.Uvarint(id)
		loc.Float64(at.Lat)
		loc.Float64(at.Lon)
		if got := appendLocation(nil, id, at); !bytes.Equal(got, loc.Bytes()) {
			t.Fatalf("location record for %d = %x, want %x", id, got, loc.Bytes())
		}
		if n := len(loc.Bytes()); n > locationRecordMax {
			t.Fatalf("location record %d bytes > locationRecordMax %d", n, locationRecordMax)
		}

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
	if n := countRecords(t, p, TopicInteractions); n != 0 {
		t.Fatalf("%d interaction records published for refused targets", n)
	}
	// A real POI still counts.
	if err := s.OnGaze(sensor.GazeSample{TargetID: 5, DwellMS: 2000}); err != nil {
		t.Fatal(err)
	}
	if n := countRecords(t, p, TopicInteractions); n != 1 {
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

// TestPublishOnlyTopicBounded: nothing consumes the location topic, so its
// byte budget is all that bounds it. One session's fixes land on one
// partition; that partition keeps at most the budget plus one segment.
func TestPublishOnlyTopicBounded(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	s := p.NewSession()
	const fixes = 80_000
	base := sim.Epoch
	for i := 0; i < fixes; i++ {
		at := base.Add(time.Duration(i) * time.Second)
		if err := s.OnGPS(sensor.GPSFix{Time: at, Position: center, AccuracyM: 3}); err != nil {
			t.Fatal(err)
		}
	}
	// The broker charges each record its key and value and some bookkeeping
	// on top, so budget / (key + value) over-counts what the budget holds.
	const segmentRecords = 1024
	perRecord := len(s.principal) + len(appendLocation(nil, s.ID, center))
	bound := int64(locationRetentionBytes/perRecord + segmentRecords)
	var produced int64
	for pi := 0; pi < telemetryPartitions; pi++ {
		oldest, newest, err := p.telemTopics[telemetryLocations].Offsets(pi)
		if err != nil {
			t.Fatal(err)
		}
		produced += newest
		if kept := newest - oldest; kept > bound {
			t.Fatalf("partition %d keeps %d location records, want <= %d (budget + one segment)", pi, kept, bound)
		}
	}
	if produced != fixes {
		t.Fatalf("%d location records produced, want %d", produced, fixes)
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

package core

import (
	"errors"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"arbd/internal/geo"
	"arbd/internal/sensor"
	"arbd/internal/sim"
)

// TestUnknownGazeTarget: a gaze or interaction at an ID that names no POI
// is refused before it reaches any state keyed by target, and folds
// nothing.
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
	if n := p.consumed.Value(); n != 0 {
		t.Fatalf("%d interactions folded for refused targets", n)
	}
	if hot := p.HotPOIs(64); len(hot) != 0 {
		t.Fatalf("sketch holds %v after refused targets", hot)
	}
	if _, ok := p.CrowdView().GetKey(appendPOIKey(nil, unknown)); ok {
		t.Fatal("crowd view holds the unknown target")
	}
	p.hotMu.RLock()
	keys := len(p.keys)
	p.hotMu.RUnlock()
	if keys != 0 {
		t.Fatalf("key table holds %d keys after refused targets", keys)
	}
	// A real POI still counts.
	if err := s.OnGaze(sensor.GazeSample{TargetID: 5, DwellMS: 2000}); err != nil {
		t.Fatal(err)
	}
	if n := p.consumed.Value(); n != 1 {
		t.Fatalf("%d interactions folded for a real target, want 1", n)
	}
}

// TestConsumerKeyTableHoldsOnlyPOIs: the fold makes a POI's key once, on
// its first interaction, and the sketch and the view share that string; a
// target naming no POI is refused and never enters the table.
func TestConsumerKeyTableHoldsOnlyPOIs(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	s := p.NewSession()
	for i := 0; i < 3; i++ {
		if err := s.RecordInteraction(7, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint64{0, 1 << 40, uint64(testConfig().City.NumPOIs) + 1} {
		if err := s.RecordInteraction(id, 1); !errors.Is(err, geo.ErrPOINotFound) {
			t.Fatalf("RecordInteraction(%d): err = %v, want ErrPOINotFound", id, err)
		}
	}
	p.hotMu.RLock()
	key, ok := p.keys[7]
	n := len(p.keys)
	p.hotMu.RUnlock()
	if !ok || key != "poi-7" || n != 1 {
		t.Fatalf("key table holds %d keys, poi 7 as %q (%v); want only poi-7", n, key, ok)
	}
	hot := p.HotPOIs(1)
	if len(hot) != 1 || unsafe.StringData(hot[0].Key) != unsafe.StringData(key) {
		t.Fatalf("sketch holds %v, want the key table's poi-7 string", hot)
	}
}

// TestIngestSteadyStateAllocs drives a started platform with the
// sensor_flood mix — 50 % IMU, 48 % gaze dwells that become interactions,
// 2 % GPS — over 64 sessions and counts every allocation the process makes
// between the sensor calls and the crowd view: tracking, the gaze map, the
// key table, the sketch and the view. Once every key is warm, none.
func TestIngestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	cfg := testConfig()
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
	}
	// Warm up: every session's gaze map, the key table, the sketch and the
	// view meet every POI; buffers reach their working size.
	run(200_000)
	const measured = 200_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(measured)
	runtime.ReadMemStats(&after)
	perEvent := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("%.4f allocations, %.1f bytes per event", perEvent, float64(after.TotalAlloc-before.TotalAlloc)/measured)
	if perEvent > 0 {
		t.Fatalf("ingest allocates %.4f objects per event, want 0", perEvent)
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

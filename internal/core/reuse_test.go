package core

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"arbd/internal/arml"
	"arbd/internal/geo"
	"arbd/internal/recommend"
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

// TestFrameScratchEquivalence drives two identical platforms — one reusing
// the session's and the frame scratch's buffers and the session's kept POI
// set, one fully allocating and asking the index cold every frame — through
// the same sensor stream and requires byte-identical encoded frames at every
// step. This is the round-trip guarantee that reuse, of buffers and of the
// geo query's answer, changes performance, not output. The walk takes short
// steps the kept set answers and jumps that re-seed it; both must happen.
func TestFrameScratchEquivalence(t *testing.T) {
	pooled := newReusePlatform(t)
	alloc := newReusePlatform(t)
	sp, sa := pooled.NewSession(), alloc.NewSession()
	sa.kept = nil // the reference path: every frame freshly allocated

	pos := center
	for step := 0; step < 48; step++ {
		at := sim.Epoch.Add(time.Duration(step) * time.Second)
		pos = geo.Destination(pos, float64(step*30), []float64{1.5, 1.5, 6, 60}[step%4])
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
		if len(recP) != len(fa.Recommended) {
			t.Fatalf("step %d: recommended %d vs %d", step, len(recP), len(fa.Recommended))
		}
	}
	reused, seeded := pooled.geoReused.Value(), pooled.geoSeeded.Value()
	if reused == 0 || seeded == 0 {
		t.Fatalf("%d frames re-measured the kept set and %d seeded it: the walk must exercise both", reused, seeded)
	}
	if n := alloc.geoReused.Value() + alloc.geoSeeded.Value(); n != 0 {
		t.Fatalf("the reference path counted %d reuse queries: it must ask the index cold", n)
	}
}

// TestWalkReusesNearestSet walks a session through the dense benchmark city
// as the benchmark's scripts do — 1.5 m a step, an IMU sample every step
// and a GPS fix every 10th — and requires the frame's geo query to answer at
// least 90 % of frames from the session's kept set, as /metrics counts them
// (core.geo.reused against core.geo.seeded). A DegradeRadius frame asks a
// different question, half the radius and the cap, so it re-seeds, and so
// does the first frame back at full quality.
func TestWalkReusesNearestSet(t *testing.T) {
	const frames, dt = 600, 100 * time.Millisecond
	p := newTestPlatform(t, Config{
		Seed:  1,
		City:  geo.CityConfig{Center: center, RadiusM: 3000, NumPOIs: 5000, TallRatio: 0.2, Seed: 1},
		clock: sim.NewVirtualClock(sim.Epoch), // frames take no time: the level stays put
	})
	reused, seeded := p.Metrics().Counter("core.geo.reused"), p.Metrics().Counter("core.geo.seeded")
	s := p.NewSession()
	walker := sensor.NewWalker(sensor.WalkerConfig{Center: center, RadiusM: 40, SpeedMps: 15, Seed: 3})
	gps, imu := sensor.NewGPS(3, 5), sensor.NewIMU(3)
	frame := func(at time.Time) {
		t.Helper()
		if _, err := s.Frame(at); err != nil {
			t.Fatal(err)
		}
	}
	var at time.Time
	for k := 0; k < frames; k++ {
		at = sim.Epoch.Add(time.Duration(k) * dt)
		truth := walker.Step(dt)
		if k%10 == 0 {
			if err := s.OnGPS(gps.Fix(at, truth.Position)); err != nil {
				t.Fatal(err)
			}
		}
		s.OnIMU(imu.Sample(at, truth, dt))
		frame(at)
	}
	hits, seeds := reused.Value(), seeded.Value()
	share := float64(hits) / float64(hits+seeds)
	t.Logf("%d of %d frames re-measured the kept set (%.1f %%)", hits, hits+seeds, 100*share)
	if hits+seeds != frames || share < 0.9 {
		t.Fatalf("%d reused + %d seeded over %d frames: want every frame counted and ≥ 90 %% reused", hits, seeds, frames)
	}

	for _, step := range []struct {
		level DegradeLevel
		seeds int64 // seeds the frame adds
	}{{DegradeRadius, 1}, {DegradeRadius, 0}, {DegradeNone, 1}, {DegradeNone, 0}} {
		before := seeded.Value()
		s.level = step.level
		frame(at)
		if got := seeded.Value() - before; got != step.seeds {
			t.Fatalf("a frame at %v after the walk seeded %d times, want %d", step.level, got, step.seeds)
		}
	}
}

// encodeFrame returns the frame's wire encoding in a buffer of its own.
func encodeFrame(f *Frame) []byte {
	var b wire.Buffer
	EncodeFrameInto(&b, f)
	return b.Bytes()
}

// frameCopy is everything a frame says, copied out of the buffers it
// aliases.
type frameCopy struct {
	full, delta []byte
	tags        map[uint64][]arml.Tag
	rec         []uint64
}

func copyFrame(f *Frame) frameCopy {
	var delta wire.Buffer
	EncodeFrameDeltaInto(&delta, f, false)
	return frameCopy{full: encodeFrame(f), delta: delta.Bytes(), tags: maps.Clone(f.TagsFor), rec: slices.Clone(f.Recommended)}
}

// TestWorkerScratchMatchesSolo renders three sessions interleaved through
// one frame scratch, as a scheduler worker does, and requires each frame —
// full and delta encoding, tags, recommendations — to equal the same
// session's frame rendered alone with its own scratch. Session 0 stands
// among crowded POIs, so its frames carry interpretation tags that must not
// leak into the next session's frame; session 1 renders beside it at
// DegradeRadius (half the radius and the cap); session 2 walks elsewhere.
func TestWorkerScratchMatchesSolo(t *testing.T) {
	shared, solo := newReusePlatform(t), newReusePlatform(t)
	var crowded []uint64
	for _, poi := range shared.POIs().Nearest(center, 8) {
		crowded = append(crowded, poi.ID)
	}
	rec := recommend.NewPopularity([]recommend.Interaction{
		{UserID: 999, ItemID: 1, Weight: 1},
		{UserID: 998, ItemID: 2, Weight: 1},
	})
	for _, p := range []*Platform{shared, solo} {
		seedAnalytics(p, crowded)
		p.SetRecommender(rec)
	}
	starts := []geo.Point{center, center, geo.Destination(center, 120, 400)}
	levels := []DegradeLevel{DegradeNone, DegradeRadius, DegradeNone}
	var mates, alone []*Session
	for range starts {
		mates = append(mates, shared.NewSession())
		alone = append(alone, solo.NewSession())
	}

	sc := NewFrameScratch()
	tagged := false
	for step := 0; step < 8; step++ {
		at := sim.Epoch.Add(time.Duration(step) * time.Second)
		for i, start := range starts {
			pos := geo.Destination(start, float64(step*40), float64(step)*15)
			for _, s := range []*Session{mates[i], alone[i]} {
				if err := s.OnGPS(sensor.GPSFix{Time: at, Position: pos, AccuracyM: 4}); err != nil {
					t.Fatal(err)
				}
				s.OnIMU(sensor.IMUSample{Time: at, CompassDeg: float64((step*25 + i*120) % 360)})
				s.level = levels[i] // a fast frame recovers a level: set it every frame
			}
			var got frameCopy
			if err := mates[i].FrameVisit(at, sc, func(f *Frame) { got = copyFrame(f) }); err != nil {
				t.Fatal(err)
			}
			f, err := alone[i].Frame(at)
			if err != nil {
				t.Fatal(err)
			}
			want := copyFrame(f)
			switch {
			case !bytes.Equal(got.full, want.full):
				t.Fatalf("step %d, session %d: full encodings differ (%d vs %d bytes)", step, i, len(got.full), len(want.full))
			case !bytes.Equal(got.delta, want.delta):
				t.Fatalf("step %d, session %d: delta encodings differ (%d vs %d bytes)", step, i, len(got.delta), len(want.delta))
			case !reflect.DeepEqual(got.tags, want.tags):
				t.Fatalf("step %d, session %d: tags %v, alone %v", step, i, got.tags, want.tags)
			case !slices.Equal(got.rec, want.rec):
				t.Fatalf("step %d, session %d: recommended %v, alone %v", step, i, got.rec, want.rec)
			}
			tagged = tagged || len(want.tags) > 0
		}
	}
	if !tagged {
		t.Fatal("no frame carried an interpretation tag: a leaking tags map goes unnoticed")
	}
}

// TestSessionLiveBytes holds a streaming session's memory budget: on the
// sparse benchmark city, a session that has tracked and rendered through a
// worker's scratch keeps at most budget bytes of live heap — tracking state,
// its delta base and gaze map included; a GPS fix folds nothing. The budget is the 1,595 B this test measures (go1.24,
// linux/amd64) plus a 128 B margin.
func TestSessionLiveBytes(t *testing.T) {
	if got, budget := sessionLiveBytes(t, 3, 0), int64(1595+128); got > budget {
		t.Fatalf("a session keeps %d B of live heap, want ≤ %d", got, budget)
	}
}

// TestSessionLiveBytesSweep holds the budget of a long-lived session: 72
// frames each, the compass turning 5° a frame, so a session's layouts
// grow and shrink as its view turns. A session keeps one delta base, grown
// to fit its largest layout, so its memory does not grow with how long it
// has run. The budget is the 1,985 B this test measures (go1.24,
// linux/amd64) plus a 128 B margin.
func TestSessionLiveBytesSweep(t *testing.T) {
	if got, budget := sessionLiveBytes(t, 72, 5), int64(1985+128); got > budget {
		t.Fatalf("a session keeps %d B of live heap after a sweep, want ≤ %d", got, budget)
	}
}

// TestKeptAnnotationCompact holds the delta base a session keeps between
// frames to the fields a frame encodes: at most 80 B per annotation, where
// a kept render.Annotation costs 152 B.
func TestKeptAnnotationCompact(t *testing.T) {
	if got := unsafe.Sizeof(keptAnnotation{}); got > 80 {
		t.Fatalf("a kept annotation is %d B, want ≤ 80", got)
	}
}

// sessionLiveBytes opens 512 sessions on the sparse benchmark city, renders
// frames frames each through one shared scratch, as a scheduler worker
// does, with the compass turning turnDeg before each, and returns the live
// heap each session keeps.
func sessionLiveBytes(t *testing.T, frames int, turnDeg float64) int64 {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation allocates; heap budgets only hold without -race")
	}
	const sessions = 512
	p := newTestPlatform(t, Config{
		Seed: 1,
		City: geo.CityConfig{Center: center, RadiusM: 2000, NumPOIs: 80, TallRatio: 0.2, Seed: 1},
	})
	sc := NewFrameScratch()
	visit := func(*Frame) {}
	now := time.Now()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < sessions; i++ {
		s := p.NewSession()
		pos := geo.Destination(center, float64(i%360), float64(i%40))
		if err := s.OnGPS(sensor.GPSFix{Time: now, Position: pos, AccuracyM: 5}); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			s.OnIMU(sensor.IMUSample{Time: now.Add(time.Duration(k) * 10 * time.Millisecond), CompassDeg: float64(i * 7 % 360)})
		}
		for k := 0; k < frames; k++ {
			if turnDeg != 0 {
				at := now.Add(time.Duration(3+k) * 10 * time.Millisecond)
				s.OnIMU(sensor.IMUSample{Time: at, CompassDeg: math.Mod(float64(i*7)+turnDeg*float64(k+1), 360)})
			}
			if err := s.FrameVisit(now, sc, visit); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	perSession := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / sessions
	t.Logf("%d B of live heap per session", perSession)
	return perSession
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

package core

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"arbd/internal/arml"
	"arbd/internal/geo"
	"arbd/internal/recommend"
	"arbd/internal/sensor"
	"arbd/internal/sim"
)

var center = geo.Point{Lat: 22.3364, Lon: 114.2655}

func testConfig() Config {
	return Config{
		Seed: 1,
		City: geo.CityConfig{Center: center, RadiusM: 1500, NumPOIs: 800, TallRatio: 0.2},
	}
}

func newTestPlatform(t *testing.T, cfg Config) *Platform {
	t.Helper()
	p, err := NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestNewPlatformValidatesCenter(t *testing.T) {
	if _, err := NewPlatform(Config{}); err == nil {
		t.Fatal("invalid center accepted")
	}
}

func TestPlatformLifecycle(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	if err := p.Stop(); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("stop before start: %v", err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); !errors.Is(err, ErrStarted) {
		t.Fatalf("double start: %v", err)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatalf("double stop: %v", err)
	}
}

// TestAnalyticsPlaneGoroutines: the analytics plane runs no goroutine of
// its own — every interaction is folded inside its sensor call — so Start
// adds none and Stop leaves none behind.
func TestAnalyticsPlaneGoroutines(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	baseline := runtime.NumGoroutine()
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if grew := runtime.NumGoroutine() - baseline; grew != 0 {
		t.Fatalf("Start added %d goroutines, want 0", grew)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != baseline {
		t.Fatalf("%d goroutines after Stop, want %d", n, baseline)
	}
}

func TestSessionIDsUnique(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	a, b := p.NewSession(), p.NewSession()
	if a.ID == b.ID {
		t.Fatal("duplicate session IDs")
	}
}

func TestFrameProducesAnnotations(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	s := p.NewSession()
	s.OnIMU(sensor.IMUSample{Time: sim.Epoch, CompassDeg: 0})
	if err := s.OnGPS(sensor.GPSFix{Time: sim.Epoch, Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	f, err := s.Frame(sim.Epoch.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Annotations) == 0 {
		t.Fatal("no annotations in a dense city")
	}
	if len(f.Annotations) > 20 {
		t.Fatalf("annotation cap violated: %d", len(f.Annotations))
	}
	for _, a := range f.Annotations {
		if !a.Placed {
			t.Fatal("unplaced annotation emitted")
		}
	}
	if f.Level != DegradeNone {
		t.Fatalf("fresh session degraded: %v", f.Level)
	}
	st := s.Stats()
	if st.Frames != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// A maxAnnotations of 1 halves to 0 under degradation: the frame must ask
// the store for nothing (a query limit of 0 would mean "no limit") and come
// out empty.
func TestDegradedSingleAnnotationFrameIsEmpty(t *testing.T) {
	cfg := testConfig()
	cfg.maxAnnotations = 1
	p := newTestPlatform(t, cfg)
	s := p.NewSession()
	s.OnIMU(sensor.IMUSample{Time: sim.Epoch, CompassDeg: 0})
	if err := s.OnGPS(sensor.GPSFix{Time: sim.Epoch, Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	s.level = DegradeRadius
	f, err := s.Frame(sim.Epoch.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Annotations) != 0 || len(f.TagsFor) != 0 || len(s.own.pois) != 0 {
		t.Fatalf("degraded 1-annotation frame: %d annotations, %d tags, %d POIs queried",
			len(f.Annotations), len(f.TagsFor), len(s.own.pois))
	}
}

func TestAnalyticsPlaneTagsCrowdedPOIs(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := p.Stop(); err != nil {
			t.Error(err)
		}
	}()
	s := p.NewSession()
	_ = s.OnGPS(sensor.GPSFix{Time: sim.Epoch, Position: center, AccuracyM: 3})

	// Hammer one nearby POI with interactions.
	near := p.POIs().QueryRadius(center, 200, 0)
	if len(near) == 0 {
		t.Fatal("no POIs near center")
	}
	target := near[0].ID
	for i := 0; i < 200; i++ {
		if err := s.RecordInteraction(target, 1); err != nil {
			t.Fatal(err)
		}
	}
	hot := p.HotPOIs(3)
	if len(hot) == 0 || hot[0].Key != poiKey(target) {
		t.Fatalf("hot POIs = %v, want %s first", hot, poiKey(target))
	}
}

// TestInteractionFreshInNextFrame: on a still virtual clock, an interaction
// recorded between two frames shows in the very next frame's context: its
// "visits" in contextMetrics, and the crowd tag it fires. Nothing waits for
// a window to close or for a later record.
func TestInteractionFreshInNextFrame(t *testing.T) {
	cfg := testConfig()
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
	s := p.NewSession()
	if err := s.OnGPS(sensor.GPSFix{Time: sim.Epoch, Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	f, err := s.Frame(sim.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Annotations) == 0 || len(f.TagsFor) != 0 {
		t.Fatalf("first frame: %d annotations, %d tagged POIs; want some, none tagged", len(f.Annotations), len(f.TagsFor))
	}
	target := f.Annotations[0].ID
	if err := s.RecordInteraction(target, 1); err != nil {
		t.Fatal(err)
	}

	if f, err = s.Frame(sim.Epoch); err != nil {
		t.Fatal(err)
	}
	if tags := f.TagsFor[target]; len(tags) == 0 || tags[0] != (arml.Tag{Key: "crowd", Value: "busy"}) {
		t.Fatalf("next frame tags POI %d with %v, want crowd=busy", target, tags)
	}
	poi, err := p.POIs().Get(target)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	m := s.contextMetrics(s.own, &poi, p.HotPOIs(1))
	visits := m["visits"]
	s.mu.Unlock()
	if visits != 1 {
		t.Fatalf("contextMetrics(POI %d) = %v, want 1 visit", target, m)
	}
}

func TestCrowdViewFilledAfterStop(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	s := p.NewSession()
	for i := 0; i < 50; i++ {
		if err := s.RecordInteraction(7, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Stop(); err != nil { // nothing to drain: the view was filled by each call
		t.Fatal(err)
	}
	stats, ok := p.CrowdView().GetKey([]byte(poiKey(7)))
	if !ok || stats.Sum != 50 {
		t.Fatalf("crowd view = %+v, %v", stats, ok)
	}
}

func TestTimelinessDegradationAndRecovery(t *testing.T) {
	vc := sim.NewVirtualClock(time.Time{})
	cfg := testConfig()
	cfg.clock = stepClock{vc: vc, step: 50 * time.Millisecond} // every frame overruns 33ms
	p := newTestPlatform(t, cfg)
	s := p.NewSession()
	_ = s.OnGPS(sensor.GPSFix{Time: sim.Epoch, Position: center, AccuracyM: 3})
	for i := 0; i < 3; i++ {
		if _, err := s.Frame(sim.Epoch); err != nil {
			t.Fatal(err)
		}
	}
	if s.Level() != DegradeInterp {
		t.Fatalf("level = %v after sustained overruns", s.Level())
	}
	if s.Stats().Overruns != 3 {
		t.Fatalf("overruns = %d", s.Stats().Overruns)
	}
	// Fast frames recover.
	cfgFast := stepClock{vc: vc, step: 5 * time.Millisecond}
	p.cfg.clock = cfgFast
	for i := 0; i < 3; i++ {
		if _, err := s.Frame(sim.Epoch); err != nil {
			t.Fatal(err)
		}
	}
	if s.Level() != DegradeNone {
		t.Fatalf("level = %v after fast frames", s.Level())
	}
}

// stepClock advances a fixed step on every Since call, making frame timing
// deterministic.
type stepClock struct {
	vc   *sim.VirtualClock
	step time.Duration
}

func (c stepClock) Now() time.Time { return c.vc.Now() }
func (c stepClock) Since(t time.Time) time.Duration {
	c.vc.Advance(c.step)
	return c.vc.Now().Sub(t)
}

// TestGazeBecomesInteraction: a short glance folds nothing, and one
// sustained gaze is folded once — one sketch count, one view row of the
// gaze weight, one consumed interaction.
func TestGazeBecomesInteraction(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	s := p.NewSession()
	// Short glance: no telemetry.
	if err := s.OnGaze(sensor.GazeSample{TargetID: 5, DwellMS: 200}); err != nil {
		t.Fatal(err)
	}
	if n := p.consumed.Value(); n != 0 {
		t.Fatalf("a glance folded %d interactions, want 0", n)
	}
	// Sustained dwell: telemetry.
	if err := s.OnGaze(sensor.GazeSample{TargetID: 5, DwellMS: 2000}); err != nil {
		t.Fatal(err)
	}
	if n := p.consumed.Value(); n != 1 {
		t.Fatalf("interactions = %d, want 1", n)
	}
	stats, ok := p.CrowdView().GetKey([]byte(poiKey(5)))
	if !ok || stats.Count != 1 || stats.Sum != 0.3 {
		t.Fatalf("crowd view = %+v, %v; want one row of 0.3", stats, ok)
	}
	if hot := p.HotPOIs(64); len(hot) != 1 || hot[0].Key != poiKey(5) || hot[0].Count != 1 {
		t.Fatalf("sketch = %v, want %s once", hot, poiKey(5))
	}
}

func TestFrameWithRecommender(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	s := p.NewSession()
	_ = s.OnGPS(sensor.GPSFix{Time: sim.Epoch, Position: center, AccuracyM: 3})
	log := []recommend.Interaction{
		{UserID: 999, ItemID: 1, Weight: 1},
		{UserID: 998, ItemID: 2, Weight: 1},
	}
	p.SetRecommender(recommend.NewPopularity(log))
	f, err := s.Frame(sim.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Recommended) == 0 {
		t.Fatal("no recommendations surfaced")
	}
}

func TestFrameARMLExport(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	s := p.NewSession()
	_ = s.OnGPS(sensor.GPSFix{Time: sim.Epoch, Position: center, AccuracyM: 3})
	f, err := s.Frame(sim.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.ToARML()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := arml.Decode(data)
	if err != nil {
		t.Fatalf("exported ARML invalid: %v", err)
	}
	if len(doc.Features) != len(f.Annotations) {
		t.Fatalf("features = %d, annotations = %d", len(doc.Features), len(f.Annotations))
	}
	if !strings.Contains(string(data), "<arml") {
		t.Fatal("missing root element")
	}
}

func TestFrameWireRoundTrip(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	s := p.NewSession()
	_ = s.OnGPS(sensor.GPSFix{Time: sim.Epoch, Position: center, AccuracyM: 3})
	f, err := s.Frame(sim.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	data := encodeFrame(f)
	got, err := DecodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Annotations) != len(f.Annotations) {
		t.Fatalf("decoded %d annotations, want %d", len(got.Annotations), len(f.Annotations))
	}
	for i := range got.Annotations {
		if got.Annotations[i].ID != f.Annotations[i].ID ||
			got.Annotations[i].Label != f.Annotations[i].Label {
			t.Fatalf("annotation %d mismatch", i)
		}
	}
	if _, err := DecodeFrame([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}); err == nil {
		t.Fatal("implausible count accepted")
	}
}

func TestGazeTargets(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	s := p.NewSession()
	_ = s.OnGPS(sensor.GPSFix{Time: sim.Epoch, Position: center, AccuracyM: 3})
	if _, err := s.Frame(sim.Epoch); err != nil {
		t.Fatal(err)
	}
	targets := s.GazeTargets()
	if len(targets) == 0 {
		t.Fatal("no gaze targets after a frame")
	}
}

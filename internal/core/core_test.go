package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"arbd/internal/arml"
	"arbd/internal/geo"
	"arbd/internal/recommend"
	"arbd/internal/sensor"
	"arbd/internal/sim"
	"arbd/internal/wire"
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
	if len(f.Annotations) != 0 || len(f.TagsFor) != 0 || len(s.scratch.pois) != 0 {
		t.Fatalf("degraded 1-annotation frame: %d annotations, %d tags, %d POIs queried",
			len(f.Annotations), len(f.TagsFor), len(s.scratch.pois))
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
	if err := p.WaitAnalyticsIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// The windowed sum only lands in the view when the window closes; push
	// one event an hour later to advance the watermark... but broker
	// timestamps come from the platform clock, so instead verify via the
	// hot-POI sketch (updated per event) and the crowd view after drain.
	hot := p.HotPOIs(3)
	if len(hot) == 0 || hot[0].Key != poiKey(target) {
		t.Fatalf("hot POIs = %v, want %s first", hot, poiKey(target))
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
	if err := p.WaitAnalyticsIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil { // drain flushes open windows
		t.Fatal(err)
	}
	stats, ok := p.CrowdView().GetKey([]byte(poiKey(7)))
	if !ok || stats.Sum != 50 {
		t.Fatalf("crowd view = %+v, %v", stats, ok)
	}
}

func TestPrivacyGatePerturbsLocations(t *testing.T) {
	cfg := testConfig()
	cfg.LocationEpsilon = 0.02 // expected error 100 m
	cfg.PrivacyBudget = 1000
	p := newTestPlatform(t, cfg)
	s := p.NewSession()
	for i := 0; i < 20; i++ {
		if err := s.OnGPS(sensor.GPSFix{Time: sim.Epoch.Add(time.Duration(i) * time.Second),
			Position: center, AccuracyM: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FlushTelemetry(); err != nil {
		t.Fatal(err)
	}
	var values [][]byte
	for pi := 0; pi < 4; pi++ {
		rs, err := fetch(p, TopicLocations, pi, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			values = append(values, r.Value)
		}
	}
	if len(values) != 20 {
		t.Fatalf("published %d location records", len(values))
	}
	displaced := 0
	for _, v := range values {
		lat, lon := decodeLocation(t, v)
		d := geo.DistanceMeters(center, geo.Point{Lat: lat, Lon: lon})
		if d > 1 {
			displaced++
		}
	}
	if displaced < 18 {
		t.Fatalf("only %d/20 locations perturbed", displaced)
	}
}

func decodeLocation(t *testing.T, p []byte) (lat, lon float64) {
	t.Helper()
	r := wire.NewReader(p)
	if _, err := r.Uvarint(); err != nil { // session id
		t.Fatal(err)
	}
	lat, err := r.Float64()
	if err != nil {
		t.Fatal(err)
	}
	lon, err = r.Float64()
	if err != nil {
		t.Fatal(err)
	}
	return lat, lon
}

func TestPrivacyBudgetSuppressesTelemetry(t *testing.T) {
	cfg := testConfig()
	cfg.LocationEpsilon = 1
	cfg.PrivacyBudget = 5 // five fixes worth
	p := newTestPlatform(t, cfg)
	s := p.NewSession()
	for i := 0; i < 20; i++ {
		if err := s.OnGPS(sensor.GPSFix{Time: sim.Epoch, Position: center, AccuracyM: 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.FlushTelemetry(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for pi := 0; pi < 4; pi++ {
		rs, _ := fetch(p, TopicLocations, pi, 0, 100)
		total += len(rs)
	}
	if total != 5 {
		t.Fatalf("published %d records with budget for 5", total)
	}
	if got := p.Metrics().Counter("core.privacy.suppressed").Value(); got != 15 {
		t.Fatalf("suppressed = %d", got)
	}
	// Tracking still works.
	if !s.Pose().Position.Valid() {
		t.Fatal("pose lost after suppression")
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

func TestGazeBecomesInteraction(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	s := p.NewSession()
	// Short glance: no telemetry.
	if err := s.OnGaze(sensor.GazeSample{TargetID: 5, DwellMS: 200}); err != nil {
		t.Fatal(err)
	}
	// Sustained dwell: telemetry.
	if err := s.OnGaze(sensor.GazeSample{TargetID: 5, DwellMS: 2000}); err != nil {
		t.Fatal(err)
	}
	if err := s.FlushTelemetry(); err != nil {
		t.Fatal(err)
	}
	total := 0
	for pi := 0; pi < 4; pi++ {
		rs, _ := fetch(p, TopicInteractions, pi, 0, 100)
		total += len(rs)
	}
	if total != 1 {
		t.Fatalf("interactions = %d, want 1", total)
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

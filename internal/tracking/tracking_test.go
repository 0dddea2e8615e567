package tracking

import (
	"math"
	"testing"
	"time"

	"arbd/internal/geo"
	"arbd/internal/sensor"
	"arbd/internal/sim"
)

var (
	origin = geo.Point{Lat: 22.3364, Lon: 114.2655}
	t0     = sim.Epoch
)

func TestENURoundTrip(t *testing.T) {
	pts := []geo.Point{
		origin,
		geo.Destination(origin, 45, 500),
		geo.Destination(origin, 270, 1500),
	}
	for _, p := range pts {
		back := FromENU(origin, ToENU(origin, p))
		if d := geo.DistanceMeters(p, back); d > 0.01 {
			t.Fatalf("round trip error %.4f m for %v", d, p)
		}
	}
}

func TestENUAxes(t *testing.T) {
	east := geo.Destination(origin, 90, 100)
	e := ToENU(origin, east)
	if math.Abs(e.E-100) > 1 || math.Abs(e.N) > 1 {
		t.Fatalf("east point ENU = %+v", e)
	}
	north := geo.Destination(origin, 0, 100)
	n := ToENU(origin, north)
	if math.Abs(n.N-100) > 1 || math.Abs(n.E) > 1 {
		t.Fatalf("north point ENU = %+v", n)
	}
}

func TestPositionFilterConvergesOnStatic(t *testing.T) {
	// A near-static process model (tiny accel noise) lets the filter
	// average measurements aggressively; mean tail error must be well
	// below the raw 5 m measurement noise.
	rng := sim.NewRand(1)
	f := NewPositionFilter(ENU{E: 50, N: -50}, 0.05) // bad initial guess
	var tailErr float64
	const steps, tail = 100, 20
	for i := 0; i < steps; i++ {
		f.Predict(1)
		f.UpdatePosition(ENU{E: rng.Norm(0, 5), N: rng.Norm(0, 5)}, 5)
		if i >= steps-tail {
			s := f.State()
			tailErr += math.Hypot(s.E, s.N)
		}
	}
	if mean := tailErr / tail; mean > 2.5 {
		t.Fatalf("static convergence mean error %.2f m", mean)
	}
	if f.Uncertainty() > 5 {
		t.Fatalf("uncertainty %.2f did not shrink", f.Uncertainty())
	}
}

func TestPositionFilterTracksConstantVelocity(t *testing.T) {
	rng := sim.NewRand(2)
	f := NewPositionFilter(ENU{}, 0.1)
	// Target moves east at 2 m/s.
	for i := 1; i <= 200; i++ {
		f.Predict(1)
		truthE := 2 * float64(i)
		f.UpdatePosition(ENU{E: truthE + rng.Norm(0, 5), N: rng.Norm(0, 5)}, 5)
	}
	ve, vn := f.Velocity()
	if math.Abs(ve-2) > 0.5 || math.Abs(vn) > 0.5 {
		t.Fatalf("velocity = (%.2f, %.2f), want (2, 0)", ve, vn)
	}
	// Filtered error should beat raw measurement noise.
	got := f.State()
	if err := math.Abs(got.E - 400); err > 4 {
		t.Fatalf("position error %.2f m", err)
	}
}

func TestPositionFilterSmoothsNoise(t *testing.T) {
	rng := sim.NewRand(3)
	f := NewPositionFilter(ENU{}, 0.3)
	var rawErr, filtErr float64
	const n = 200
	for i := 0; i < n; i++ {
		f.Predict(1)
		z := ENU{E: rng.Norm(0, 8), N: rng.Norm(0, 8)}
		f.UpdatePosition(z, 8)
		rawErr += math.Hypot(z.E, z.N)
		s := f.State()
		filtErr += math.Hypot(s.E, s.N)
	}
	if filtErr >= rawErr*0.6 {
		t.Fatalf("filter error %.1f not well below raw %.1f", filtErr/n, rawErr/n)
	}
}

func TestHeadingFilterGyroIntegration(t *testing.T) {
	h := NewHeadingFilter(0)
	// 90 deg/s for 1 s in 10 steps, no corrections.
	for i := 0; i < 10; i++ {
		h.Predict(math.Pi/2, 0.1)
	}
	if math.Abs(wrap180(h.Heading()-90)) > 0.5 {
		t.Fatalf("integrated heading = %.1f, want 90", h.Heading())
	}
	if h.Sigma() <= NewHeadingFilter(0).Sigma()-1 {
		t.Fatal("uncertainty should grow without corrections")
	}
}

func TestHeadingFilterCorrectionsShrinkError(t *testing.T) {
	rng := sim.NewRand(4)
	h := NewHeadingFilter(200) // way off; truth is 10
	for i := 0; i < 50; i++ {
		h.Predict(0, 0.1)
		h.Update(10+rng.Norm(0, 3), 3)
	}
	if err := math.Abs(wrap180(h.Heading() - 10)); err > 2 {
		t.Fatalf("heading error %.2f after corrections", err)
	}
	if h.Sigma() > 3 {
		t.Fatalf("sigma = %.2f", h.Sigma())
	}
}

func TestHeadingFilterWrapAround(t *testing.T) {
	h := NewHeadingFilter(359)
	for i := 0; i < 30; i++ {
		h.Predict(0, 0.1)
		h.Update(1, 2) // truth just across the wrap
	}
	if err := math.Abs(wrap180(h.Heading() - 1)); err > 2 {
		t.Fatalf("wrap handling error %.2f (heading %.1f)", err, h.Heading())
	}
}

// buildWorld creates a walker plus landmark store for fusion tests.
func buildWorld(seed int64) (*sensor.Walker, *geo.Store) {
	city := geo.GenerateCity(geo.CityConfig{
		Center: origin, RadiusM: 800, NumPOIs: 300, TallRatio: 0.2, Seed: seed,
	})
	store, err := geo.LoadStore(city)
	if err != nil {
		panic(err)
	}
	return sensor.NewWalker(sensor.WalkerConfig{Center: origin, RadiusM: 400, Seed: seed}), store
}

// runFusion walks for the given number of 100 ms steps feeding the fuser,
// returning mean registration errors. Vision can be disabled to measure its
// contribution.
func runFusion(t *testing.T, seed int64, steps int, useVision bool) RegError {
	t.Helper()
	walker, store := buildWorld(seed)
	gps := sensor.NewGPS(seed, 5)
	imu := sensor.NewIMU(seed)
	cam := sensor.NewCamera(sensor.CameraConfig{Seed: seed})
	var visionStore *geo.Store
	if useVision {
		visionStore = store
	}
	f := NewFuser(origin, visionStore)

	const dt = 100 * time.Millisecond
	var sum RegError
	n := 0
	for i := 0; i < steps; i++ {
		now := t0.Add(time.Duration(i) * dt)
		truth := walker.Step(dt)
		f.OnIMU(imu.Sample(now, truth, dt))
		if i%10 == 0 { // GPS at 1 Hz
			f.OnGPS(gps.Fix(now, truth.Position))
		}
		if useVision && i%3 == 0 { // vision at ~3 Hz
			near := store.QueryRadius(truth.Position, 160, 0)
			f.OnVision(now, cam.Observe(now, truth, near))
		}
		if i > steps/2 { // measure after convergence
			e := Register(f.Pose(), truth, 60, 1280)
			sum.PositionM += e.PositionM
			sum.HeadingDeg += e.HeadingDeg
			sum.PixelErr += e.PixelErr
			n++
		}
	}
	return RegError{
		PositionM:  sum.PositionM / float64(n),
		HeadingDeg: sum.HeadingDeg / float64(n),
		PixelErr:   sum.PixelErr / float64(n),
	}
}

func TestFusionAccuracy(t *testing.T) {
	e := runFusion(t, 10, 1200, true)
	if e.PositionM > 8 {
		t.Fatalf("mean position error %.1f m", e.PositionM)
	}
	if e.HeadingDeg > 5 {
		t.Fatalf("mean heading error %.1f deg", e.HeadingDeg)
	}
}

func TestVisionImprovesHeading(t *testing.T) {
	withVision := runFusion(t, 11, 1200, true)
	without := runFusion(t, 11, 1200, false)
	if withVision.HeadingDeg >= without.HeadingDeg {
		t.Fatalf("vision did not improve heading: %.2f vs %.2f deg",
			withVision.HeadingDeg, without.HeadingDeg)
	}
}

func TestFuserUpdateCounts(t *testing.T) {
	_, store := buildWorld(12)
	f := NewFuser(origin, store)
	f.OnGPS(sensor.GPSFix{Time: t0, Position: origin, AccuracyM: 5})
	gps, vision := f.UpdateCounts()
	if gps != 1 || vision != 0 {
		t.Fatalf("counts = %d, %d", gps, vision)
	}
	// Vision against an unknown POI is ignored.
	f.OnVision(t0.Add(time.Second), []sensor.LandmarkObservation{{POIID: 999999, Confidence: 1}})
	if _, vision = f.UpdateCounts(); vision != 0 {
		t.Fatal("unknown landmark produced a vision update")
	}
}

func TestRegisterMetric(t *testing.T) {
	truth := sensor.Pose{Position: origin, HeadingDeg: 90}
	est := sensor.Pose{Position: origin, HeadingDeg: 95}
	e := Register(est, truth, 60, 1200) // 20 px per degree
	if e.HeadingDeg != 5 {
		t.Fatalf("heading err = %v", e.HeadingDeg)
	}
	if e.PositionM != 0 {
		t.Fatalf("pos err = %v", e.PositionM)
	}
	if math.Abs(e.PixelErr-100) > 1 {
		t.Fatalf("pixel err = %.1f, want ~100", e.PixelErr)
	}
	// Position error adds apparent pixel error too.
	est2 := sensor.Pose{Position: geo.Destination(origin, 0, 5), HeadingDeg: 90}
	e2 := Register(est2, truth, 60, 1200)
	if e2.PixelErr <= 0 {
		t.Fatal("position error produced no pixel error")
	}
}

package sensor

import (
	"math"
	"testing"
	"time"

	"arbd/internal/geo"
	"arbd/internal/sim"
)

var (
	origin = geo.Point{Lat: 22.3364, Lon: 114.2655}
	t0     = sim.Epoch
)

func TestWalkerStaysInDisc(t *testing.T) {
	w := NewWalker(WalkerConfig{Center: origin, RadiusM: 500, Seed: 1})
	for i := 0; i < 5000; i++ {
		p := w.Step(time.Second)
		if d := geo.DistanceMeters(origin, p.Position); d > 550 { // small overshoot slack
			t.Fatalf("walker escaped: %.0f m at step %d", d, i)
		}
	}
}

func TestWalkerMovesAtConfiguredSpeed(t *testing.T) {
	w := NewWalker(WalkerConfig{Center: origin, RadiusM: 2000, SpeedMps: 2, Seed: 2})
	prev := w.Pose().Position
	var total float64
	const steps = 600
	for i := 0; i < steps; i++ {
		p := w.Step(time.Second)
		total += geo.DistanceMeters(prev, p.Position)
		prev = p.Position
	}
	perSec := total / steps
	if math.Abs(perSec-2) > 0.1 {
		t.Fatalf("speed = %.2f m/s, want 2", perSec)
	}
}

func TestWalkerHeadingContinuous(t *testing.T) {
	w := NewWalker(WalkerConfig{Center: origin, Seed: 3})
	prev := w.Pose().HeadingDeg
	for i := 0; i < 2000; i++ {
		p := w.Step(100 * time.Millisecond)
		d := math.Abs(angleDiff(p.HeadingDeg, prev))
		if d > w.turnRate*0.1+1e-9 {
			t.Fatalf("heading jumped %.1f° in 100ms at step %d", d, i)
		}
		prev = p.HeadingDeg
	}
}

func TestWalkerDeterministic(t *testing.T) {
	a := NewWalker(WalkerConfig{Center: origin, Seed: 4})
	b := NewWalker(WalkerConfig{Center: origin, Seed: 4})
	for i := 0; i < 100; i++ {
		if a.Step(time.Second) != b.Step(time.Second) {
			t.Fatalf("walkers diverged at step %d", i)
		}
	}
}

func TestAngleDiff(t *testing.T) {
	cases := []struct{ b, a, want float64 }{
		{90, 0, 90},
		{0, 90, -90},
		{350, 10, -20},
		{10, 350, 20},
		{180, 0, 180},
	}
	for _, c := range cases {
		if got := angleDiff(c.b, c.a); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("angleDiff(%v,%v) = %v, want %v", c.b, c.a, got, c.want)
		}
	}
}

func TestGPSNoiseMagnitude(t *testing.T) {
	g := NewGPS(5, 5)
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		fix := g.Fix(t0, origin)
		sum += geo.DistanceMeters(origin, fix.Position)
		if fix.AccuracyM != 5 {
			t.Fatalf("accuracy = %v", fix.AccuracyM)
		}
	}
	mean := sum / n
	// Mean error should be a few meters for sigma=5 with bias up to 10.
	if mean < 1 || mean > 15 {
		t.Fatalf("mean GPS error = %.1f m, want 1..15", mean)
	}
}

func TestIMUTracksTurnRate(t *testing.T) {
	m := NewIMU(6)
	pose := Pose{HeadingDeg: 0}
	m.Sample(t0, pose, 0)
	var sum float64
	const n = 500
	for i := 1; i <= n; i++ {
		pose.HeadingDeg = math.Mod(pose.HeadingDeg+9, 360) // 9 deg per 100ms = 90 deg/s
		s := m.Sample(t0.Add(time.Duration(i)*100*time.Millisecond), pose, 100*time.Millisecond)
		sum += s.GyroZRad
	}
	meanRate := sum / n * 180 / math.Pi
	if math.Abs(meanRate-90) > 6 {
		t.Fatalf("mean gyro rate = %.1f deg/s, want ~90", meanRate)
	}
}

func TestIMUCompassUnbiasedOnAverage(t *testing.T) {
	m := NewIMU(7)
	var sum float64
	const n = 2000
	for i := 0; i < n; i++ {
		s := m.Sample(t0, Pose{HeadingDeg: 90}, time.Second)
		sum += angleDiff(s.CompassDeg, 90)
	}
	if mean := sum / n; math.Abs(mean) > 1 {
		t.Fatalf("compass bias = %.2f deg", mean)
	}
}

func visiblePOI(id uint64, from Pose, bearing, dist, height float64) geo.POI {
	return geo.POI{
		ID:           id,
		Location:     geo.Destination(from.Position, bearing, dist),
		HeightMeters: height,
	}
}

func TestCameraFOVAndRange(t *testing.T) {
	cam := NewCamera(CameraConfig{Seed: 8, FOVDeg: 60, RangeM: 100, AngleSigma: 0.1})
	pose := Pose{Position: origin, HeadingDeg: 0, AltitudeM: 1.6}
	pois := []geo.POI{
		visiblePOI(1, pose, 0, 50, 10),   // dead ahead: visible
		visiblePOI(2, pose, 90, 50, 10),  // off to the right: outside FOV
		visiblePOI(3, pose, 0, 500, 10),  // ahead but too far
		visiblePOI(4, pose, -20, 30, 10), // in FOV
		visiblePOI(5, pose, 180, 20, 10), // behind
	}
	seen := map[uint64]int{}
	for i := 0; i < 200; i++ {
		for _, o := range cam.Observe(t0, pose, pois) {
			seen[o.POIID]++
		}
	}
	if seen[2] > 0 || seen[3] > 0 || seen[5] > 0 {
		t.Fatalf("observed out-of-view landmarks: %v", seen)
	}
	if seen[1] == 0 || seen[4] == 0 {
		t.Fatalf("in-view landmarks never observed: %v", seen)
	}
}

func TestCameraBearingAccuracy(t *testing.T) {
	cam := NewCamera(CameraConfig{Seed: 9, FOVDeg: 90, RangeM: 200, AngleSigma: 0.5})
	pose := Pose{Position: origin, HeadingDeg: 45, AltitudeM: 1.6}
	poi := visiblePOI(7, pose, 65, 40, 10) // 20 deg right of axis
	var sum float64
	n := 0
	for i := 0; i < 500; i++ {
		for _, o := range cam.Observe(t0, pose, []geo.POI{poi}) {
			sum += o.RelBearing
			n++
		}
	}
	if n == 0 {
		t.Fatal("landmark never recognised")
	}
	if mean := sum / float64(n); math.Abs(mean-20) > 0.5 {
		t.Fatalf("mean rel bearing = %.2f, want 20", mean)
	}
}

func TestCameraRecognitionDecaysWithDistance(t *testing.T) {
	cam := NewCamera(CameraConfig{Seed: 10, FOVDeg: 90, RangeM: 150})
	pose := Pose{Position: origin, HeadingDeg: 0, AltitudeM: 1.6}
	near := visiblePOI(1, pose, 0, 20, 10)
	far := visiblePOI(2, pose, 5, 140, 10)
	hits := map[uint64]int{}
	for i := 0; i < 1000; i++ {
		for _, o := range cam.Observe(t0, pose, []geo.POI{near, far}) {
			hits[o.POIID]++
		}
	}
	if hits[1] <= hits[2] {
		t.Fatalf("near (%d) not recognised more than far (%d)", hits[1], hits[2])
	}
}

func TestGazeFixatesAndDwells(t *testing.T) {
	g := NewGaze(11)
	targets := []uint64{101, 102, 103}
	counts := map[uint64]int{}
	var maxDwell float64
	for i := 0; i < 2000; i++ {
		s := g.Sample(t0.Add(time.Duration(i)*100*time.Millisecond), 100*time.Millisecond, targets)
		if s.TargetID == 0 {
			t.Fatal("no fixation despite targets")
		}
		counts[s.TargetID]++
		if s.DwellMS > maxDwell {
			maxDwell = s.DwellMS
		}
	}
	// Salience bias: first target should collect the most fixations.
	if counts[101] <= counts[103] {
		t.Fatalf("salience bias missing: %v", counts)
	}
	if maxDwell < 200 {
		t.Fatalf("max dwell %.0f ms; fixations never persist", maxDwell)
	}
	// No targets clears fixation.
	if s := g.Sample(t0, 100*time.Millisecond, nil); s.TargetID != 0 {
		t.Fatal("fixation persists without targets")
	}
}

func TestVitalsBaselineAndEpisode(t *testing.T) {
	v := NewVitals(12)
	var hrSum float64
	n := 0
	for i := 0; i < 300; i++ {
		for _, s := range v.Sample(t0.Add(time.Duration(i) * time.Second)) {
			if s.Anomaly {
				t.Fatal("anomaly label without episode")
			}
			if s.Kind == VitalHeartRate {
				hrSum += s.Value
				n++
			}
		}
	}
	base := hrSum / float64(n)
	if base < 50 || base > 130 {
		t.Fatalf("baseline HR = %.0f", base)
	}
	// Start an episode: HR must jump and labels flip.
	epStart := t0.Add(400 * time.Second)
	v.StartEpisode(epStart, time.Minute)
	var epHR float64
	epN := 0
	for i := 0; i < 30; i++ {
		for _, s := range v.Sample(epStart.Add(time.Duration(i) * time.Second)) {
			if !s.Anomaly {
				t.Fatal("episode sample not labelled")
			}
			if s.Kind == VitalHeartRate {
				epHR += s.Value
				epN++
			}
		}
	}
	if epHR/float64(epN) < base+35 {
		t.Fatalf("episode HR %.0f not elevated over base %.0f", epHR/float64(epN), base)
	}
	// After the episode the label clears.
	after := epStart.Add(2 * time.Minute)
	for _, s := range v.Sample(after) {
		if s.Anomaly {
			t.Fatal("anomaly label after episode end")
		}
	}
}

func TestVitalKindStrings(t *testing.T) {
	for _, k := range []VitalKind{VitalHeartRate, VitalSpO2, VitalSystolicBP} {
		if k.String() == "" || k.String() == "vital(?)" {
			t.Errorf("kind %d unnamed", k)
		}
	}
}

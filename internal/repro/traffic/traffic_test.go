package traffic

import (
	"math"
	"testing"
	"time"

	"arbd/internal/sim"
)

var t0 = sim.Epoch

func TestVehiclesStayOnStreets(t *testing.T) {
	s := NewSim(Config{Seed: 1, GridN: 5, BlockM: 100, NumVehicles: 30}, t0)
	for step := 0; step < 500; step++ {
		s.Step(200 * time.Millisecond)
		for _, v := range s.Vehicles() {
			onAvenue := math.Abs(math.Mod(v.Pos.X+50, 100)-50) < 1
			onStreet := math.Abs(math.Mod(v.Pos.Y+50, 100)-50) < 1
			if !onAvenue && !onStreet {
				t.Fatalf("vehicle %d off-street at (%.1f, %.1f), step %d", v.ID, v.Pos.X, v.Pos.Y, step)
			}
			if v.Pos.X < -1 || v.Pos.X > 401 || v.Pos.Y < -1 || v.Pos.Y > 401 {
				t.Fatalf("vehicle %d out of bounds at (%.1f, %.1f)", v.ID, v.Pos.X, v.Pos.Y)
			}
		}
	}
}

func TestVehiclesMove(t *testing.T) {
	s := NewSim(Config{Seed: 2, NumVehicles: 10}, t0)
	before := s.Vehicles()
	s.Step(2 * time.Second)
	after := s.Vehicles()
	moved := 0
	for i := range before {
		if math.Hypot(after[i].Pos.X-before[i].Pos.X, after[i].Pos.Y-before[i].Pos.Y) > 5 {
			moved++
		}
	}
	if moved < len(before)/2 {
		t.Fatalf("only %d/%d vehicles moved", moved, len(before))
	}
	if !s.now.Equal(t0.Add(2 * time.Second)) {
		t.Fatalf("sim time = %v", s.now)
	}
}

func TestPenetrationControlsEquipment(t *testing.T) {
	s := NewSim(Config{Seed: 3, NumVehicles: 200, Penetration: 0.5}, t0)
	equipped := 0
	for _, v := range s.Vehicles() {
		if v.Equipped {
			equipped++
		}
	}
	if equipped < 70 || equipped > 130 {
		t.Fatalf("equipped = %d/200 at 50%% penetration", equipped)
	}
}

func TestLineOfSight(t *testing.T) {
	s := NewSim(Config{Seed: 4, GridN: 5, BlockM: 100, NumVehicles: 1}, t0)
	// Same avenue (x = 100): LOS.
	if !s.LineOfSight(Vec{X: 100, Y: 10}, Vec{X: 100, Y: 350}) {
		t.Fatal("same avenue blocked")
	}
	// Same street (y = 200): LOS.
	if !s.LineOfSight(Vec{X: 20, Y: 200}, Vec{X: 380, Y: 200}) {
		t.Fatal("same street blocked")
	}
	// Different corridors: building in between.
	if s.LineOfSight(Vec{X: 100, Y: 50}, Vec{X: 200, Y: 150}) {
		t.Fatal("diagonal through block has LOS")
	}
}

func TestReceivedBeaconsRangeAndLOS(t *testing.T) {
	s := NewSim(Config{Seed: 5, GridN: 5, BlockM: 100, NumVehicles: 2, Penetration: 1}, t0)
	// Force two vehicles onto perpendicular streets near the same corner.
	s.vehicles[0].Pos = Vec{X: 100, Y: 50}
	s.vehicles[1].Pos = Vec{X: 150, Y: 100}
	los := s.ReceivedBeacons(300, false)
	if len(los[1]) != 0 || len(los[2]) != 0 {
		t.Fatalf("occluded vehicles heard each other: %v", los)
	}
	shared := s.ReceivedBeacons(300, true)
	if len(shared[1]) != 1 || len(shared[2]) != 1 {
		t.Fatalf("cloud sharing failed: %v", shared)
	}
	// Out of range even with sharing.
	s.vehicles[1].Pos = Vec{X: 100, Y: 400}
	far := s.ReceivedBeacons(200, true)
	if len(far[1]) != 0 {
		t.Fatalf("beacon beyond radio range received: %v", far)
	}
}

func TestUnequippedVehiclesSilent(t *testing.T) {
	s := NewSim(Config{Seed: 6, NumVehicles: 2, Penetration: 1}, t0)
	s.vehicles[0].Equipped = false
	s.vehicles[0].Pos = Vec{X: 0, Y: 0}
	s.vehicles[1].Pos = Vec{X: 0, Y: 50}
	rx := s.ReceivedBeacons(500, true)
	if len(rx[2]) != 0 {
		t.Fatal("unequipped vehicle transmitted")
	}
	if _, ok := rx[1]; ok {
		t.Fatal("unequipped vehicle received")
	}
}

func TestPredictConflictHeadOn(t *testing.T) {
	a := Vehicle{ID: 1, Pos: Vec{X: 0, Y: 0}, Heading: 0, SpeedMps: 10}     // north
	b := Vehicle{ID: 2, Pos: Vec{X: 0, Y: 200}, Heading: 180, SpeedMps: 10} // south, head-on
	c, ok := PredictConflict(a, b, 30*time.Second, 10)
	if !ok {
		t.Fatal("head-on collision not predicted")
	}
	// Closing at 20 m/s over 200 m: TTC = 10 s.
	if c.TTC < 9*time.Second || c.TTC > 11*time.Second {
		t.Fatalf("TTC = %v, want ~10s", c.TTC)
	}
	if c.MinSep > 1 {
		t.Fatalf("minSep = %.2f", c.MinSep)
	}
}

func TestPredictConflictCrossing(t *testing.T) {
	// Both arrive at the intersection (100, 100) at t=10s.
	a := Vehicle{ID: 1, Pos: Vec{X: 100, Y: 0}, Heading: 0, SpeedMps: 10}  // north
	b := Vehicle{ID: 2, Pos: Vec{X: 0, Y: 100}, Heading: 90, SpeedMps: 10} // east
	if _, ok := PredictConflict(a, b, 30*time.Second, 10); !ok {
		t.Fatal("crossing conflict not predicted")
	}
	// Offset arrival by 8s: no conflict at 10 m separation threshold.
	b.Pos.X = -80
	if _, ok := PredictConflict(a, b, 30*time.Second, 10); ok {
		t.Fatal("well-separated crossing flagged")
	}
}

func TestPredictConflictDiverging(t *testing.T) {
	a := Vehicle{ID: 1, Pos: Vec{X: 0, Y: 0}, Heading: 0, SpeedMps: 10}
	b := Vehicle{ID: 2, Pos: Vec{X: 0, Y: -50}, Heading: 180, SpeedMps: 10} // moving away
	if _, ok := PredictConflict(a, b, 30*time.Second, 10); ok {
		t.Fatal("diverging vehicles flagged")
	}
}

func TestPredictConflictHorizonBound(t *testing.T) {
	a := Vehicle{ID: 1, Pos: Vec{X: 0, Y: 0}, Heading: 0, SpeedMps: 1}
	b := Vehicle{ID: 2, Pos: Vec{X: 0, Y: 1000}, Heading: 180, SpeedMps: 1}
	// Collision at t=500s, beyond a 10s horizon: separation at horizon is
	// still huge, so no warning.
	if _, ok := PredictConflict(a, b, 10*time.Second, 10); ok {
		t.Fatal("conflict beyond horizon flagged")
	}
}

func TestWarningsSortedByTTC(t *testing.T) {
	self := Vehicle{ID: 1, Pos: Vec{X: 0, Y: 0}, Heading: 0, SpeedMps: 10}
	beacons := []Beacon{
		{From: 2, Pos: Vec{X: 0, Y: 400}, Heading: 180, SpeedMps: 10}, // TTC 20s
		{From: 3, Pos: Vec{X: 0, Y: 100}, Heading: 180, SpeedMps: 10}, // TTC 5s
	}
	ws := WarningsFromBeacons(self, beacons, 60*time.Second, 10)
	if len(ws) != 2 || ws[0].B != 3 {
		t.Fatalf("warnings = %v", ws)
	}
}

func TestSharingImprovesDetection(t *testing.T) {
	// Averaged over steps, cloud-shared beacons must detect at least as many
	// oracle conflicts as LOS-only, and strictly more somewhere.
	s := NewSim(Config{Seed: 8, GridN: 6, BlockM: 120, NumVehicles: 60, Penetration: 1}, t0)
	var losSum, sharedSum, truthSum int
	for step := 0; step < 120; step++ {
		s.Step(500 * time.Millisecond)
		los := s.MeasureDetection(250, false, 8*time.Second, 12)
		shared := s.MeasureDetection(250, true, 8*time.Second, 12)
		losSum += los.DetectedPairs
		sharedSum += shared.DetectedPairs
		truthSum += shared.TruthPairs
	}
	if truthSum == 0 {
		t.Fatal("no ground-truth conflicts generated")
	}
	if sharedSum < losSum {
		t.Fatalf("sharing detected %d < LOS %d", sharedSum, losSum)
	}
	if sharedSum == losSum {
		t.Fatalf("sharing never beat LOS (%d each over %d truths)", sharedSum, truthSum)
	}
}

func TestPenetrationReducesDetection(t *testing.T) {
	full := NewSim(Config{Seed: 9, NumVehicles: 60, Penetration: 1}, t0)
	sparse := NewSim(Config{Seed: 9, NumVehicles: 60, Penetration: 0.3}, t0)
	var fullDet, sparseDet float64
	var fullTruth, sparseTruth float64
	for step := 0; step < 100; step++ {
		full.Step(500 * time.Millisecond)
		sparse.Step(500 * time.Millisecond)
		fd := full.MeasureDetection(250, true, 8*time.Second, 12)
		sd := sparse.MeasureDetection(250, true, 8*time.Second, 12)
		fullDet += float64(fd.DetectedPairs)
		fullTruth += float64(fd.TruthPairs)
		sparseDet += float64(sd.DetectedPairs)
		sparseTruth += float64(sd.TruthPairs)
	}
	if fullTruth == 0 || sparseTruth == 0 {
		t.Fatal("no conflicts")
	}
	fullRecall := fullDet / fullTruth
	sparseRecall := sparseDet / sparseTruth
	if sparseRecall >= fullRecall {
		t.Fatalf("30%% penetration recall %.2f not below 100%% recall %.2f", sparseRecall, fullRecall)
	}
}

func TestSimDeterministic(t *testing.T) {
	a := NewSim(Config{Seed: 10, NumVehicles: 20}, t0)
	b := NewSim(Config{Seed: 10, NumVehicles: 20}, t0)
	for i := 0; i < 50; i++ {
		a.Step(time.Second)
		b.Step(time.Second)
	}
	va, vb := a.Vehicles(), b.Vehicles()
	for i := range va {
		if va[i] != vb[i] {
			t.Fatalf("sims diverged at vehicle %d", i)
		}
	}
}

func TestJitterBounds(t *testing.T) {
	r := sim.NewRand(8)
	for i := 0; i < 1000; i++ {
		v := jitter(r, 100, 0.1)
		if v < 90 || v > 110 {
			t.Fatalf("Jitter out of bounds: %v", v)
		}
	}
	if got := jitter(r, 100, 0); got != 100 {
		t.Fatalf("Jitter with f=0 changed value: %v", got)
	}
}

package privacy

import (
	"errors"
	"math"
	"testing"

	"arbd/internal/geo"
	"arbd/internal/sim"
)

var home = geo.Point{Lat: 22.3364, Lon: 114.2655}

func TestLaplaceUnbiasedAndScales(t *testing.T) {
	rng := sim.NewRand(1)
	const n = 30000
	for _, eps := range []float64{0.5, 2} {
		var sum, sumAbs float64
		for i := 0; i < n; i++ {
			v, err := Laplace(rng, 100, 1, eps)
			if err != nil {
				t.Fatal(err)
			}
			sum += v - 100
			sumAbs += math.Abs(v - 100)
		}
		mean := sum / n
		meanAbs := sumAbs / n
		if math.Abs(mean) > 0.1/eps {
			t.Fatalf("eps=%v: bias %.4f", eps, mean)
		}
		// E|Lap(b)| = b = 1/eps.
		if math.Abs(meanAbs-1/eps) > 0.1/eps {
			t.Fatalf("eps=%v: mean abs dev %.4f, want %.4f", eps, meanAbs, 1/eps)
		}
	}
}

func TestLaplaceMoreEpsilonLessNoise(t *testing.T) {
	rng := sim.NewRand(2)
	noise := func(eps float64) float64 {
		var sumAbs float64
		for i := 0; i < 5000; i++ {
			v, _ := Laplace(rng, 0, 1, eps)
			sumAbs += math.Abs(v)
		}
		return sumAbs / 5000
	}
	if noise(0.1) <= noise(1) || noise(1) <= noise(10) {
		t.Fatal("noise not decreasing in epsilon")
	}
}

func TestLaplaceRejectsBadEpsilon(t *testing.T) {
	rng := sim.NewRand(3)
	if _, err := Laplace(rng, 1, 1, 0); !errors.Is(err, ErrBadEpsilon) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Laplace(rng, 1, 1, -2); !errors.Is(err, ErrBadEpsilon) {
		t.Fatalf("err = %v", err)
	}
}

func TestPlanarLaplaceMeanDisplacement(t *testing.T) {
	rng := sim.NewRand(6)
	for _, eps := range []float64{0.005, 0.02} { // per-meter epsilons
		const n = 4000
		var sum float64
		for i := 0; i < n; i++ {
			q, err := PlanarLaplace(rng, home, eps)
			if err != nil {
				t.Fatal(err)
			}
			sum += geo.DistanceMeters(home, q)
		}
		mean := sum / n
		want := ExpectedPlanarError(eps) // 2/eps
		if math.Abs(mean-want)/want > 0.1 {
			t.Fatalf("eps=%v: mean displacement %.1f m, want %.1f m", eps, mean, want)
		}
	}
}

func TestPlanarLaplaceDirectionUniform(t *testing.T) {
	rng := sim.NewRand(7)
	quad := [4]int{}
	for i := 0; i < 4000; i++ {
		q, _ := PlanarLaplace(rng, home, 0.01)
		brg := geo.BearingDegrees(home, q)
		quad[int(brg/90)%4]++
	}
	for i, c := range quad {
		if c < 800 || c > 1200 {
			t.Fatalf("quadrant %d count %d, want ~1000", i, c)
		}
	}
}

func TestPlanarLaplaceBadEpsilon(t *testing.T) {
	if _, err := PlanarLaplace(sim.NewRand(8), home, 0); !errors.Is(err, ErrBadEpsilon) {
		t.Fatalf("err = %v", err)
	}
}

func TestExpectedPlanarError(t *testing.T) {
	if got := ExpectedPlanarError(0.01); got != 200 {
		t.Fatalf("expected error = %v", got)
	}
	if !math.IsInf(ExpectedPlanarError(0), 1) {
		t.Fatal("zero epsilon not infinite error")
	}
}

func TestSnapToGridIdempotentAndClose(t *testing.T) {
	snapped := SnapToGrid(home, 200)
	if d := geo.DistanceMeters(home, snapped); d > 200 {
		t.Fatalf("snapped %0.f m away, cell only 200 m", d)
	}
	again := SnapToGrid(snapped, 200)
	if geo.DistanceMeters(snapped, again) > 1 {
		t.Fatal("snap not idempotent")
	}
	if got := SnapToGrid(home, 0); got != home {
		t.Fatal("zero cell size changed point")
	}
}

func TestSnapToGridNeighborsShareCell(t *testing.T) {
	near := geo.Destination(home, 45, 5) // 5 m away
	if SnapToGrid(home, 500) != SnapToGrid(near, 500) {
		t.Fatal("5m-apart points in different 500m cells")
	}
}

func TestKAnonymizeGuaranteesK(t *testing.T) {
	rng := sim.NewRand(9)
	// A dense cluster downtown plus a few isolated users.
	var pts []geo.Point
	for i := 0; i < 80; i++ {
		pts = append(pts, geo.Destination(home, rng.Uniform(0, 360), rng.Float64()*100))
	}
	for i := 0; i < 5; i++ {
		pts = append(pts, geo.Destination(home, rng.Uniform(0, 360), 3000+rng.Float64()*2000))
	}
	const k = 10
	released, sizes := KAnonymize(pts, k, nil)
	if len(released) != len(pts) {
		t.Fatalf("released %d of %d", len(released), len(pts))
	}
	// Verify occupancy: every released cell at its size has >= k members or
	// used the coarsest size.
	coarsest := 3200.0
	for i := range released {
		count := 0
		for j := range pts {
			if SnapToGrid(pts[j], sizes[i]) == released[i] {
				count++
			}
		}
		if count < k && sizes[i] != coarsest {
			t.Fatalf("point %d: cell size %.0f has only %d members", i, sizes[i], count)
		}
	}
	// Dense-cluster users get finer cells than isolated users.
	if sizes[0] >= sizes[len(sizes)-1] {
		t.Fatalf("dense user cell %.0f not finer than isolated %.0f", sizes[0], sizes[len(sizes)-1])
	}
}

func TestAccountantEnforcesBudget(t *testing.T) {
	a := NewAccountant(1.0)
	if err := a.Spend("alice", 0.4); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend("alice", 0.6); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend("alice", 0.01); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("over-budget spend: %v", err)
	}
	if got := a.spent["alice"]; math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("spent = %v", got)
	}
	// Other principals unaffected.
	if err := a.Spend("bob", 0.9); err != nil {
		t.Fatal(err)
	}
	if err := a.Spend("bob", 0.09); err != nil {
		t.Fatalf("bob's remaining budget refused: %v", err)
	}
}

func TestAccountantRejectsNonPositive(t *testing.T) {
	a := NewAccountant(1)
	if err := a.Spend("x", 0); !errors.Is(err, ErrBadEpsilon) {
		t.Fatalf("err = %v", err)
	}
}

package repro

import (
	"errors"
	"math"
	"testing"

	"arbd/internal/geo"
	"arbd/internal/privacy"
	"arbd/internal/sim"
)

var home = geo.CityCenter

func TestLaplaceUnbiasedAndScales(t *testing.T) {
	rng := sim.NewRand(1)
	const n = 30000
	for _, eps := range []float64{0.5, 2} {
		var sum, sumAbs float64
		for i := 0; i < n; i++ {
			v, err := laplace(rng, 100, 1, eps)
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
			v, _ := laplace(rng, 0, 1, eps)
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
	if _, err := laplace(rng, 1, 1, 0); !errors.Is(err, privacy.ErrBadEpsilon) {
		t.Fatalf("err = %v", err)
	}
	if _, err := laplace(rng, 1, 1, -2); !errors.Is(err, privacy.ErrBadEpsilon) {
		t.Fatalf("err = %v", err)
	}
}

func TestExpectedPlanarError(t *testing.T) {
	if got := expectedPlanarError(0.01); got != 200 {
		t.Fatalf("expected error = %v", got)
	}
	if !math.IsInf(expectedPlanarError(0), 1) {
		t.Fatal("zero epsilon not infinite error")
	}
}

func TestSnapToGridIdempotentAndClose(t *testing.T) {
	snapped := snapToGrid(home, 200)
	if d := geo.DistanceMeters(home, snapped); d > 200 {
		t.Fatalf("snapped %0.f m away, cell only 200 m", d)
	}
	again := snapToGrid(snapped, 200)
	if geo.DistanceMeters(snapped, again) > 1 {
		t.Fatal("snap not idempotent")
	}
	if got := snapToGrid(home, 0); got != home {
		t.Fatal("zero cell size changed point")
	}
}

func TestSnapToGridNeighborsShareCell(t *testing.T) {
	near := geo.Destination(home, 45, 5) // 5 m away
	if snapToGrid(home, 500) != snapToGrid(near, 500) {
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
	released, sizes := kAnonymize(pts, k, nil)
	if len(released) != len(pts) {
		t.Fatalf("released %d of %d", len(released), len(pts))
	}
	// Verify occupancy: every released cell at its size has >= k members or
	// used the coarsest size.
	coarsest := 3200.0
	for i := range released {
		count := 0
		for j := range pts {
			if snapToGrid(pts[j], sizes[i]) == released[i] {
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

package privacy

import (
	"errors"
	"math"
	"testing"

	"arbd/internal/geo"
	"arbd/internal/sim"
)

var home = geo.Point{Lat: 22.3364, Lon: 114.2655}

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
		want := 2 / eps // the planar Laplace mechanism's mean displacement
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

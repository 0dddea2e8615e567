// Package privacy implements the §4.3 mechanisms: ε-differentially-private
// numeric releases (the Laplace mechanism), geo-indistinguishable
// location perturbation (planar Laplace), k-anonymous location
// generalisation, and a privacy-budget accountant that bounds cumulative
// disclosure per principal.
package privacy

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"arbd/internal/geo"
	"arbd/internal/sim"
)

// Privacy errors.
var (
	ErrBadEpsilon     = errors.New("privacy: epsilon must be positive")
	ErrBudgetExceeded = errors.New("privacy: privacy budget exhausted")
)

// Laplace releases value + Lap(sensitivity/epsilon) noise: the standard
// ε-differentially-private mechanism for numeric queries.
func Laplace(rng *sim.Rand, value, sensitivity, epsilon float64) (float64, error) {
	if epsilon <= 0 {
		return 0, ErrBadEpsilon
	}
	if sensitivity < 0 {
		sensitivity = -sensitivity
	}
	b := sensitivity / epsilon
	// Inverse CDF sampling: u uniform in (-1/2, 1/2).
	u := rng.Float64() - 0.5
	noise := -b * sign(u) * math.Log(1-2*math.Abs(u))
	return value + noise, nil
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}

// PlanarLaplace perturbs a location with ε-geo-indistinguishability
// (Andrés et al.): the reported point is the true point displaced by a
// random bearing and a radius drawn from the planar Laplace distribution
// with parameter epsilon (in 1/meters). Typical epsilons: ln(4)/200 gives
// strong privacy within 200 m.
func PlanarLaplace(rng *sim.Rand, p geo.Point, epsilon float64) (geo.Point, error) {
	if epsilon <= 0 {
		return geo.Point{}, ErrBadEpsilon
	}
	theta := rng.Uniform(0, 360)
	r := planarLaplaceRadius(rng.Float64(), epsilon)
	return geo.Destination(p, theta, r), nil
}

// planarLaplaceRadius inverts the radial CDF C(r) = 1 - (1+εr)e^{-εr} for a
// uniform sample u by bisection. The CDF is monotone, so bisection to 1e-9
// relative width is exact enough for metre-scale outputs.
func planarLaplaceRadius(u, epsilon float64) float64 {
	if u <= 0 {
		return 0
	}
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	cdf := func(r float64) float64 {
		return 1 - (1+epsilon*r)*math.Exp(-epsilon*r)
	}
	lo, hi := 0.0, 1.0/epsilon
	for cdf(hi) < u {
		hi *= 2
	}
	for i := 0; i < 100 && hi-lo > 1e-9*(1+hi); i++ {
		mid := (lo + hi) / 2
		if cdf(mid) < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// ExpectedPlanarError returns the mean displacement of the planar Laplace
// mechanism: 2/ε meters. Useful for utility accounting.
func ExpectedPlanarError(epsilon float64) float64 {
	if epsilon <= 0 {
		return math.Inf(1)
	}
	return 2 / epsilon
}

// SnapToGrid generalises a location to the centre of a square grid cell of
// the given size in meters — the building block of k-anonymous location
// release. The grid is globally fixed: latitude bands are computed first and
// the longitude cell width is derived from the band centre, so snapping is
// idempotent and nearby points produce bitwise-identical cell centres.
func SnapToGrid(p geo.Point, cellMeters float64) geo.Point {
	if cellMeters <= 0 {
		return p
	}
	latCell := cellMeters / 111_320.0 // meters per degree latitude
	latIdx := math.Floor(p.Lat / latCell)
	latCenter := latIdx*latCell + latCell/2
	lonScale := math.Cos(latCenter * math.Pi / 180)
	if lonScale < 1e-6 {
		lonScale = 1e-6
	}
	lonCell := cellMeters / (111_320.0 * lonScale)
	lonIdx := math.Floor(p.Lon / lonCell)
	return geo.Point{Lat: latCenter, Lon: lonIdx*lonCell + lonCell/2}
}

// KAnonymize generalises each point to the coarsest grid cell (from the
// candidate cell sizes, ascending) that contains at least k of the input
// points, guaranteeing each released cell covers ≥ k users. Points that
// never reach k occupancy release at the coarsest candidate size.
// It returns the released points and the per-point cell size used.
func KAnonymize(points []geo.Point, k int, cellSizesMeters []float64) ([]geo.Point, []float64) {
	if len(cellSizesMeters) == 0 {
		cellSizesMeters = []float64{50, 100, 200, 400, 800, 1600, 3200}
	}
	released := make([]geo.Point, len(points))
	sizes := make([]float64, len(points))
	// Precompute occupancy per candidate size.
	occupancy := make([]map[geo.Point]int, len(cellSizesMeters))
	for si, size := range cellSizesMeters {
		occ := make(map[geo.Point]int, len(points))
		for _, p := range points {
			occ[SnapToGrid(p, size)]++
		}
		occupancy[si] = occ
	}
	for i, p := range points {
		chosen := len(cellSizesMeters) - 1
		for si := range cellSizesMeters {
			cell := SnapToGrid(p, cellSizesMeters[si])
			if occupancy[si][cell] >= k {
				chosen = si
				break
			}
		}
		sizes[i] = cellSizesMeters[chosen]
		released[i] = SnapToGrid(p, cellSizesMeters[chosen])
	}
	return released, sizes
}

// Accountant tracks cumulative ε spent per principal and refuses queries
// beyond the budget. Safe for concurrent use.
type Accountant struct {
	mu     sync.Mutex
	budget float64
	spent  map[string]float64
}

// NewAccountant returns an accountant enforcing the given total ε budget per
// principal.
func NewAccountant(budget float64) *Accountant {
	return &Accountant{budget: budget, spent: make(map[string]float64)}
}

// Spend records epsilon against the principal, failing without recording if
// it would exceed the budget.
func (a *Accountant) Spend(principal string, epsilon float64) error {
	if epsilon <= 0 {
		return ErrBadEpsilon
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.spent[principal]+epsilon > a.budget+1e-12 {
		return fmt.Errorf("%w: %s spent %.3f of %.3f, requested %.3f",
			ErrBudgetExceeded, principal, a.spent[principal], a.budget, epsilon)
	}
	a.spent[principal] += epsilon
	return nil
}

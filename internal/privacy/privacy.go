// Package privacy implements the §4.3 mechanisms a session's location
// telemetry passes through: geo-indistinguishable location perturbation
// (planar Laplace) and a privacy-budget accountant that bounds cumulative
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

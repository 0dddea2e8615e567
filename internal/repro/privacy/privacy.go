// Package privacy implements the §4.3 location-privacy mechanism E10
// measures: geo-indistinguishable location perturbation (planar Laplace).
// The serving node publishes no locations, so only the reproduction uses
// it.
package privacy

import (
	"errors"
	"math"

	"arbd/internal/geo"
	"arbd/internal/sim"
)

// ErrBadEpsilon refuses an epsilon that is not positive.
var ErrBadEpsilon = errors.New("privacy: epsilon must be positive")

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

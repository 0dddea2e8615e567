// Package tracking implements AR tracking and registration: a 2D
// constant-velocity Kalman filter over GPS fixes, a heading filter fusing
// gyro integration with compass and vision landmark corrections, and
// registration-error metrics against ground truth. It substitutes for the
// vision SDKs of real AR systems while preserving their error structure:
// dead reckoning drifts, absolute fixes are noisy, and fusion beats either
// alone — which is what the paper's registration requirement rides on.
package tracking

import (
	"math"

	"arbd/internal/geo"
)

// metersPerDegLat is the local scale used for the equirectangular ENU
// projection; accurate to <0.5% over the few-km extents the platform
// simulates.
const metersPerDegLat = 111_320.0

// ENU is a local east/north coordinate in meters relative to an origin.
type ENU struct {
	E float64
	N float64
}

// ToENU projects p into meters east/north of origin.
func ToENU(origin, p geo.Point) ENU {
	return ENU{
		E: (p.Lon - origin.Lon) * metersPerDegLat * math.Cos(origin.Lat*math.Pi/180),
		N: (p.Lat - origin.Lat) * metersPerDegLat,
	}
}

// FromENU inverts ToENU.
func FromENU(origin geo.Point, e ENU) geo.Point {
	return geo.Point{
		Lat: origin.Lat + e.N/metersPerDegLat,
		Lon: origin.Lon + e.E/(metersPerDegLat*math.Cos(origin.Lat*math.Pi/180)),
	}
}

// PositionFilter is a 2D constant-velocity Kalman filter with state
// [e, n, ve, vn] and position-only measurements (GPS fixes).
type PositionFilter struct {
	x [4]float64    // state
	p [4][4]float64 // covariance
	q float64       // process noise spectral density (accel variance)
}

// NewPositionFilter returns a filter initialised at start with loose
// covariance. accelSigma is the expected acceleration magnitude (m/s²);
// pedestrians ≈ 0.5.
func NewPositionFilter(start ENU, accelSigma float64) *PositionFilter {
	if accelSigma <= 0 {
		accelSigma = 0.5
	}
	f := &PositionFilter{q: accelSigma * accelSigma}
	f.x = [4]float64{start.E, start.N, 0, 0}
	// Loose on position (σ=10 m) but tight on velocity (σ=2 m/s): a huge
	// initial velocity variance lets the first innovation kick the velocity
	// estimate by tens of m/s, which then takes many updates to bleed off.
	f.p[0][0], f.p[1][1] = 100, 100
	f.p[2][2], f.p[3][3] = 4, 4
	return f
}

// Predict advances the state by dt seconds.
func (f *PositionFilter) Predict(dt float64) {
	if dt <= 0 {
		return
	}
	// x' = F x with F = [1 0 dt 0; 0 1 0 dt; 0 0 1 0; 0 0 0 1].
	f.x[0] += f.x[2] * dt
	f.x[1] += f.x[3] * dt
	// P' = F P Fᵀ + Q (discretised white-accel model).
	var fp [4][4]float64
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			v := f.p[r][c]
			if r < 2 {
				v += dt * f.p[r+2][c]
			}
			fp[r][c] = v
		}
	}
	var fpf [4][4]float64
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			v := fp[r][c]
			if c < 2 {
				v += dt * fp[r][c+2]
			}
			fpf[r][c] = v
		}
	}
	dt2, dt3, dt4 := dt*dt, dt*dt*dt, dt*dt*dt*dt
	for d := 0; d < 2; d++ {
		fpf[d][d] += f.q * dt4 / 4
		fpf[d][d+2] += f.q * dt3 / 2
		fpf[d+2][d] += f.q * dt3 / 2
		fpf[d+2][d+2] += f.q * dt2
	}
	f.p = fpf
}

// UpdatePosition folds in a position measurement with the given 1-sigma
// noise in meters.
func (f *PositionFilter) UpdatePosition(z ENU, sigmaM float64) {
	if sigmaM <= 0 {
		sigmaM = 1
	}
	r := sigmaM * sigmaM
	// The E and N axes are decoupled under H = [I2 0], so update per axis.
	for d := 0; d < 2; d++ {
		zi := z.E
		if d == 1 {
			zi = z.N
		}
		s := f.p[d][d] + r
		kPos := f.p[d][d] / s
		kVel := f.p[d+2][d] / s
		innov := zi - f.x[d]
		f.x[d] += kPos * innov
		f.x[d+2] += kVel * innov
		// Joseph-free covariance update on the (pos, vel) pair.
		pPP, pPV, pVV := f.p[d][d], f.p[d][d+2], f.p[d+2][d+2]
		f.p[d][d] = (1 - kPos) * pPP
		f.p[d][d+2] = (1 - kPos) * pPV
		f.p[d+2][d] = f.p[d][d+2]
		f.p[d+2][d+2] = pVV - kVel*pPV
	}
}

// State returns the current position estimate.
func (f *PositionFilter) State() ENU { return ENU{E: f.x[0], N: f.x[1]} }

// Uncertainty returns the 1-sigma position uncertainty (circular
// approximation).
func (f *PositionFilter) Uncertainty() float64 {
	return math.Sqrt((f.p[0][0] + f.p[1][1]) / 2)
}

// HeadingFilter is a scalar Kalman filter over heading (degrees) that
// integrates gyro rate in Predict and corrects with absolute bearings
// (compass, vision landmarks) in Update, handling angle wrap-around.
type HeadingFilter struct {
	deg float64
	v   float64 // variance, deg²
	q   float64 // process noise per second, deg²/s
}

// NewHeadingFilter returns a filter initialised to start with high
// uncertainty.
func NewHeadingFilter(startDeg float64) *HeadingFilter {
	return &HeadingFilter{deg: norm360(startDeg), v: 180, q: 4}
}

// Predict integrates a gyro rate (rad/s) over dt seconds.
func (h *HeadingFilter) Predict(gyroZRad, dt float64) {
	if dt <= 0 {
		return
	}
	h.deg = norm360(h.deg + gyroZRad*180/math.Pi*dt)
	h.v += h.q * dt
}

// Update folds in an absolute heading measurement with 1-sigma noise in
// degrees.
func (h *HeadingFilter) Update(measuredDeg, sigmaDeg float64) {
	if sigmaDeg <= 0 {
		sigmaDeg = 1
	}
	r := sigmaDeg * sigmaDeg
	k := h.v / (h.v + r)
	h.deg = norm360(h.deg + k*wrap180(measuredDeg-h.deg))
	h.v *= 1 - k
}

// Heading returns the current estimate in [0, 360).
func (h *HeadingFilter) Heading() float64 { return h.deg }

// sigma returns the 1-sigma heading uncertainty in degrees.
func (h *HeadingFilter) sigma() float64 { return math.Sqrt(h.v) }

func norm360(d float64) float64 {
	d = math.Mod(d, 360)
	if d < 0 {
		d += 360
	}
	return d
}

func wrap180(d float64) float64 {
	d = math.Mod(d+540, 360) - 180
	if d == -180 {
		return 180
	}
	return d
}

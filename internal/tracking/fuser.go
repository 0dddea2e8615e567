package tracking

import (
	"math"
	"time"

	"arbd/internal/geo"
	"arbd/internal/sensor"
)

// Fuser combines GPS, IMU, and camera landmark observations into a 6-DoF-ish
// pose estimate (position + heading; pitch and altitude pass through). It is
// the registration core of the AR pipeline: §1's "registered in 3-D"
// requirement.
type Fuser struct {
	origin geo.Point
	pos    *PositionFilter
	hdg    *HeadingFilter
	pois   *geo.Store
	last   time.Time
	has    bool

	visionUpdates int
	gpsUpdates    int
}

// NewFuser returns a fuser anchored at origin (used as the local projection
// origin) with landmark positions resolved from the POI store. A nil store
// disables vision corrections.
func NewFuser(origin geo.Point, pois *geo.Store) *Fuser {
	return &Fuser{
		origin: origin,
		pos:    NewPositionFilter(ENU{}, 0.5),
		hdg:    NewHeadingFilter(0),
		pois:   pois,
	}
}

// advance runs the prediction step up to now using the given gyro rate.
func (f *Fuser) advance(now time.Time, gyroZRad float64) {
	if !f.has {
		f.last = now
		f.has = true
		return
	}
	dt := now.Sub(f.last).Seconds()
	if dt > 0 {
		f.pos.Predict(dt)
		f.hdg.Predict(gyroZRad, dt)
		f.last = now
	}
}

// OnIMU integrates an inertial sample: gyro drives heading prediction and
// the compass provides a weak absolute correction.
func (f *Fuser) OnIMU(s sensor.IMUSample) {
	f.advance(s.Time, s.GyroZRad)
	f.hdg.Update(s.CompassDeg, 12) // compass is weak: wide sigma
}

// OnGPS folds in a position fix.
func (f *Fuser) OnGPS(fix sensor.GPSFix) {
	f.advance(fix.Time, 0)
	f.pos.UpdatePosition(ToENU(f.origin, fix.Position), fix.AccuracyM)
	f.gpsUpdates++
}

// OnVision corrects heading (and weakly position) from recognised
// landmarks: the absolute bearing to a known POI is the estimated heading
// plus the observed relative bearing; the residual against the bearing
// predicted from the estimated position updates the heading filter with
// vision-grade (sub-degree) noise.
func (f *Fuser) OnVision(now time.Time, obs []sensor.LandmarkObservation) {
	if f.pois == nil || len(obs) == 0 {
		return
	}
	f.advance(now, 0)
	est := FromENU(f.origin, f.pos.State())
	// Position error corrupts the bearing the heading correction is derived
	// from: a landmark at distance d seen from a position posErr off appears
	// up to atan(posErr/d) away from its predicted bearing. Fold that into
	// the measurement noise, floored at 3 m because the filter's own
	// uncertainty underestimates correlated GPS bias.
	posM := math.Max(f.pos.Uncertainty(), 3)
	for _, o := range obs {
		poi, err := f.pois.Get(o.POIID)
		if err != nil {
			continue
		}
		dist := geo.DistanceMeters(est, poi.Location)
		if dist < 1 {
			continue
		}
		expected := geo.BearingDegrees(est, poi.Location)
		measuredHeading := norm360(expected - o.RelBearing)
		visSigma := 0.8 / math.Max(o.Confidence, 0.1)
		posSigma := math.Atan2(posM, dist) * 180 / math.Pi
		sigma := math.Sqrt(visSigma*visSigma + posSigma*posSigma)
		f.hdg.Update(measuredHeading, sigma)
		f.visionUpdates++
	}
}

// Pose returns the fused pose estimate.
func (f *Fuser) Pose() sensor.Pose {
	return sensor.Pose{
		Position:   FromENU(f.origin, f.pos.State()),
		HeadingDeg: f.hdg.Heading(),
		AltitudeM:  1.6,
	}
}

// FuserState is a fuser's complete mutable state, exportable so a session
// migrating between nodes carries its registration solution instead of
// re-converging from scratch. Positions are ENU meters relative to the
// fuser's origin: restore is only meaningful on a fuser anchored at the
// same origin (shards of one deployment share the world config).
type FuserState struct {
	// X and P are the position filter's state vector [e, n, ve, vn] and
	// covariance.
	X [4]float64
	P [4][4]float64
	// HeadingDeg and HeadingVar are the heading filter's estimate and
	// variance.
	HeadingDeg float64
	HeadingVar float64
	// LastNanos is the prediction clock (unix nanos); Has reports whether
	// any sample has initialised it.
	LastNanos int64
	Has       bool
	// GPSUpdates and VisionUpdates carry the correction counters.
	GPSUpdates    int
	VisionUpdates int
}

// ExportState snapshots the fuser's mutable state.
func (f *Fuser) ExportState() FuserState {
	return FuserState{
		X:             f.pos.x,
		P:             f.pos.p,
		HeadingDeg:    f.hdg.deg,
		HeadingVar:    f.hdg.v,
		LastNanos:     f.last.UnixNano(),
		Has:           f.has,
		GPSUpdates:    f.gpsUpdates,
		VisionUpdates: f.visionUpdates,
	}
}

// RestoreState overwrites the fuser's mutable state with an exported
// snapshot. Filter tuning (process noise) is construction-time config and
// is kept, not restored.
func (f *Fuser) RestoreState(st FuserState) {
	f.pos.x = st.X
	f.pos.p = st.P
	f.hdg.deg = st.HeadingDeg
	f.hdg.v = st.HeadingVar
	f.last = time.Unix(0, st.LastNanos)
	f.has = st.Has
	f.gpsUpdates = st.GPSUpdates
	f.visionUpdates = st.VisionUpdates
}

// RegError quantifies registration quality of an estimated pose against
// ground truth.
type RegError struct {
	PositionM  float64 // horizontal position error
	HeadingDeg float64 // absolute heading error
	PixelErr   float64 // approximate on-screen displacement of a centred overlay
}

// Register compares est to truth for a camera with the given horizontal FOV
// rendering to a screen screenWpx wide. The pixel error approximates how far
// a virtual object anchored at the optical axis would be drawn from its real
// counterpart.
func Register(est, truth sensor.Pose, fovDeg float64, screenWpx int) RegError {
	posErr := geo.DistanceMeters(est.Position, truth.Position)
	hdgErr := math.Abs(wrap180(est.HeadingDeg - truth.HeadingDeg))
	pxPerDeg := float64(screenWpx) / fovDeg
	// A position error shifts apparent bearings of near content; approximate
	// with content at 20 m.
	const contentDistM = 20
	posAsDeg := math.Atan2(posErr, contentDistM) * 180 / math.Pi
	return RegError{
		PositionM:  posErr,
		HeadingDeg: hdgErr,
		PixelErr:   (hdgErr + posAsDeg) * pxPerDeg,
	}
}

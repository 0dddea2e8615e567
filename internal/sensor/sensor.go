// Package sensor simulates the mobile/wearable device side of the platform:
// pedestrian motion, GPS fixes, inertial samples, camera landmark
// observations, eye gaze, health vitals, and battery state. Real AR hardware
// is a repro gate; these simulators emit the same event streams
// with controllable noise AND expose ground truth, which lets experiments
// measure registration and alerting accuracy that physical devices cannot
// provide offline.
package sensor

import (
	"math"
	"time"

	"arbd/internal/geo"
	"arbd/internal/sim"
)

// Pose is the device's position and orientation.
type Pose struct {
	Position   geo.Point
	HeadingDeg float64 // compass heading of the camera's optical axis
	PitchDeg   float64 // up/down tilt
	AltitudeM  float64 // height above ground (eye level)
}

// GPSFix is one positioning sample.
type GPSFix struct {
	Time      time.Time
	Position  geo.Point
	AccuracyM float64 // reported 1-sigma horizontal accuracy
}

// IMUSample is one inertial sample.
type IMUSample struct {
	Time       time.Time
	GyroZRad   float64 // yaw rate, rad/s (positive = clockwise)
	AccelMps2  float64 // forward acceleration
	CompassDeg float64 // magnetometer heading (noisy, biased)
}

// Walker is a random-waypoint pedestrian ground-truth model: it walks toward
// a target inside a disc, picks a new target on arrival, and turns with
// bounded angular rate so headings are smooth like a human's.
type Walker struct {
	rng      *sim.Rand
	center   geo.Point
	radiusM  float64
	speedMps float64
	turnRate float64 // max deg/s

	pos     geo.Point
	heading float64
	target  geo.Point
}

// WalkerConfig parameterises a Walker.
type WalkerConfig struct {
	Center   geo.Point
	RadiusM  float64 // roaming disc radius (default 1000)
	SpeedMps float64 // walking speed (default 1.4, human average)
	Seed     int64
}

// NewWalker returns a walker starting at the disc centre.
func NewWalker(cfg WalkerConfig) *Walker {
	if cfg.RadiusM <= 0 {
		cfg.RadiusM = 1000
	}
	if cfg.SpeedMps <= 0 {
		cfg.SpeedMps = 1.4
	}
	w := &Walker{
		rng:      sim.NewRand(cfg.Seed).Child("walker"),
		center:   cfg.Center,
		radiusM:  cfg.RadiusM,
		speedMps: cfg.SpeedMps,
		turnRate: 60,
		pos:      cfg.Center,
	}
	w.pickTarget()
	w.heading = geo.BearingDegrees(w.pos, w.target)
	return w
}

func (w *Walker) pickTarget() {
	w.target = geo.Destination(w.center, w.rng.Uniform(0, 360), w.radiusM*math.Sqrt(w.rng.Float64()))
}

// Step advances the walker by dt and returns the new ground-truth pose.
func (w *Walker) Step(dt time.Duration) Pose {
	secs := dt.Seconds()
	if secs <= 0 {
		return w.Pose()
	}
	if geo.DistanceMeters(w.pos, w.target) < w.speedMps*secs*2 {
		w.pickTarget()
	}
	want := geo.BearingDegrees(w.pos, w.target)
	diff := angleDiff(want, w.heading)
	maxTurn := w.turnRate * secs
	if diff > maxTurn {
		diff = maxTurn
	}
	if diff < -maxTurn {
		diff = -maxTurn
	}
	w.heading = math.Mod(w.heading+diff+360, 360)
	w.pos = geo.Destination(w.pos, w.heading, w.speedMps*secs)
	return w.Pose()
}

// Pose returns the current ground-truth pose.
func (w *Walker) Pose() Pose {
	return Pose{Position: w.pos, HeadingDeg: w.heading, AltitudeM: 1.6}
}

// angleDiff returns the signed smallest rotation from a to b in degrees,
// in (-180, 180].
func angleDiff(b, a float64) float64 {
	d := math.Mod(b-a+540, 360) - 180
	if d == -180 {
		return 180
	}
	return d
}

// GPS produces fixes from ground truth with gaussian horizontal error and a
// slowly wandering bias (multipath), the dominant urban GPS error mode.
type GPS struct {
	rng     *sim.Rand
	sigmaM  float64
	biasM   float64
	biasDir float64
}

// NewGPS returns a GPS with the given 1-sigma noise in meters.
func NewGPS(seed int64, sigmaM float64) *GPS {
	if sigmaM <= 0 {
		sigmaM = 5
	}
	r := sim.NewRand(seed).Child("gps")
	return &GPS{rng: r, sigmaM: sigmaM, biasDir: r.Uniform(0, 360)}
}

// Fix samples a fix for the true position at now.
func (g *GPS) Fix(now time.Time, truth geo.Point) GPSFix {
	// Bias random-walks up to ~2 sigma.
	g.biasM = sim.Clamp(g.biasM+g.rng.Norm(0, g.sigmaM/10), 0, 2*g.sigmaM)
	g.biasDir += g.rng.Norm(0, 5)
	p := geo.Destination(truth, g.biasDir, g.biasM)
	p = geo.Destination(p, g.rng.Uniform(0, 360), math.Abs(g.rng.Norm(0, g.sigmaM)))
	return GPSFix{Time: now, Position: p, AccuracyM: g.sigmaM}
}

// IMU produces inertial samples with white noise and slowly drifting gyro
// bias — the error that makes dead reckoning diverge and fusion necessary.
type IMU struct {
	rng        *sim.Rand
	gyroNoise  float64 // rad/s white noise sigma
	gyroBias   float64 // rad/s, drifts
	compassSig float64 // deg
	lastHdg    float64
	hasLast    bool
}

// NewIMU returns an IMU with typical MEMS noise characteristics.
func NewIMU(seed int64) *IMU {
	return &IMU{
		rng:        sim.NewRand(seed).Child("imu"),
		gyroNoise:  0.02,
		compassSig: 8,
	}
}

// Sample derives an inertial sample from consecutive ground-truth poses.
func (m *IMU) Sample(now time.Time, truth Pose, dt time.Duration) IMUSample {
	m.gyroBias = sim.Clamp(m.gyroBias+m.rng.Norm(0, 0.0005), -0.05, 0.05)
	var rate float64
	if m.hasLast && dt > 0 {
		rate = angleDiff(truth.HeadingDeg, m.lastHdg) * math.Pi / 180 / dt.Seconds()
	}
	m.lastHdg = truth.HeadingDeg
	m.hasLast = true
	return IMUSample{
		Time:       now,
		GyroZRad:   rate + m.gyroBias + m.rng.Norm(0, m.gyroNoise),
		AccelMps2:  m.rng.Norm(0, 0.3),
		CompassDeg: math.Mod(truth.HeadingDeg+m.rng.Norm(0, m.compassSig)+360, 360),
	}
}

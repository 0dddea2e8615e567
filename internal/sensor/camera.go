package sensor

import (
	"math"
	"time"

	"arbd/internal/geo"
	"arbd/internal/sim"
)

// LandmarkObservation is the camera simulator's output: a recognised
// landmark (a POI with a visual signature) and the bearing/elevation at
// which it appears relative to the camera axis, with pixel-level noise.
// This substitutes for running a real detector+descriptor pipeline: the
// tracking layer consumes exactly what such a pipeline would produce.
type LandmarkObservation struct {
	POIID        uint64
	RelBearing   float64 // degrees, 0 = optical axis, + = right
	RelElevation float64 // degrees above axis
	Confidence   float64 // 0..1, decays with distance
}

// Camera simulates landmark recognition: POIs inside the field of view and
// recognition range are observed with angular noise; recognition can fail
// with distance-dependent probability.
type Camera struct {
	rng        *sim.Rand
	fovDeg     float64
	rangeM     float64
	angleSigma float64
}

// CameraConfig parameterises a Camera.
type CameraConfig struct {
	Seed       int64
	FOVDeg     float64 // horizontal field of view (default 60)
	RangeM     float64 // max recognition distance (default 150)
	AngleSigma float64 // angular observation noise, degrees (default 0.5)
}

// NewCamera returns a camera simulator.
func NewCamera(cfg CameraConfig) *Camera {
	if cfg.FOVDeg <= 0 {
		cfg.FOVDeg = 60
	}
	if cfg.RangeM <= 0 {
		cfg.RangeM = 150
	}
	if cfg.AngleSigma <= 0 {
		cfg.AngleSigma = 0.5
	}
	return &Camera{
		rng:        sim.NewRand(cfg.Seed).Child("camera"),
		fovDeg:     cfg.FOVDeg,
		rangeM:     cfg.RangeM,
		angleSigma: cfg.AngleSigma,
	}
}

// Observe returns landmark observations for the POIs visible from the true
// pose. Landmarks beyond range or outside the FOV are never observed;
// in-view landmarks drop out with probability growing with distance.
func (c *Camera) Observe(_ time.Time, truth Pose, pois []geo.POI) []LandmarkObservation {
	var out []LandmarkObservation
	for _, p := range pois {
		d := geo.DistanceMeters(truth.Position, p.Location)
		if d > c.rangeM || d < 0.5 {
			continue
		}
		brg := geo.BearingDegrees(truth.Position, p.Location)
		rel := angleDiff(brg, truth.HeadingDeg)
		if math.Abs(rel) > c.fovDeg/2 {
			continue
		}
		// Recognition probability decays linearly with distance.
		pRecognise := 1 - 0.6*(d/c.rangeM)
		if !c.rng.Bool(pRecognise) {
			continue
		}
		elev := math.Atan2(p.HeightMeters/2-truth.AltitudeM, d) * 180 / math.Pi
		out = append(out, LandmarkObservation{
			POIID:        p.ID,
			RelBearing:   rel + c.rng.Norm(0, c.angleSigma),
			RelElevation: elev + c.rng.Norm(0, c.angleSigma),
			Confidence:   sim.Clamp(pRecognise, 0, 1),
		})
	}
	return out
}

// GazeSample is one eye-tracking sample: which annotation (by ID) the user
// is looking at, if any, and the dwell time accumulated on it.
type GazeSample struct {
	Time     time.Time
	TargetID uint64 // 0 = no target
	DwellMS  float64
}

// Gaze simulates visual attention over a set of on-screen targets:
// attention is zipfian over targets (people fixate on few things), with
// saccades between fixations.
type Gaze struct {
	rng        *sim.Rand
	current    uint64
	dwellMS    float64
	switchProb float64
}

// NewGaze returns a gaze simulator.
func NewGaze(seed int64) *Gaze {
	return &Gaze{rng: sim.NewRand(seed).Child("gaze"), switchProb: 0.15}
}

// Sample picks or keeps a fixation among targets (on-screen annotation IDs,
// ordered by salience descending).
func (g *Gaze) Sample(now time.Time, dt time.Duration, targets []uint64) GazeSample {
	if len(targets) == 0 {
		g.current, g.dwellMS = 0, 0
		return GazeSample{Time: now}
	}
	stillVisible := false
	for _, id := range targets {
		if id == g.current {
			stillVisible = true
			break
		}
	}
	if g.current == 0 || !stillVisible || g.rng.Bool(g.switchProb) {
		// Saccade: pick a new target, biased to salient (early) entries.
		idx := int(math.Floor(math.Pow(g.rng.Float64(), 2) * float64(len(targets))))
		if idx >= len(targets) {
			idx = len(targets) - 1
		}
		g.current = targets[idx]
		g.dwellMS = 0
	}
	g.dwellMS += float64(dt.Milliseconds())
	return GazeSample{Time: now, TargetID: g.current, DwellMS: g.dwellMS}
}

// VitalKind identifies a vital-sign stream. Enums start at 1.
type VitalKind int

// Vital kinds produced by the wearable simulator.
const (
	VitalHeartRate VitalKind = iota + 1
	VitalSpO2
	VitalSystolicBP
)

// String returns the vital's name.
func (v VitalKind) String() string {
	switch v {
	case VitalHeartRate:
		return "heart_rate"
	case VitalSpO2:
		return "spo2"
	case VitalSystolicBP:
		return "systolic_bp"
	default:
		return "vital(?)"
	}
}

// VitalSample is one wearable measurement.
type VitalSample struct {
	Time    time.Time
	Kind    VitalKind
	Value   float64
	Anomaly bool // ground-truth label: sample produced during an episode
}

// Vitals simulates a wearable's health streams: baselines with activity
// drift plus injectable anomaly episodes (tachycardia, desaturation) whose
// ground truth labels let the healthcare experiment measure alert
// precision/recall and latency.
type Vitals struct {
	rng          *sim.Rand
	hrBase       float64
	spo2Base     float64
	bpBase       float64
	activity     float64
	episodeStart time.Time
	episodeEnd   time.Time
	episode      bool
}

// NewVitals returns a vitals simulator with per-person randomised baselines.
func NewVitals(seed int64) *Vitals {
	r := sim.NewRand(seed).Child("vitals")
	return &Vitals{
		rng:      r,
		hrBase:   r.Uniform(58, 82),
		spo2Base: r.Uniform(96, 99),
		bpBase:   r.Uniform(105, 135),
	}
}

// StartEpisode schedules an anomaly episode covering [start, start+d).
// Scheduling in the future is allowed; samples before start stay normal.
func (v *Vitals) StartEpisode(start time.Time, d time.Duration) {
	v.episode = true
	v.episodeStart = start
	v.episodeEnd = start.Add(d)
}

// InEpisode reports whether an episode is active at now.
func (v *Vitals) InEpisode(now time.Time) bool {
	return v.episode && !now.Before(v.episodeStart) && now.Before(v.episodeEnd)
}

// Sample produces one sample of each vital at now.
func (v *Vitals) Sample(now time.Time) []VitalSample {
	if v.episode && !now.Before(v.episodeEnd) {
		v.episode = false
	}
	v.activity = sim.Clamp(v.activity+v.rng.Norm(0, 0.05), 0, 1)
	anomaly := v.InEpisode(now)
	hr := v.hrBase + 40*v.activity + v.rng.Norm(0, 2)
	spo2 := v.spo2Base - 1.5*v.activity + v.rng.Norm(0, 0.3)
	bp := v.bpBase + 20*v.activity + v.rng.Norm(0, 3)
	if anomaly {
		hr += 55 + v.rng.Norm(0, 5) // tachycardia
		spo2 -= 7 + v.rng.Norm(0, 1)
	}
	return []VitalSample{
		{Time: now, Kind: VitalHeartRate, Value: hr, Anomaly: anomaly},
		{Time: now, Kind: VitalSpO2, Value: sim.Clamp(spo2, 70, 100), Anomaly: anomaly},
		{Time: now, Kind: VitalSystolicBP, Value: bp, Anomaly: anomaly},
	}
}

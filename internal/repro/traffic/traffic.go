// Package traffic implements the §3.4 public-services scenario: a VANET
// simulation on a Manhattan road grid with beacon exchange, line-of-sight
// radio occlusion by city blocks, cloud-relayed ("x-ray vision") beacon
// sharing, and constant-velocity conflict prediction. Experiment E9
// measures warning recall and lead time as beacon penetration and sharing
// vary — quantifying the paper's see-through-the-building claim.
package traffic

import (
	"math"
	"sort"
	"time"

	"arbd/internal/sim"
)

// Vec is a position or velocity in the local metric frame (meters east,
// meters north of the grid origin).
type Vec struct {
	X float64
	Y float64
}

// Vehicle is one simulated car on the grid.
type Vehicle struct {
	ID       uint64
	Pos      Vec
	Heading  float64 // degrees: 0=N, 90=E, 180=S, 270=W (grid-aligned)
	SpeedMps float64
	Equipped bool // carries a V2X beacon radio
}

// Velocity returns the vehicle's velocity vector.
func (v Vehicle) Velocity() Vec {
	rad := v.Heading * math.Pi / 180
	return Vec{X: math.Sin(rad) * v.SpeedMps, Y: math.Cos(rad) * v.SpeedMps}
}

// Beacon is one broadcast state report.
type Beacon struct {
	From     uint64
	Pos      Vec
	Heading  float64
	SpeedMps float64
	At       time.Time
}

// Config parameterises the simulation.
type Config struct {
	Seed        int64
	GridN       int     // intersections per side (default 6)
	BlockM      float64 // block edge length (default 120)
	NumVehicles int     // default 40
	Penetration float64 // fraction of vehicles with radios (default 1)
	SpeedMps    float64 // mean speed (default 11 ≈ 40 km/h)
}

// Sim is a stepped VANET simulation.
type Sim struct {
	cfg      Config
	rng      *sim.Rand
	vehicles []*Vehicle
	now      time.Time
}

// NewSim builds a simulation with vehicles placed on random streets.
func NewSim(cfg Config, start time.Time) *Sim {
	if cfg.GridN <= 1 {
		cfg.GridN = 6
	}
	if cfg.BlockM <= 0 {
		cfg.BlockM = 120
	}
	if cfg.NumVehicles <= 0 {
		cfg.NumVehicles = 40
	}
	if cfg.Penetration <= 0 || cfg.Penetration > 1 {
		cfg.Penetration = 1
	}
	if cfg.SpeedMps <= 0 {
		cfg.SpeedMps = 11
	}
	s := &Sim{cfg: cfg, rng: sim.NewRand(cfg.Seed).Child("traffic"), now: start}
	extent := float64(cfg.GridN-1) * cfg.BlockM
	for i := 0; i < cfg.NumVehicles; i++ {
		v := &Vehicle{
			ID:       uint64(i + 1),
			SpeedMps: jitter(s.rng, cfg.SpeedMps, 0.3),
			Equipped: s.rng.Bool(cfg.Penetration),
		}
		// Place on a random street: either a N-S avenue (x fixed) or an E-W
		// street (y fixed).
		if s.rng.Bool(0.5) {
			v.Pos = Vec{X: float64(s.rng.Intn(cfg.GridN)) * cfg.BlockM, Y: s.rng.Float64() * extent}
			if s.rng.Bool(0.5) {
				v.Heading = 0
			} else {
				v.Heading = 180
			}
		} else {
			v.Pos = Vec{X: s.rng.Float64() * extent, Y: float64(s.rng.Intn(cfg.GridN)) * cfg.BlockM}
			if s.rng.Bool(0.5) {
				v.Heading = 90
			} else {
				v.Heading = 270
			}
		}
		s.vehicles = append(s.vehicles, v)
	}
	return s
}

// jitter returns v multiplied by a uniform factor in [1-f, 1+f]. It
// perturbs vehicle speeds so the simulated cars are not lockstep.
func jitter(r *sim.Rand, v, f float64) float64 {
	if f <= 0 {
		return v
	}
	return v * r.Uniform(1-f, 1+f)
}

// Vehicles returns a snapshot of vehicle states.
func (s *Sim) Vehicles() []Vehicle {
	out := make([]Vehicle, len(s.vehicles))
	for i, v := range s.vehicles {
		out[i] = *v
	}
	return out
}

// Step advances every vehicle by dt. At intersections vehicles turn with
// probability 0.4; at the grid boundary they turn back inward.
func (s *Sim) Step(dt time.Duration) {
	secs := dt.Seconds()
	extent := float64(s.cfg.GridN-1) * s.cfg.BlockM
	for _, v := range s.vehicles {
		dist := v.SpeedMps * secs
		// Distance to next intersection along the heading.
		var along, coord float64
		switch v.Heading {
		case 0:
			along, coord = v.Pos.Y, v.Pos.X
		case 180:
			along, coord = extent-v.Pos.Y, v.Pos.X
		case 90:
			along, coord = v.Pos.X, v.Pos.Y
		default:
			along, coord = extent-v.Pos.X, v.Pos.Y
		}
		_ = coord
		next := s.cfg.BlockM - math.Mod(along, s.cfg.BlockM)
		if next <= dist+0.01 {
			// Cross the intersection, maybe turning.
			s.advance(v, next)
			if s.rng.Bool(0.4) {
				s.turn(v)
			}
			s.advance(v, dist-next)
		} else {
			s.advance(v, dist)
		}
		s.clampInward(v, extent)
	}
	s.now = s.now.Add(dt)
}

func (s *Sim) advance(v *Vehicle, dist float64) {
	vel := v.Velocity()
	if v.SpeedMps > 0 {
		v.Pos.X += vel.X / v.SpeedMps * dist
		v.Pos.Y += vel.Y / v.SpeedMps * dist
	}
}

func (s *Sim) turn(v *Vehicle) {
	// Snap to the intersection before turning so the vehicle stays on
	// streets.
	v.Pos.X = math.Round(v.Pos.X/s.cfg.BlockM) * s.cfg.BlockM
	v.Pos.Y = math.Round(v.Pos.Y/s.cfg.BlockM) * s.cfg.BlockM
	if s.rng.Bool(0.5) {
		v.Heading = math.Mod(v.Heading+90, 360)
	} else {
		v.Heading = math.Mod(v.Heading+270, 360)
	}
}

func (s *Sim) clampInward(v *Vehicle, extent float64) {
	turned := false
	if v.Pos.X < 0 {
		v.Pos.X, turned = 0, true
	}
	if v.Pos.X > extent {
		v.Pos.X, turned = extent, true
	}
	if v.Pos.Y < 0 {
		v.Pos.Y, turned = 0, true
	}
	if v.Pos.Y > extent {
		v.Pos.Y, turned = extent, true
	}
	if turned {
		v.Heading = math.Mod(v.Heading+180, 360)
	}
}

// LineOfSight reports whether two positions can see each other on the grid:
// true when they share a street corridor (within half a road width of the
// same avenue/street) — otherwise a building block stands between them.
func (s *Sim) LineOfSight(a, b Vec) bool {
	const roadHalfWidth = 8.0
	onSameAvenue := math.Abs(a.X-b.X) < roadHalfWidth &&
		math.Abs(math.Mod(a.X+s.cfg.BlockM/2, s.cfg.BlockM)-s.cfg.BlockM/2) < roadHalfWidth
	onSameStreet := math.Abs(a.Y-b.Y) < roadHalfWidth &&
		math.Abs(math.Mod(a.Y+s.cfg.BlockM/2, s.cfg.BlockM)-s.cfg.BlockM/2) < roadHalfWidth
	return onSameAvenue || onSameStreet
}

// ReceivedBeacons returns, for each equipped vehicle, the beacons it hears:
// all equipped vehicles within radioRangeM, filtered by line of sight unless
// shared (cloud relay / "x-ray vision") is enabled.
func (s *Sim) ReceivedBeacons(radioRangeM float64, shared bool) map[uint64][]Beacon {
	out := make(map[uint64][]Beacon)
	for _, rx := range s.vehicles {
		if !rx.Equipped {
			continue
		}
		for _, tx := range s.vehicles {
			if tx.ID == rx.ID || !tx.Equipped {
				continue
			}
			d := math.Hypot(tx.Pos.X-rx.Pos.X, tx.Pos.Y-rx.Pos.Y)
			if d > radioRangeM {
				continue
			}
			if !shared && !s.LineOfSight(rx.Pos, tx.Pos) {
				continue
			}
			out[rx.ID] = append(out[rx.ID], Beacon{
				From: tx.ID, Pos: tx.Pos, Heading: tx.Heading,
				SpeedMps: tx.SpeedMps, At: s.now,
			})
		}
	}
	return out
}

// Conflict is a predicted dangerous encounter between two vehicles.
type Conflict struct {
	A, B   uint64
	TTC    time.Duration // time to closest approach
	MinSep float64       // predicted separation at closest approach, m
}

// PredictConflict projects both vehicles at constant velocity and returns
// the conflict if their closest approach within horizon is under minSepM.
func PredictConflict(a, b Vehicle, horizon time.Duration, minSepM float64) (Conflict, bool) {
	dp := Vec{X: b.Pos.X - a.Pos.X, Y: b.Pos.Y - a.Pos.Y}
	va, vb := a.Velocity(), b.Velocity()
	dv := Vec{X: vb.X - va.X, Y: vb.Y - va.Y}
	dv2 := dv.X*dv.X + dv.Y*dv.Y
	var tStar float64
	if dv2 > 1e-9 {
		tStar = -(dp.X*dv.X + dp.Y*dv.Y) / dv2
	}
	if tStar < 0 {
		tStar = 0
	}
	if h := horizon.Seconds(); tStar > h {
		tStar = h
	}
	cx := dp.X + dv.X*tStar
	cy := dp.Y + dv.Y*tStar
	sep := math.Hypot(cx, cy)
	if sep >= minSepM {
		return Conflict{}, false
	}
	return Conflict{
		A: a.ID, B: b.ID,
		TTC:    time.Duration(tStar * float64(time.Second)),
		MinSep: sep,
	}, true
}

// WarningsFromBeacons computes the conflicts an equipped vehicle can warn
// about, given the beacons it received.
func WarningsFromBeacons(self Vehicle, beacons []Beacon, horizon time.Duration, minSepM float64) []Conflict {
	var out []Conflict
	for _, b := range beacons {
		other := Vehicle{ID: b.From, Pos: b.Pos, Heading: b.Heading, SpeedMps: b.SpeedMps}
		if c, ok := PredictConflict(self, other, horizon, minSepM); ok {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TTC < out[j].TTC })
	return out
}

// GroundTruthConflicts computes conflicts with perfect information about
// every vehicle (equipped or not) — the oracle E9 measures recall against.
func (s *Sim) GroundTruthConflicts(horizon time.Duration, minSepM float64) []Conflict {
	var out []Conflict
	for i := 0; i < len(s.vehicles); i++ {
		for j := i + 1; j < len(s.vehicles); j++ {
			if c, ok := PredictConflict(*s.vehicles[i], *s.vehicles[j], horizon, minSepM); ok {
				out = append(out, c)
			}
		}
	}
	return out
}

// DetectionStats compares beacon-based warnings against ground truth at one
// simulation instant.
type DetectionStats struct {
	TruthPairs    int // conflicts the oracle sees
	DetectedPairs int // of those, pairs where at least one party was warned
	MeanTTC       time.Duration
}

// MeasureDetection computes detection stats for the current instant.
func (s *Sim) MeasureDetection(radioRangeM float64, shared bool, horizon time.Duration, minSepM float64) DetectionStats {
	truth := s.GroundTruthConflicts(horizon, minSepM)
	var st DetectionStats
	st.TruthPairs = len(truth)
	if len(truth) == 0 {
		return st
	}
	inbox := s.ReceivedBeacons(radioRangeM, shared)
	byID := make(map[uint64]Vehicle, len(s.vehicles))
	for _, v := range s.vehicles {
		byID[v.ID] = *v
	}
	var ttcSum time.Duration
	for _, c := range truth {
		detected := false
		for _, pair := range [2][2]uint64{{c.A, c.B}, {c.B, c.A}} {
			self := byID[pair[0]]
			if !self.Equipped {
				continue
			}
			for _, w := range WarningsFromBeacons(self, inbox[self.ID], horizon, minSepM) {
				if w.B == pair[1] {
					detected = true
					break
				}
			}
			if detected {
				break
			}
		}
		if detected {
			st.DetectedPairs++
			ttcSum += c.TTC
		}
	}
	if st.DetectedPairs > 0 {
		st.MeanTTC = ttcSum / time.Duration(st.DetectedPairs)
	}
	return st
}

package main

import (
	"encoding/binary"
	"math"
	"time"

	"arbd/internal/geo"
	"arbd/internal/sensor"
	"arbd/internal/sim"
)

// Event kinds of the open-loop sensor pattern.
const (
	evIMU uint8 = iota + 1
	evGaze
	evGPS
)

// stepDT is the simulated time between two script steps of one session. The
// servers only ever see differences between the timestamps the generator
// stamps on sensor events, so simulated time may run faster than the wall
// clock on closed-loop workloads without changing what a step costs.
const stepDT = 100 * time.Millisecond

// gpsEverySteps is the GPS cadence in steps: one fix per simulated second.
// It is counted in steps, not wall-clock time, so what a session sends does
// not depend on how fast the servers answer.
const gpsEverySteps = int(time.Second / stepDT)

// Every simulated device roams a small disc around the city centre at
// cycling speed. What a frame costs depends on where the device is and which
// way it faces; a small disc crossed many times per run makes every run
// sample the same distribution, so cost does not move with the seed.
const (
	walkRadiusM  = 40
	walkSpeedMps = 15
)

// scriptEpoch is the simulated timestamp of step 0.
var scriptEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// step is one tick of a session's simulated device: the inertial sample and
// the (noisy) position fix the device would report there.
type step struct {
	Gyro, Accel, Compass float64
	Lat, Lon             float64
}

// sessionScript is everything one session will ever send, in order.
type sessionScript struct {
	ID    uint64 // wire session ID (ignored on router_poll: the router mints IDs)
	Steps []step
}

// script is a workload's complete input, generated from the seed before any
// process is started. Generators walk it; nothing else reaches the servers.
type script struct {
	Workload string
	Seed     int64
	Sessions []sessionScript
	// Pattern is the cyclic kind sequence of the open-loop sensor flood
	// (sensor_flood only): slot n of the flood has kind Pattern[n%len].
	Pattern []uint8
	// Targets are POI IDs gazed at, cyclic: the k-th interaction of the run
	// dwells on Targets[k%len].
	Targets []uint64
}

// buildScript generates the workload's input script from the seed.
func buildScript(w *workload, seed int64) *script {
	rng := sim.NewRand(seed).Child("benchmark/" + w.Name)
	sc := &script{Workload: w.Name, Seed: seed}
	center := geo.Point{Lat: cityLat, Lon: cityLon}

	n := w.sessionCount()
	ids := make(map[uint64]bool, n)
	for i := 0; i < n; i++ {
		// 40-bit IDs: large enough that a collision with a platform-minted
		// ID is impossible, small enough to stay a 6-byte uvarint.
		id := uint64(rng.Int63())&(1<<40-1) | 1<<39
		for ids[id] {
			id++
		}
		ids[id] = true
		walkSeed := rng.Int63()
		walker := sensor.NewWalker(sensor.WalkerConfig{Center: center, RadiusM: walkRadiusM, SpeedMps: walkSpeedMps, Seed: walkSeed})
		gps := sensor.NewGPS(walkSeed, 5)
		imu := sensor.NewIMU(walkSeed)
		steps := make([]step, w.StepsPerSession)
		for k := range steps {
			truth := walker.Step(stepDT)
			s := imu.Sample(time.Time{}, truth, stepDT)
			fix := gps.Fix(time.Time{}, truth.Position)
			steps[k] = step{Gyro: s.GyroZRad, Accel: s.AccelMps2, Compass: s.CompassDeg,
				Lat: fix.Position.Lat, Lon: fix.Position.Lon}
		}
		sc.Sessions = append(sc.Sessions, sessionScript{ID: id, Steps: steps})
	}

	if w.FloodRate > 0 {
		// Exact mix per cycle, shuffled: 50 % IMU, 48 % gaze, 2 % GPS.
		const cycle = 4000
		sc.Pattern = make([]uint8, cycle)
		for i := range sc.Pattern {
			switch {
			case i < cycle/2:
				sc.Pattern[i] = evIMU
			case i < cycle/2+cycle*48/100:
				sc.Pattern[i] = evGaze
			default:
				sc.Pattern[i] = evGPS
			}
		}
		rng.Shuffle(cycle, func(i, j int) { sc.Pattern[i], sc.Pattern[j] = sc.Pattern[j], sc.Pattern[i] })
	}

	// Gaze targets are POIs no session can ever have in its working set.
	// The crowd view a frame reads is fed by one-minute tumbling windows
	// aligned to the wall clock, so a run that happens to cross a minute
	// boundary would otherwise render tagged (longer, costlier) frames from
	// there on, and one that does not would not. Far targets still travel
	// the whole analytics pipeline; the frame-side hit rate stays at zero
	// in every run, and the traced replay measures the hit path instead.
	var far []uint64
	for _, p := range geo.GenerateCity(w.World.cityConfig()) {
		if geo.DistanceMeters(center, p.Location) > walkRadiusM+queryRadiusM+50 {
			far = append(far, p.ID)
		}
	}
	sc.Targets = make([]uint64, 4096)
	for i := range sc.Targets {
		sc.Targets[i] = far[rng.Intn(len(far))]
	}
	return sc
}

// encode serialises the script byte for byte; two scripts are the same input
// exactly when their encodings are equal.
func (sc *script) encode() []byte {
	b := []byte(sc.Workload)
	b = binary.AppendVarint(b, sc.Seed)
	b = binary.AppendUvarint(b, uint64(len(sc.Sessions)))
	for i := range sc.Sessions {
		s := &sc.Sessions[i]
		b = binary.AppendUvarint(b, s.ID)
		b = binary.AppendUvarint(b, uint64(len(s.Steps)))
		for _, st := range s.Steps {
			for _, v := range [...]float64{st.Gyro, st.Accel, st.Compass, st.Lat, st.Lon} {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		}
	}
	b = binary.AppendUvarint(b, uint64(len(sc.Pattern)))
	b = append(b, sc.Pattern...)
	b = binary.AppendUvarint(b, uint64(len(sc.Targets)))
	for _, t := range sc.Targets {
		b = binary.AppendUvarint(b, t)
	}
	return b
}

// stepTime is the simulated timestamp of a session's k-th step; k keeps
// counting when the step array wraps, so timestamps never go backwards.
func stepTime(k int) time.Time { return scriptEpoch.Add(time.Duration(k) * stepDT) }

// at returns the session's k-th step, wrapping around the generated array.
func (s *sessionScript) at(k int) *step { return &s.Steps[k%len(s.Steps)] }

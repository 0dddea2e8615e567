// Package arbd's root benchmark measures the core per-frame pipeline in
// process: `go test -run='^$' -bench=FrameLoop .`. The paper-reproduction
// experiments live in internal/repro (tables from `go run ./cmd/arbd-bench`),
// and serving-path performance is measured by the multi-process benchmark in
// benchmark/.
package arbd

import (
	"testing"
	"time"

	"arbd/internal/core"
	"arbd/internal/geo"
	"arbd/internal/sensor"
)

// BenchmarkFrameLoop measures the end-to-end per-frame cost of the core
// pipeline — the number the §4.1 timeliness budget is spent against — in
// two cases. fixed_pose renders again and again from one pose, where the
// geo query always answers from the session's kept POI set. dense_walk
// walks the benchmark's dense city as its scripts do: 1.5 m a frame, an IMU
// sample every frame and a GPS fix every 10th, so the kept set is
// re-measured on most frames and re-seeded on the rest, and the sensor
// feed is part of the cost.
func BenchmarkFrameLoop(b *testing.B) {
	center := geo.Point{Lat: 22.3364, Lon: 114.2655}
	b.Run("fixed_pose", func(b *testing.B) {
		s := benchSession(b, geo.CityConfig{Center: center, RadiusM: 2000, NumPOIs: 2000})
		now := time.Now()
		if err := s.OnGPS(sensor.GPSFix{Time: now, Position: center, AccuracyM: 5}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Frame(now); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense_walk", func(b *testing.B) {
		const steps, dt = 4096, 100 * time.Millisecond
		s := benchSession(b, geo.CityConfig{Center: center, RadiusM: 3000, NumPOIs: 5000, TallRatio: 0.2})
		walker := sensor.NewWalker(sensor.WalkerConfig{Center: center, RadiusM: 40, SpeedMps: 15, Seed: 1})
		gps, imu := sensor.NewGPS(1, 5), sensor.NewIMU(1)
		fixes := make([]sensor.GPSFix, steps)
		samples := make([]sensor.IMUSample, steps)
		for k := range samples {
			truth := walker.Step(dt)
			fixes[k] = gps.Fix(time.Time{}, truth.Position)
			samples[k] = imu.Sample(time.Time{}, truth, dt)
		}
		start := time.Now()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at := start.Add(time.Duration(i) * dt)
			if i%10 == 0 {
				fix := fixes[i%steps]
				fix.Time = at
				if err := s.OnGPS(fix); err != nil {
					b.Fatal(err)
				}
			}
			samp := samples[i%steps]
			samp.Time = at
			s.OnIMU(samp)
			if _, err := s.Frame(at); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchSession opens a session on a fresh platform over the given city.
func benchSession(b *testing.B, city geo.CityConfig) *core.Session {
	b.Helper()
	platform, err := core.NewPlatform(core.Config{Seed: 1, City: city})
	if err != nil {
		b.Fatal(err)
	}
	return platform.NewSession()
}

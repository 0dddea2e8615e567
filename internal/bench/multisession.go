package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"arbd/internal/core"
	"arbd/internal/geo"
	"arbd/internal/metrics"
	"arbd/internal/sensor"
	"arbd/internal/server"
	"arbd/internal/sim"
)

// E14MultiSession measures the concurrent multi-session frame engine: one
// platform serving a sweep of session counts through the bounded frame
// scheduler, reporting aggregate frames/sec and p99 frame latency — the
// paper's "crowds of AR devices against one big-data backend" scenario
// made quantitative.
func E14MultiSession() *Report {
	return e14MultiSession([]int{1, 8, 64, 512}, 4096, 4000, 1, "full")
}

// e14MultiSessionSmoke is the tiny-parameter variant for plain `go test`
// and the CI perf gate. 2000 frames per point keeps each run in the tens of
// milliseconds (at 64 frames the wall time was sub-millisecond and the rate
// pure noise), and the gate-facing frames/s is the best of 3 trials: the
// loadable fleet can only be slowed by interference, never sped up, so
// best-of-N removes scheduler/frequency jitter without masking a real
// regression.
func e14MultiSessionSmoke() *Report {
	return e14MultiSession([]int{1, 8}, 2000, 300, 3, "smoke")
}

func e14MultiSession(sessionCounts []int, totalFrames, numPOIs, trials int, config string) *Report {
	title := fmt.Sprintf("E14: multi-session throughput (%d frames total, %d POIs, %d workers)",
		totalFrames, numPOIs, runtime.GOMAXPROCS(0))
	t := metrics.NewTable(title, "sessions", "frames", "frames/s", "p50", "p99", "shed")
	res := NewResult("E14", title, config)
	for _, n := range sessionCounts {
		row := runMultiSession(n, totalFrames, numPOIs)
		for i := 1; i < trials; i++ {
			if again := runMultiSession(n, totalFrames, numPOIs); again.rate > row.rate {
				row = again
			}
		}
		t.AddRow(n, row.frames, fmt.Sprintf("%.0f", row.rate), ms(row.p50), ms(row.p99), row.shed)
		// CPU-bound throughput on a shared host swings with neighbour load
		// (observed -53% in a slow epoch even best-of-3), so the rate gates
		// only on gross collapses — an accidental O(n²) or lock convoy — and
		// the tight 10% gate lives on deterministic metrics (E15
		// allocs/frame, E17 bytes/frame).
		res.AddRow(fmt.Sprintf("sessions=%d", n),
			M("frames", float64(row.frames), "count", ""),
			M("frames_per_sec", row.rate, "1/s", BetterHigher).WithTolerance(0.75),
			DurMetric("frame_p50", row.p50, ""),
			DurMetric("frame_p95", row.p95, ""),
			DurMetric("frame_p99", row.p99, ""),
			M("shed", float64(row.shed), "count", ""),
		)
	}
	res.CaptureRSS()
	return &Report{Table: t, Result: res}
}

type multiSessionResult struct {
	frames int
	rate   float64
	p50    time.Duration
	p95    time.Duration
	p99    time.Duration
	shed   int64
}

func runMultiSession(sessions, totalFrames, numPOIs int) multiSessionResult {
	p, err := core.NewPlatform(core.Config{
		Seed: 14,
		City: geo.CityConfig{Center: benchCenter, RadiusM: 2000, NumPOIs: numPOIs, TallRatio: 0.2},
	})
	if err != nil {
		panic(err)
	}
	rng := sim.NewRand(14)
	now := time.Now()
	sess := make([]*core.Session, sessions)
	for i := range sess {
		sess[i] = p.NewSession()
		// Spread devices over the city so sessions stress different parts
		// of the spatial index rather than one cache-hot cell.
		pos := geo.Destination(benchCenter, rng.Uniform(0, 360), rng.Float64()*1500)
		if err := sess[i].OnGPS(sensor.GPSFix{Time: now, Position: pos, AccuracyM: 5}); err != nil {
			panic(err)
		}
	}

	fs := server.NewFrameScheduler(server.SchedulerConfig{
		// A generous deadline: under extreme oversubscription stale frame
		// requests are shed (and counted) rather than rendered late.
		Deadline: time.Second,
	}, nil)
	defer fs.Close()

	framesEach := totalFrames / sessions
	if framesEach < 1 {
		framesEach = 1
	}
	total := framesEach * sessions
	var wg sync.WaitGroup
	wg.Add(total)
	start := time.Now()
	// Round-robin across sessions so the queue interleaves all devices,
	// matching how independent connections arrive.
	for f := 0; f < framesEach; f++ {
		for i := range sess {
			if err := fs.SubmitVisit(sess[i], func(*core.Frame) {}, func(err error) {
				defer wg.Done()
				if err != nil && err != server.ErrFrameShed {
					panic(err)
				}
			}); err != nil {
				panic(err)
			}
		}
	}
	wg.Wait()
	wall := time.Since(start)

	// Report completed renders only: shed frames did no work and must not
	// inflate throughput.
	done := fs.Metrics().Counter("server.frames.done").Value()
	snap := fs.Metrics().Histogram("server.frame.latency").Snapshot()
	return multiSessionResult{
		frames: int(done),
		rate:   float64(done) / wall.Seconds(),
		p50:    snap.P50,
		p95:    snap.P95,
		p99:    snap.P99,
		shed:   fs.Metrics().Counter("server.frames.shed").Value(),
	}
}

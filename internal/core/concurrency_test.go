package core

import (
	"sync"
	"testing"
	"time"

	"arbd/internal/recommend"
	"arbd/internal/sensor"
	"arbd/internal/sim"
)

// TestConcurrentSessionsRace hammers one platform from many goroutines, each
// running its own session through the full device loop — the workload the
// sharded registry and per-session locking exist for. Run with -race.
func TestConcurrentSessionsRace(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}

	near := p.POIs().QueryRadius(center, 300, 0)
	if len(near) == 0 {
		t.Fatal("no POIs near center")
	}
	target := near[0].ID

	const workers = 16
	const iters = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := p.NewSession()
			for i := 0; i < iters; i++ {
				at := sim.Epoch.Add(time.Duration(i) * time.Second)
				if err := s.OnGPS(sensor.GPSFix{Time: at, Position: center, AccuracyM: 3}); err != nil {
					t.Errorf("worker %d: OnGPS: %v", w, err)
					return
				}
				s.OnIMU(sensor.IMUSample{Time: at, CompassDeg: float64(i % 360)})
				if _, err := s.Frame(at); err != nil {
					t.Errorf("worker %d: Frame: %v", w, err)
					return
				}
				if err := s.RecordInteraction(target, 1); err != nil {
					t.Errorf("worker %d: RecordInteraction: %v", w, err)
					return
				}
				if i%5 == 0 {
					if err := s.OnGaze(sensor.GazeSample{Time: at, TargetID: target, DwellMS: 2000}); err != nil {
						t.Errorf("worker %d: OnGaze: %v", w, err)
						return
					}
				}
			}
			_ = s.Stats()
			_ = s.GazeTargets()
		}(w)
	}

	// Observer goroutines poke the platform-wide read paths concurrently.
	stop := make(chan struct{})
	var obs sync.WaitGroup
	obs.Add(1)
	go func() {
		defer obs.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = p.HotPOIs(3)
			_ = p.NumSessions()
			p.ForEachSession(func(s *Session) bool {
				_, _ = p.Session(s.ID)
				return true
			})
		}
	}()
	obs.Add(1)
	go func() {
		defer obs.Done()
		log := []recommend.Interaction{{UserID: 1, ItemID: 1, Weight: 1}}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p.SetRecommender(recommend.NewPopularity(log))
		}
	}()

	wg.Wait()
	close(stop)
	obs.Wait()

	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := p.NumSessions(); got != workers {
		t.Fatalf("NumSessions = %d, want %d", got, workers)
	}
	// Every interaction the workers produced was folded before its call
	// returned: workers*iters explicit ones and a sustained gaze every
	// fifth step.
	const want = workers * (iters + (iters+4)/5)
	hot := p.HotPOIs(1)
	if len(hot) == 0 || hot[0].Count != want {
		t.Fatalf("hot POIs = %v, want %d interactions", hot, want)
	}
}

// TestConcurrentSharedSession drives a single session from several
// goroutines: per-session state must stay consistent under its own lock.
func TestConcurrentSharedSession(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	s := p.NewSession()
	if err := s.OnGPS(sensor.GPSFix{Time: sim.Epoch, Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const framesEach = 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < framesEach; i++ {
				if _, err := s.Frame(sim.Epoch); err != nil {
					t.Errorf("frame: %v", err)
					return
				}
				_ = s.Pose()
				_ = s.Level()
			}
		}()
	}
	wg.Wait()
	if got := s.Stats().Frames; got != workers*framesEach {
		t.Fatalf("frames = %d, want %d (lost updates)", got, workers*framesEach)
	}
}

// TestFoldsRaceFrames: four goroutines fold interactions while four render
// frames that draw the same POIs' context, under -race. Every fold lands
// exactly once: the view's sums, the sketch's counts and
// core.interactions.consumed each equal what was sent.
func TestFoldsRaceFrames(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	near := p.POIs().QueryRadius(center, 200, 0)
	if len(near) < 8 {
		t.Fatalf("%d POIs near center, want >= 8", len(near))
	}
	targets := make([]uint64, 8) // fewer than the sketch's 64 slots: its counts are exact
	for i := range targets {
		targets[i] = near[i].ID
	}

	const folders, renderers = 4, 4
	const foldsEach, framesEach = 500, 50
	var wg sync.WaitGroup
	for w := 0; w < folders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := p.NewSession()
			for i := 0; i < foldsEach; i++ {
				if err := s.RecordInteraction(targets[(w+i)%len(targets)], 1); err != nil {
					t.Errorf("folder %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < renderers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := p.NewSession()
			if err := s.OnGPS(sensor.GPSFix{Time: sim.Epoch, Position: center, AccuracyM: 3}); err != nil {
				t.Errorf("renderer %d: %v", w, err)
				return
			}
			for i := 0; i < framesEach; i++ {
				if _, err := s.Frame(sim.Epoch); err != nil {
					t.Errorf("renderer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	const sent = folders * foldsEach
	var sum float64
	for _, id := range targets {
		if stats, ok := p.CrowdView().GetKey([]byte(poiKey(id))); ok {
			sum += stats.Sum
		}
	}
	var counted uint64
	for _, h := range p.HotPOIs(64) {
		counted += h.Count
	}
	if consumed := p.consumed.Value(); sum != sent || counted != sent || consumed != sent {
		t.Fatalf("view sum %v, sketch count %d, consumed %d; want %d each", sum, counted, consumed, sent)
	}
}

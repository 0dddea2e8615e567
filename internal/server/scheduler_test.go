package server

import (
	"errors"
	"sync"
	"testing"
	"time"

	"arbd/internal/core"
	"arbd/internal/geo"
	"arbd/internal/sensor"
)

func testPlatform(t *testing.T) *core.Platform {
	t.Helper()
	p, err := core.NewPlatform(core.Config{
		Seed: 1,
		City: geo.CityConfig{Center: center, RadiusM: 1500, NumPOIs: 600},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSchedulerRendersFrames(t *testing.T) {
	p := testPlatform(t)
	fs := NewFrameScheduler(SchedulerConfig{}, p.Metrics())
	defer fs.Close()
	s := p.NewSession()
	if err := s.OnGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Frame(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Annotations) == 0 {
		t.Fatal("scheduled frame has no annotations")
	}
	if got := p.Metrics().Counter("server.frames.done").Value(); got != 1 {
		t.Fatalf("frames.done = %d", got)
	}
}

func TestSchedulerFanOut(t *testing.T) {
	p := testPlatform(t)
	fs := NewFrameScheduler(SchedulerConfig{}, p.Metrics())
	defer fs.Close()
	const sessions = 32
	const framesEach = 5
	var wg sync.WaitGroup
	errs := make(chan error, sessions*framesEach)
	for i := 0; i < sessions; i++ {
		s := p.NewSession()
		if err := s.OnGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < framesEach; f++ {
			wg.Add(1)
			if err := fs.SubmitVisit(s, func(*core.Frame) {}, func(err error) {
				defer wg.Done()
				if err != nil {
					errs <- err
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := p.Metrics().Counter("server.frames.done").Value(); got != sessions*framesEach {
		t.Fatalf("frames.done = %d, want %d", got, sessions*framesEach)
	}
}

func TestSchedulerShedsStaleJobs(t *testing.T) {
	p := testPlatform(t)
	// One worker and a microscopic deadline: jobs queued behind a slow
	// first frame must be shed, not rendered late.
	fs := NewFrameScheduler(SchedulerConfig{workers: 1, deadline: time.Nanosecond}, p.Metrics())
	defer fs.Close()
	s := p.NewSession()
	if err := s.OnGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	shed := 0
	for i := 0; i < 10; i++ {
		if _, err := fs.Frame(s); errors.Is(err, ErrFrameShed) {
			shed++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if shed == 0 {
		t.Fatal("no frames shed despite nanosecond deadline")
	}
	if got := p.Metrics().Counter("server.frames.shed").Value(); int(got) != shed {
		t.Fatalf("frames.shed = %d, observed %d", got, shed)
	}
}

func TestSchedulerCloseUnblocksSubmitters(t *testing.T) {
	p := testPlatform(t)
	fs := NewFrameScheduler(SchedulerConfig{}, p.Metrics())
	s := p.NewSession()
	done := make(chan error, 1)
	go func() {
		_, err := fs.Frame(s)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	fs.Close()
	select {
	case err := <-done:
		// Either the frame completed before Close or the submitter was
		// released with ErrSchedulerClosed — never a hang.
		if err != nil && !errors.Is(err, ErrSchedulerClosed) {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Frame still blocked after Close")
	}
	if _, err := fs.Frame(s); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("Frame after Close: %v", err)
	}
}

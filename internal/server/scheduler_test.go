package server

import (
	"errors"
	"sync"
	"sync/atomic"
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
			if err := fs.Submit(s, func(*core.Frame) {}, func(err error) {
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

// wedgeWorker occupies a one-worker scheduler until release is called: done
// callbacks run on the worker goroutine, so blocking in one holds every job
// queued behind it in place. It returns once the worker has taken the job.
func wedgeWorker(t *testing.T, fs *FrameScheduler, s *core.Session) (release func()) {
	t.Helper()
	taken, unblock := make(chan struct{}), make(chan struct{})
	if err := fs.Submit(s, func(*core.Frame) {}, func(error) {
		close(taken)
		<-unblock
	}); err != nil {
		t.Fatal(err)
	}
	<-taken
	return func() { close(unblock) }
}

// TestSchedulerRunsJobsInSubmitOrder pins the queue's one order: jobs queued
// behind a busy worker run oldest first, however many there are — a stream
// tick and a poll wait in the same line.
func TestSchedulerRunsJobsInSubmitOrder(t *testing.T) {
	p := testPlatform(t)
	fs := NewFrameScheduler(SchedulerConfig{workers: 1}, p.Metrics())
	defer fs.Close()
	s := p.NewSession()
	if err := s.OnGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	release := wedgeWorker(t, fs, s)
	const jobs = 40
	var ran []int // written by the one worker only
	var wg sync.WaitGroup
	wg.Add(jobs)
	for i := 0; i < jobs; i++ {
		if err := fs.Submit(s, func(*core.Frame) { ran = append(ran, i) }, func(err error) {
			defer wg.Done()
			if err != nil {
				t.Errorf("job %d: %v", i, err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	release()
	wg.Wait()
	if len(ran) != jobs {
		t.Fatalf("%d visits ran, want %d", len(ran), jobs)
	}
	for i, job := range ran {
		if job != i {
			t.Fatalf("visit %d was job %d, want submit order: %v", i, job, ran)
		}
	}
}

// TestSchedulerCloseAnswersQueuedJobs pins Close's promise: every job still
// queued is answered ErrSchedulerClosed exactly once without its visit
// running, even while a worker is busy; a Submit after Close fails and its
// done never fires.
func TestSchedulerCloseAnswersQueuedJobs(t *testing.T) {
	p := testPlatform(t)
	fs := NewFrameScheduler(SchedulerConfig{workers: 1}, p.Metrics())
	s := p.NewSession()
	release := wedgeWorker(t, fs, s)
	const jobs = 20
	var visits atomic.Int64
	var answers [jobs]atomic.Int64
	var answered sync.WaitGroup
	answered.Add(jobs)
	for i := 0; i < jobs; i++ {
		if err := fs.Submit(s, func(*core.Frame) { visits.Add(1) }, func(err error) {
			if !errors.Is(err, ErrSchedulerClosed) {
				t.Errorf("job %d: %v, want ErrSchedulerClosed", i, err)
			}
			answers[i].Add(1)
			answered.Done()
		}); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan struct{})
	go func() {
		fs.Close()
		close(closed)
	}()
	// Close answers the queue before it waits for the busy worker.
	answered.Wait()
	release()
	<-closed
	fs.Close() // idempotent
	for i := range answers {
		if n := answers[i].Load(); n != 1 {
			t.Fatalf("job %d answered %d times", i, n)
		}
	}
	if n := visits.Load(); n != 0 {
		t.Fatalf("%d queued visits ran after Close", n)
	}
	late := make(chan error, 1)
	if err := fs.Submit(s, func(*core.Frame) {}, func(err error) { late <- err }); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("Submit after Close: %v", err)
	}
	select {
	case err := <-late:
		t.Fatalf("done fired for a job refused after Close: %v", err)
	default:
	}
}

package server

import (
	"errors"
	"sync"
	"testing"
	"time"

	"arbd/internal/core"
	"arbd/internal/sensor"
)

// TestEffectiveDeadlineTightensUnderLoad checks the admission math: no
// pressure leaves the configured deadline alone, pressure shrinks it
// monotonically, and the floor holds.
func TestEffectiveDeadlineTightensUnderLoad(t *testing.T) {
	g := loadGate{deadline: 160 * time.Millisecond}
	for _, tc := range []struct {
		what string
		sig  core.LoadSignal
		want time.Duration
	}{
		{"no pressure", core.LoadSignal{}, 160 * time.Millisecond},
		{"backlog at ref", core.LoadSignal{Backlog: backlogRef}, 80 * time.Millisecond},
		{"backlog at 3× ref", core.LoadSignal{Backlog: 3 * backlogRef}, 40 * time.Millisecond},
		{"extreme backlog: floor at deadline/16", core.LoadSignal{Backlog: 1 << 40}, 10 * time.Millisecond},
		{"flush-latency slot ignored", core.LoadSignal{FlushLatency: time.Second}, 160 * time.Millisecond},
	} {
		if got := g.effective(tc.sig); got != tc.want {
			t.Fatalf("%s: deadline %v, want %v", tc.what, got, tc.want)
		}
	}
	// The scheduler applies the same rule to its load source.
	fs := NewFrameScheduler(SchedulerConfig{
		deadline: 160 * time.Millisecond,
		load:     func() core.LoadSignal { return core.LoadSignal{Backlog: backlogRef} },
	}, nil)
	defer fs.Close()
	if got := fs.effectiveDeadline(); got != 80*time.Millisecond {
		t.Fatalf("scheduler under backlog at ref: deadline %v, want 80ms", got)
	}
}

// TestSchedulerShedsEarlierUnderBrokerLag is the end-to-end admission
// check: frames that wait out a worker stall render fine under a healthy
// backend, but the same wait sheds once an injected broker-lag signal
// tightens admission below it. The stall is deterministic: the single
// worker blocks inside a job callback while the test enqueues the burst
// and lets a known queue wait accumulate.
func TestSchedulerShedsEarlierUnderBrokerLag(t *testing.T) {
	const deadline = time.Second         // healthy admission: floor = 62.5 ms under max pressure
	const stall = 150 * time.Millisecond // queue wait given to the burst
	const burst = 10

	run := func(load func() core.LoadSignal) (done, shed, shedLag int64) {
		p := testPlatform(t)
		fs := NewFrameScheduler(SchedulerConfig{workers: 1, deadline: deadline, load: load}, nil)
		defer fs.Close()
		s := p.NewSession()
		if err := s.OnGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
			t.Fatal(err)
		}

		// Stall the only worker: done callbacks run on the worker
		// goroutine, so blocking here holds every queued job in place.
		release := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		if err := fs.Submit(s, func(*core.Frame) {}, func(err error) {
			defer wg.Done()
			if err != nil {
				t.Errorf("stall frame: %v", err)
			}
			<-release
		}); err != nil {
			t.Fatal(err)
		}
		wg.Add(burst)
		for i := 0; i < burst; i++ {
			if err := fs.Submit(s, func(*core.Frame) {}, func(err error) {
				defer wg.Done()
				if err != nil && !errors.Is(err, ErrFrameShed) {
					t.Errorf("frame: %v", err)
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(stall)
		close(release)
		wg.Wait()
		return fs.reg.Counter("server.frames.done").Value(),
			fs.reg.Counter("server.frames.shed").Value(),
			fs.reg.Counter("server.frames.shed_lag").Value()
	}

	// Healthy backend: a 150 ms wait is far inside the 1 s deadline.
	done, shed, _ := run(nil)
	if shed != 0 || done != burst+1 {
		t.Fatalf("healthy backend: done=%d shed=%d, want %d/0", done, shed, burst+1)
	}

	// Lagging backend: admission collapses to the floor (deadline/16 =
	// 62.5 ms), so the same 150 ms wait sheds the whole burst — and every
	// shed is attributed to lag, not the base deadline.
	lagged := func() core.LoadSignal { return core.LoadSignal{Backlog: 1 << 40} }
	done, shed, shedLag := run(lagged)
	if done != 1 || shed != burst {
		t.Fatalf("lagging backend: done=%d shed=%d, want 1/%d", done, shed, burst)
	}
	if shedLag != shed {
		t.Fatalf("lag sheds = %d, total sheds = %d: every shed here is inside the base deadline", shedLag, shed)
	}
}

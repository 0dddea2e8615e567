package core

import (
	"sync"
	"testing"
	"time"

	"arbd/internal/mq"
	"arbd/internal/recommend"
	"arbd/internal/sensor"
	"arbd/internal/sim"
)

// TestConcurrentSessionsRace hammers one platform from many goroutines, each
// running its own session through the full device loop — the workload the
// sharded registry and per-session locking exist for. Run with -race.
func TestConcurrentSessionsRace(t *testing.T) {
	cfg := testConfig()
	cfg.LocationEpsilon = 0.02 // exercise the per-session rng path
	cfg.PrivacyBudget = 1e9
	p := newTestPlatform(t, cfg)
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

	if err := p.WaitAnalyticsIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := p.NumSessions(); got != workers {
		t.Fatalf("NumSessions = %d, want %d", got, workers)
	}
	// Every interaction the workers produced must have reached the
	// analytics plane: at-least workers*iters explicit ones.
	hot := p.HotPOIs(1)
	if len(hot) == 0 || hot[0].Count < workers*iters {
		t.Fatalf("hot POIs = %v, want >= %d interactions", hot, workers*iters)
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

// TestEndSessionFlushesAndUnregisters checks the server-facing session
// lifecycle: EndSession drains buffered telemetry and drops the session
// from the registry.
func TestEndSessionFlushesAndUnregisters(t *testing.T) {
	cfg := testConfig()
	cfg.telemetryMaxDelay = time.Hour // only explicit flushes in this test
	p := newTestPlatform(t, cfg)
	s := p.NewSession()
	for i := 0; i < 3; i++ { // fewer than the batch size: stays buffered
		if err := s.RecordInteraction(9, 1); err != nil {
			t.Fatal(err)
		}
	}
	if total := countRecords(t, p, TopicInteractions); total != 0 {
		t.Fatalf("%d records on broker before flush", total)
	}
	if err := p.EndSession(s.ID); err != nil {
		t.Fatal(err)
	}
	if total := countRecords(t, p, TopicInteractions); total != 3 {
		t.Fatalf("%d records on broker after EndSession, want 3", total)
	}
	if _, ok := p.Session(s.ID); ok {
		t.Fatal("session still registered after EndSession")
	}
	if err := p.EndSession(s.ID); err != nil {
		t.Fatalf("second EndSession: %v", err)
	}
}

// TestTelemetryBatchFlushesBySize checks that exactly the batch-size worth
// of buffered records triggers a broker publish without explicit flushing.
func TestTelemetryBatchFlushesBySize(t *testing.T) {
	cfg := testConfig()
	cfg.telemetryBatchSize = 4
	cfg.telemetryMaxDelay = time.Hour // isolate the size trigger
	p := newTestPlatform(t, cfg)
	s := p.NewSession()
	for i := 0; i < 3; i++ {
		if err := s.RecordInteraction(1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := countRecords(t, p, TopicInteractions); got != 0 {
		t.Fatalf("%d records before the batch filled", got)
	}
	if err := s.RecordInteraction(1, 1); err != nil {
		t.Fatal(err)
	}
	if got := countRecords(t, p, TopicInteractions); got != 4 {
		t.Fatalf("%d records after the batch filled, want 4", got)
	}
}

// TestTelemetryAgeFlush checks the background sweeper publishes records
// that never reach the size threshold.
func TestTelemetryAgeFlush(t *testing.T) {
	cfg := testConfig()
	cfg.telemetryMaxDelay = 5 * time.Millisecond
	p := newTestPlatform(t, cfg)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := p.Stop(); err != nil {
			t.Error(err)
		}
	}()
	s := p.NewSession()
	if err := s.RecordInteraction(2, 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for countRecords(t, p, TopicInteractions) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("age-based flush never published the record")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTelemetryAgeFlushCrossTopicWithoutStart checks the no-Start delay
// bound: an overdue record on a quiet topic is drained by the session's
// next enqueue on a *different* topic.
func TestTelemetryAgeFlushCrossTopicWithoutStart(t *testing.T) {
	cfg := testConfig()
	cfg.telemetryMaxDelay = 5 * time.Millisecond
	p := newTestPlatform(t, cfg) // note: Start is never called
	s := p.NewSession()
	if err := s.RecordInteraction(3, 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if err := s.OnGPS(sensor.GPSFix{Time: sim.Epoch, Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	if got := countRecords(t, p, TopicInteractions); got != 1 {
		t.Fatalf("interactions on broker = %d, want 1 (cross-topic age drain)", got)
	}
	// The GPS fix itself is also past due by its own enqueue's age check
	// only on the *next* enqueue; it may legitimately still be buffered.
}

// fetch reads up to max records of one partition through a Topic handle.
func fetch(p *Platform, topic string, partitionIdx int, offset int64, max int) ([]mq.Record, error) {
	tp, err := p.Broker().Topic(topic)
	if err != nil {
		return nil, err
	}
	return tp.FetchInto(nil, partitionIdx, offset, max)
}

// countRecords counts the records retained on the topic's four partitions.
func countRecords(t *testing.T, p *Platform, topic string) int {
	t.Helper()
	total := 0
	for pi := 0; pi < 4; pi++ {
		rs, err := fetch(p, topic, pi, 0, 10_000)
		if err != nil {
			t.Fatal(err)
		}
		total += len(rs)
	}
	return total
}

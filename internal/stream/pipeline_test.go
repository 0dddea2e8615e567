package stream

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// collectSink gathers sink output safely across the pipeline's goroutines.
type collectSink struct {
	mu     sync.Mutex
	events []Event
}

func (c *collectSink) add(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

func (c *collectSink) all() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

func TestPipelineWindowEndToEnd(t *testing.T) {
	p := NewPipeline("t")
	sink := &collectSink{}
	p.Source("in").
		Window("sum10", 4, Tumbling(10*time.Second), Sum()).
		Sink("out", sink.add)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	// 3 keys × 100 events each across 10 windows.
	for i := 0; i < 300; i++ {
		key := fmt.Sprintf("k%d", i%3)
		_ = p.Push("in", ev(key, time.Duration(i)*time.Second/3, 1))
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	got := sink.all()
	totals := map[string]float64{}
	for _, e := range got {
		totals[e.Key] += e.Value
	}
	for _, k := range []string{"k0", "k1", "k2"} {
		if totals[k] != 100 {
			t.Fatalf("key %s total = %v, want 100 (windows lost events)", k, totals[k])
		}
	}
}

func TestPipelineFanOut(t *testing.T) {
	p := NewPipeline("t")
	sinkA, sinkB := &collectSink{}, &collectSink{}
	src := p.Source("in")
	src.Sink("outA", sinkA.add)
	src.Sink("outB", sinkB.add)
	_ = p.Start()
	for i := 0; i < 20; i++ {
		_ = p.Push("in", ev("k", time.Duration(i)*time.Second, float64(i)))
	}
	_ = p.Drain()
	if len(sinkA.all()) != 20 || len(sinkB.all()) != 20 {
		t.Fatalf("fan-out lost events: %d, %d", len(sinkA.all()), len(sinkB.all()))
	}
}

func TestPipelineLifecycleErrors(t *testing.T) {
	p := NewPipeline("t")
	p.Source("in").Sink("out", func(Event) {})
	if err := p.Push("in", Event{}); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("push before start: %v", err)
	}
	if err := p.Drain(); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("drain before start: %v", err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); !errors.Is(err, ErrStarted) {
		t.Fatalf("double start: %v", err)
	}
	if err := p.Push("nope", Event{}); err == nil {
		t.Fatal("push to unknown source succeeded")
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := p.Drain(); err != nil {
		t.Fatalf("double drain: %v", err)
	}
	if err := p.Push("in", Event{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after drain: %v", err)
	}
}

// TestPushRacingDrainNeverPanics races pushers against Drain: a push either
// lands before the source closes (and reaches the sink) or returns
// ErrClosed — it never sends on a closed channel.
func TestPushRacingDrainNeverPanics(t *testing.T) {
	const rounds, pushers = 300, 4
	for round := 0; round < rounds; round++ {
		p := NewPipeline("t", WithChannelSize(1))
		var pushing sync.WaitGroup
		var delivered, accepted int64
		var mu sync.Mutex
		p.Source("in").Sink("out", func(Event) {
			mu.Lock()
			delivered++
			mu.Unlock()
		})
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		// Drain starts once every pusher is under way, so pushes are in
		// flight — some blocked on the one-slot source channel — as it runs.
		var running sync.WaitGroup
		for w := 0; w < pushers; w++ {
			pushing.Add(1)
			running.Add(1)
			go func() {
				defer pushing.Done()
				for i := 0; ; i++ {
					err := p.Push("in", ev("k", time.Duration(i), 1))
					if i == 0 {
						running.Done()
					}
					if errors.Is(err, ErrClosed) {
						return
					}
					if err != nil {
						t.Errorf("push: %v", err)
						return
					}
					mu.Lock()
					accepted++
					mu.Unlock()
				}
			}()
		}
		running.Wait()
		if err := p.Drain(); err != nil {
			t.Fatal(err)
		}
		pushing.Wait()
		if delivered != accepted {
			t.Fatalf("round %d: %d pushes accepted, %d reached the sink", round, accepted, delivered)
		}
	}
}

func TestPipelineInvalidWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid window spec did not panic at build time")
		}
	}()
	p := NewPipeline("t")
	p.Source("in").Window("bad", 1, Tumbling(0), Sum())
}

func TestPipelineKeyedDeterminism(t *testing.T) {
	// Two identical runs must produce identical window results despite
	// parallel workers, because keys are partitioned deterministically.
	run := func() []Event {
		p := NewPipeline("t")
		sink := &collectSink{}
		p.Source("in").
			Window("count", 4, Tumbling(10*time.Second), Sum()).
			Sink("out", sink.add)
		_ = p.Start()
		for i := 0; i < 500; i++ {
			_ = p.Push("in", ev(fmt.Sprintf("k%d", i%7), time.Duration(i)*100*time.Millisecond, 1))
		}
		_ = p.Drain()
		events := sink.all()
		sort.Slice(events, func(i, j int) bool {
			if !events[i].Time.Equal(events[j].Time) {
				return events[i].Time.Before(events[j].Time)
			}
			return events[i].Key < events[j].Key
		})
		return events
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Value != b[i].Value || !a[i].Time.Equal(b[i].Time) {
			t.Fatalf("runs diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestPipelineHighVolume(t *testing.T) {
	p := NewPipeline("t", WithChannelSize(512))
	var total struct {
		mu  sync.Mutex
		sum float64
	}
	p.Source("in").
		Window("sum", 4, Tumbling(time.Second), Sum()).
		Sink("out", func(e Event) {
			total.mu.Lock()
			total.sum += e.Value
			total.mu.Unlock()
		})
	_ = p.Start()
	const n = 20000
	for i := 0; i < n; i++ {
		_ = p.Push("in", ev(fmt.Sprintf("k%d", i%32), time.Duration(i)*time.Millisecond, 1))
	}
	_ = p.Drain()
	total.mu.Lock()
	defer total.mu.Unlock()
	if total.sum != n {
		t.Fatalf("sum = %v, want %d (events lost or duplicated)", total.sum, n)
	}
}

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

func TestPipelineMapFilterSink(t *testing.T) {
	p := NewPipeline("t")
	sink := &collectSink{}
	p.Source("in").
		Map("double", 2, func(e Event) Event { e.Value *= 2; return e }).
		Filter("big", 2, func(e Event) bool { return e.Value >= 10 }).
		Sink("out", sink.add)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := p.Push("in", ev(fmt.Sprintf("k%d", i), time.Duration(i)*time.Second, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	got := sink.all()
	if len(got) != 6 { // 5..10 doubled are >= 10
		t.Fatalf("sink got %d events, want 6", len(got))
	}
	for _, e := range got {
		if e.Value < 10 {
			t.Fatalf("filter leaked %v", e.Value)
		}
	}
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

func TestPipelineFlatMap(t *testing.T) {
	p := NewPipeline("t")
	sink := &collectSink{}
	p.Source("in").
		FlatMap("explode", 1, func(e Event, out func(Event)) {
			for i := 0; i < int(e.Value); i++ {
				out(Event{Key: e.Key, Time: e.Time, Value: 1})
			}
		}).
		Sink("out", sink.add)
	_ = p.Start()
	_ = p.Push("in", ev("a", time.Second, 3))
	_ = p.Push("in", ev("b", time.Second, 0))
	_ = p.Drain()
	if got := len(sink.all()); got != 3 {
		t.Fatalf("flatmap emitted %d, want 3", got)
	}
}

func TestPipelineFanOut(t *testing.T) {
	p := NewPipeline("t")
	sinkA, sinkB := &collectSink{}, &collectSink{}
	src := p.Source("in")
	src.Map("a", 1, func(e Event) Event { return e }).Sink("outA", sinkA.add)
	src.Map("b", 1, func(e Event) Event { return e }).Sink("outB", sinkB.add)
	_ = p.Start()
	for i := 0; i < 20; i++ {
		_ = p.Push("in", ev("k", time.Duration(i)*time.Second, float64(i)))
	}
	_ = p.Drain()
	if len(sinkA.all()) != 20 || len(sinkB.all()) != 20 {
		t.Fatalf("fan-out lost events: %d, %d", len(sinkA.all()), len(sinkB.all()))
	}
}

func TestPipelineJoinWindow(t *testing.T) {
	p := NewPipeline("t")
	sink := &collectSink{}
	left := p.Source("left")
	right := p.Source("right")
	joined := left.JoinWindow("lr", 2, right, Tumbling(10*time.Second),
		func(key string, win Window, l, r []Event) []Event {
			var out []Event
			for _, le := range l {
				for _, re := range r {
					out = append(out, Event{
						Key:   key,
						Time:  win.End,
						Value: le.Value * re.Value,
					})
				}
			}
			return out
		})
	joined.Sink("out", sink.add)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	// Window [0,10): key a has left=2, right=3 -> product 6.
	_ = p.Push("left", ev("a", time.Second, 2))
	_ = p.Push("right", ev("a", 2*time.Second, 3))
	// Key b has only left: no output.
	_ = p.Push("left", ev("b", 3*time.Second, 5))
	_ = p.Drain()
	got := sink.all()
	if len(got) != 1 {
		t.Fatalf("join emitted %d, want 1: %v", len(got), got)
	}
	if got[0].Key != "a" || got[0].Value != 6 {
		t.Fatalf("join result = %+v", got[0])
	}
}

func TestPipelineJoinManyWindows(t *testing.T) {
	p := NewPipeline("t")
	sink := &collectSink{}
	left := p.Source("left")
	right := p.Source("right")
	left.JoinWindow("lr", 4, right, Tumbling(10*time.Second),
		func(key string, win Window, l, r []Event) []Event {
			if len(l) > 0 && len(r) > 0 {
				return []Event{{Key: key, Time: win.End, Value: float64(len(l) * len(r))}}
			}
			return nil
		}).Sink("out", sink.add)
	_ = p.Start()
	for w := 0; w < 5; w++ {
		base := time.Duration(w) * 10 * time.Second
		for k := 0; k < 3; k++ {
			key := fmt.Sprintf("k%d", k)
			_ = p.Push("left", ev(key, base+time.Second, 1))
			_ = p.Push("left", ev(key, base+2*time.Second, 1))
			_ = p.Push("right", ev(key, base+3*time.Second, 1))
		}
	}
	_ = p.Drain()
	got := sink.all()
	if len(got) != 15 { // 5 windows × 3 keys
		t.Fatalf("join results = %d, want 15", len(got))
	}
	for _, e := range got {
		if e.Value != 2 { // 2 left × 1 right
			t.Fatalf("pair count = %v, want 2", e.Value)
		}
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
			Window("count", 4, Tumbling(10*time.Second), Count()).
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
		Map("noop", 4, func(e Event) Event { return e }).
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

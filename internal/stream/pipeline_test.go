package stream

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"arbd/internal/metrics"
)

// collectSink gathers sink output. The pipeline calls a sink one event at a
// time under its lock, so it needs none of its own.
type collectSink struct {
	events []Event
}

func (c *collectSink) add(e Event) { c.events = append(c.events, e) }

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
	got := sink.events
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
	if len(sinkA.events) != 20 || len(sinkB.events) != 20 {
		t.Fatalf("fan-out lost events: %d, %d", len(sinkA.events), len(sinkB.events))
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
// runs to the sink before Drain closes the pipeline or returns ErrClosed —
// none is lost in between and none panics.
func TestPushRacingDrainNeverPanics(t *testing.T) {
	const rounds, pushers = 300, 4
	for round := 0; round < rounds; round++ {
		p := NewPipeline("t")
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
		// flight — some waiting on the pipeline's lock — as it runs.
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
	// Two identical runs must produce identical window results across
	// partitions, because keys are partitioned deterministically.
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
		events := sink.events
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
	p := NewPipeline("t")
	var total float64
	p.Source("in").
		Window("sum", 4, Tumbling(time.Second), Sum()).
		Sink("out", func(e Event) { total += e.Value })
	_ = p.Start()
	const n = 20000
	for i := 0; i < n; i++ {
		_ = p.Push("in", ev(fmt.Sprintf("k%d", i%32), time.Duration(i)*time.Millisecond, 1))
	}
	_ = p.Drain()
	if total != n {
		t.Fatalf("sum = %v, want %d (events lost or duplicated)", total, n)
	}
}

// TestPushFoldsBeforeReturning: a Push whose event moves the watermark past
// a window's end returns only once the sink holds that window's result.
func TestPushFoldsBeforeReturning(t *testing.T) {
	p := NewPipeline("t")
	sink := &collectSink{}
	p.Source("in").
		Window("sum1m", 4, Tumbling(time.Minute), Sum()).
		Sink("out", sink.add)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	for _, e := range []Event{ev("a", 10*time.Second, 2), ev("a", 20*time.Second, 3)} {
		if err := p.Push("in", e); err != nil {
			t.Fatal(err)
		}
	}
	if got := sink.events; len(got) != 0 {
		t.Fatalf("open window emitted %v", got)
	}
	if err := p.Push("in", ev("a", 61*time.Second, 1)); err != nil {
		t.Fatal(err)
	}
	want := []Event{{Key: "a", Time: w0.Add(time.Minute), Value: 5}}
	if got := sink.events; !reflect.DeepEqual(got, want) {
		t.Fatalf("after the closing push the sink holds %v, want %v", got, want)
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineMatchesPartitionedWindows pins what a Window's partition count
// means for its results: the pipeline emits exactly what partitionOf plus
// one windowState per partition emit, result for result and in order, with
// the late drops counted in the registry. The event times jitter back
// across window boundaries, so some events arrive after their window fired.
func TestPipelineMatchesPartitionedWindows(t *testing.T) {
	for _, partitions := range []int{1, 4, 7} {
		rng := rand.New(rand.NewSource(42))
		events := make([]Event, 5000)
		now := time.Duration(0)
		for i := range events {
			now += time.Duration(rng.Intn(40)) * time.Millisecond
			at := now - time.Duration(rng.Intn(3000))*time.Millisecond
			events[i] = ev(fmt.Sprintf("k%d", rng.Intn(20)), at, float64(rng.Intn(9)))
		}

		reg := metrics.NewRegistry()
		p := NewPipeline("t", withRegistry(reg))
		sink := &collectSink{}
		p.Source("in").
			Window("sum10", partitions, Tumbling(10*time.Second), Sum()).
			Sink("out", sink.add)
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		for _, e := range events {
			if err := p.Push("in", e); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Drain(); err != nil {
			t.Fatal(err)
		}

		states := make([]*windowState, partitions)
		for i := range states {
			states[i] = newWindowState(Tumbling(10*time.Second), Sum())
		}
		var want []Event
		for _, e := range events {
			want = append(want, states[partitionOf(e.Key, partitions)].add(e)...)
		}
		lateDrops := 0
		for _, ws := range states {
			want = append(want, ws.flush()...)
			lateDrops += ws.lateDrops
		}

		if got := sink.events; !reflect.DeepEqual(got, want) {
			t.Fatalf("partitions %d: %d results differ from the oracle's %d", partitions, len(got), len(want))
		}
		if got := reg.Counter("stream.t.late_dropped.sum10").Value(); got != int64(lateDrops) {
			t.Fatalf("partitions %d: late_dropped counter %d, oracle %d", partitions, got, lateDrops)
		}
		if len(want) == 0 || lateDrops == 0 {
			t.Fatalf("partitions %d: degenerate run: %d results, %d late drops", partitions, len(want), lateDrops)
		}
	}
}

package stream

import (
	"testing"
	"time"
)

var w0 = time.Date(2017, 6, 5, 12, 0, 0, 0, time.UTC)

func ev(key string, offset time.Duration, v float64) Event {
	return Event{Key: key, Time: w0.Add(offset), Value: v}
}

func TestTumblingAssign(t *testing.T) {
	win := Tumbling(10 * time.Second).assign(w0.Add(13 * time.Second))
	if !win.Start.Equal(w0.Add(10*time.Second)) || !win.End.Equal(w0.Add(20*time.Second)) {
		t.Fatalf("window = %v", win)
	}
}

func TestWindowSpecValidity(t *testing.T) {
	cases := []struct {
		spec WindowSpec
		ok   bool
	}{
		{Tumbling(time.Second), true},
		{Tumbling(0), false},
		{Tumbling(-time.Second), false},
		{WindowSpec{}, false},
	}
	for i, c := range cases {
		if got := c.spec.valid(); got != c.ok {
			t.Errorf("case %d: valid = %v, want %v", i, got, c.ok)
		}
	}
}

func TestTumblingWindowStateFiresOnWatermark(t *testing.T) {
	ws := newWindowState(Tumbling(10*time.Second), Sum())
	var fired []Event
	fired = append(fired, ws.add(ev("a", 1*time.Second, 1))...)
	fired = append(fired, ws.add(ev("a", 5*time.Second, 2))...)
	if len(fired) != 0 {
		t.Fatalf("fired early: %v", fired)
	}
	// Crossing into the next window fires the first.
	fired = append(fired, ws.add(ev("a", 11*time.Second, 4))...)
	if len(fired) != 1 {
		t.Fatalf("fired %d, want 1", len(fired))
	}
	if fired[0].Value != 3 {
		t.Fatalf("sum = %v, want 3", fired[0].Value)
	}
	if fired[0].Key != "a" || !fired[0].Time.Equal(w0.Add(10*time.Second)) {
		t.Fatalf("result = %+v, want key a at the window end", fired[0])
	}
}

func TestWindowDropsTooLateEvents(t *testing.T) {
	ws := newWindowState(Tumbling(10*time.Second), Sum())
	ws.add(ev("a", 1*time.Second, 1))
	ws.add(ev("a", 15*time.Second, 1)) // fires [0,10)
	before := ws.lateDrops
	ws.add(ev("a", 2*time.Second, 99)) // hopeless straggler
	if ws.lateDrops != before+1 {
		t.Fatalf("late event not counted dropped")
	}
}

func TestWindowPerKeyIsolation(t *testing.T) {
	ws := newWindowState(Tumbling(10*time.Second), Sum())
	ws.add(ev("a", 1*time.Second, 1))
	ws.add(ev("b", 2*time.Second, 10))
	fired := ws.add(ev("c", 12*time.Second, 0))
	if len(fired) != 2 {
		t.Fatalf("fired %d results, want 2", len(fired))
	}
	// Deterministic order: same window end, keys sorted.
	if fired[0].Key != "a" || fired[1].Key != "b" {
		t.Fatalf("order = %s, %s", fired[0].Key, fired[1].Key)
	}
	if fired[0].Value != 1 || fired[1].Value != 10 {
		t.Fatalf("values = %v, %v", fired[0].Value, fired[1].Value)
	}
}

func TestFlushEmitsPending(t *testing.T) {
	ws := newWindowState(Tumbling(time.Minute), Sum())
	ws.add(ev("x", time.Second, 2))
	ws.add(ev("x", 2*time.Second, 4))
	fired := ws.flush()
	if len(fired) != 1 || fired[0].Value != 6 {
		t.Fatalf("flush = %v", fired)
	}
	if again := ws.flush(); len(again) != 0 {
		t.Fatalf("second flush re-emitted: %v", again)
	}
}

func TestAggregators(t *testing.T) {
	events := []Event{ev("k", 0, 4), ev("k", time.Second, 1), ev("k", 2*time.Second, 7)}
	cases := []struct {
		agg  Aggregator
		want float64
	}{
		{Sum(), 12},
	}
	for _, c := range cases {
		acc := c.agg.New()
		for _, e := range events {
			acc = c.agg.Add(acc, e)
		}
		if got := c.agg.Result(acc); got != c.want {
			t.Errorf("%s = %v, want %v", c.agg.Name, got, c.want)
		}
	}
}

func TestAggregatorsEmpty(t *testing.T) {
	if got := Sum().Result(Sum().New()); got != 0 {
		t.Errorf("empty sum = %v", got)
	}
}

func TestPartitionOf(t *testing.T) {
	if partitionOf("anything", 1) != 0 {
		t.Fatal("single partition must be 0")
	}
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		p := partitionOf(string(rune('a'+i%26))+"-suffix", 4)
		if p < 0 || p >= 4 {
			t.Fatalf("partition %d out of range", p)
		}
		seen[p] = true
	}
	if len(seen) < 2 {
		t.Fatal("partitioning degenerate")
	}
	if partitionOf("stable", 8) != partitionOf("stable", 8) {
		t.Fatal("partition not stable")
	}
}

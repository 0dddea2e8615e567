package stream

import (
	"math"
	"testing"
	"time"
)

var w0 = time.Date(2017, 6, 5, 12, 0, 0, 0, time.UTC)

func ev(key string, offset time.Duration, v float64) Event {
	return Event{Key: key, Time: w0.Add(offset), Value: v}
}

// assigned expands assign's (newest, n) into the windows it stands for.
func assigned(spec WindowSpec, t time.Time) []Window {
	var wins []Window
	for win, n := spec.assign(t); n > 0; win, n = win.earlier(spec.slide), n-1 {
		wins = append(wins, win)
	}
	return wins
}

func TestTumblingAssign(t *testing.T) {
	spec := Tumbling(10 * time.Second)
	wins := assigned(spec, w0.Add(13*time.Second))
	if len(wins) != 1 {
		t.Fatalf("assigned %d windows", len(wins))
	}
	if !wins[0].Start.Equal(w0.Add(10*time.Second)) || !wins[0].End.Equal(w0.Add(20*time.Second)) {
		t.Fatalf("window = %v", wins[0])
	}
}

func TestSlidingAssign(t *testing.T) {
	spec := Sliding(30*time.Second, 10*time.Second)
	wins := assigned(spec, w0.Add(25*time.Second))
	if len(wins) != 3 {
		t.Fatalf("assigned %d windows, want 3", len(wins))
	}
	for _, w := range wins {
		if w0.Add(25*time.Second).Before(w.Start) || !w0.Add(25*time.Second).Before(w.End) {
			t.Fatalf("event outside assigned window %v", w)
		}
		if w.End.Sub(w.Start) != 30*time.Second {
			t.Fatalf("window size %v", w.End.Sub(w.Start))
		}
	}
}

func TestWindowSpecValidity(t *testing.T) {
	cases := []struct {
		spec WindowSpec
		ok   bool
	}{
		{Tumbling(time.Second), true},
		{Tumbling(0), false},
		{Sliding(10*time.Second, 5*time.Second), true},
		{Sliding(5*time.Second, 10*time.Second), false}, // slide > size
		{Sliding(10*time.Second, 0), false},
		{Session(time.Second), true},
		{Session(0), false},
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
	wr := fired[0].Payload.(WindowResult)
	if wr.Count != 2 || !wr.Window.Start.Equal(w0) {
		t.Fatalf("result payload = %+v", wr)
	}
}

func TestWindowLatenessHoldsFiring(t *testing.T) {
	ws := newWindowState(Tumbling(10*time.Second).WithLateness(5*time.Second), Sum())
	ws.add(ev("a", 1*time.Second, 1))
	// t=12s: watermark 7s < window end 10s: no fire yet.
	if fired := ws.add(ev("a", 12*time.Second, 1)); len(fired) != 0 {
		t.Fatalf("fired with watermark before window end")
	}
	// Late event for [0,10) still accepted (watermark 7s).
	ws.add(ev("a", 9*time.Second, 10))
	// t=16s: watermark 11s >= 10: fires with the late event included.
	fired := ws.add(ev("a", 16*time.Second, 1))
	if len(fired) != 1 || fired[0].Value != 11 {
		t.Fatalf("fired = %v", fired)
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

func TestSlidingWindowCounts(t *testing.T) {
	// Size 20s slide 10s: event at t=5 belongs to [0,20) and [-10,10).
	ws := newWindowState(Sliding(20*time.Second, 10*time.Second), Count())
	ws.add(ev("k", 5*time.Second, 1))
	fired := ws.add(ev("k", 31*time.Second, 1))
	if len(fired) != 2 {
		t.Fatalf("fired %d, want 2 overlapping windows", len(fired))
	}
	for _, f := range fired {
		if f.Value != 1 {
			t.Fatalf("count = %v, want 1", f.Value)
		}
	}
	// Windows fire ordered by end time.
	e0 := fired[0].Payload.(WindowResult).Window.End
	e1 := fired[1].Payload.(WindowResult).Window.End
	if !e0.Before(e1) {
		t.Fatalf("fire order wrong: %v then %v", e0, e1)
	}
}

func TestSessionWindowMergesAndFires(t *testing.T) {
	ws := newWindowState(Session(10*time.Second), Count())
	ws.add(ev("u", 0, 1))
	ws.add(ev("u", 5*time.Second, 1))  // same session
	ws.add(ev("u", 12*time.Second, 1)) // extends session (gap from t=5 is 7s < 10s)
	// An event far in the future closes the session.
	fired := ws.add(ev("u", 60*time.Second, 1))
	if len(fired) != 1 {
		t.Fatalf("fired %d sessions, want 1", len(fired))
	}
	if fired[0].Value != 3 {
		t.Fatalf("session count = %v, want 3", fired[0].Value)
	}
	win := fired[0].Payload.(WindowResult).Window
	if !win.Start.Equal(w0) {
		t.Fatalf("session start = %v", win.Start)
	}
}

func TestSessionWindowSeparateSessions(t *testing.T) {
	ws := newWindowState(Session(5*time.Second), Count())
	var fired []Event
	fired = append(fired, ws.add(ev("u", 0, 1))...)
	fired = append(fired, ws.add(ev("u", 20*time.Second, 1))...) // closes first session
	fired = append(fired, ws.add(ev("u", 60*time.Second, 1))...) // closes second
	fired = append(fired, ws.flush()...)                         // flushes third
	if len(fired) != 3 {
		t.Fatalf("total sessions = %d, want 3", len(fired))
	}
	for _, f := range fired {
		if f.Value != 1 {
			t.Fatalf("session count = %v, want 1", f.Value)
		}
	}
}

func TestSessionOutOfOrderMerge(t *testing.T) {
	// Events arriving out of order should still coalesce into one session.
	ws := newWindowState(Session(10*time.Second).WithLateness(time.Minute), Count())
	ws.add(ev("u", 8*time.Second, 1))
	ws.add(ev("u", 0*time.Second, 1))
	ws.add(ev("u", 4*time.Second, 1))
	fired := ws.flush()
	if len(fired) != 1 || fired[0].Value != 3 {
		t.Fatalf("sessions = %v", fired)
	}
}

func TestFlushEmitsPending(t *testing.T) {
	ws := newWindowState(Tumbling(time.Minute), Mean())
	ws.add(ev("x", time.Second, 2))
	ws.add(ev("x", 2*time.Second, 4))
	fired := ws.flush()
	if len(fired) != 1 || fired[0].Value != 3 {
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
		{Count(), 3},
		{Sum(), 12},
		{Mean(), 4},
		{Min(), 1},
		{Max(), 7},
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
	for _, agg := range []Aggregator{Mean(), Min(), Max()} {
		if got := agg.Result(agg.New()); !math.IsNaN(got) {
			t.Errorf("%s on empty = %v, want NaN", agg.Name, got)
		}
	}
	if got := Count().Result(Count().New()); got != 0 {
		t.Errorf("empty count = %v", got)
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

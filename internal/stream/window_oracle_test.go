package stream

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// scanWindowState is the tumbling window operator as it was before
// windowState tracked the earliest close time: every live (key, window)
// visited whenever the watermark moved. It is kept as the oracle
// windowState must agree with, result for result and in the same emit
// order.
type scanWindowState struct {
	spec      WindowSpec
	agg       Aggregator
	accs      map[string]map[int64]*windowAcc
	watermark time.Time
	maxSeen   time.Time
	firedWM   time.Time
	lateDrops int
}

func (o *scanWindowState) add(e Event) []Event {
	if e.Time.After(o.maxSeen) {
		o.maxSeen = e.Time
	}
	if o.maxSeen.After(o.watermark) {
		o.watermark = o.maxSeen
	}
	start := e.Time.Truncate(o.spec.size)
	win := Window{Start: start, End: start.Add(o.spec.size)}
	if !e.Time.After(o.watermark) && !win.End.After(o.watermark) {
		o.lateDrops++
		return o.fire()
	}
	keyAccs, ok := o.accs[e.Key]
	if !ok {
		keyAccs = make(map[int64]*windowAcc)
		o.accs[e.Key] = keyAccs
	}
	if win.End.After(o.watermark) {
		wa, ok := keyAccs[win.Start.UnixNano()]
		if !ok {
			wa = &windowAcc{win: win, acc: o.agg.New()}
			keyAccs[win.Start.UnixNano()] = wa
		}
		wa.acc = o.agg.Add(wa.acc, e)
	}
	return o.fire()
}

func (o *scanWindowState) fire() []Event {
	if !o.watermark.After(o.firedWM) {
		return nil
	}
	o.firedWM = o.watermark
	return o.collect(func(wa *windowAcc) bool { return !wa.win.End.After(o.watermark) })
}

func (o *scanWindowState) collect(ready func(*windowAcc) bool) []Event {
	var accs []*windowAcc
	var keys []string
	for key, keyAccs := range o.accs {
		for id, wa := range keyAccs {
			if ready(wa) {
				accs = append(accs, wa)
				keys = append(keys, key)
				delete(keyAccs, id)
			}
		}
		if len(keyAccs) == 0 {
			delete(o.accs, key)
		}
	}
	return (&windowState{agg: o.agg}).emit(accs, keys)
}

// TestWindowStateMatchesScanOracle drives the operator and the oracle with
// the same randomised, out-of-order event sequences over two window sizes
// and requires the same results from every add,
// in the same order, the same late drops, and the same leftovers at flush.
func TestWindowStateMatchesScanOracle(t *testing.T) {
	specs := []WindowSpec{
		Tumbling(10 * time.Second),
		Tumbling(time.Minute),
	}
	for si, spec := range specs {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(si)))
			ws := newWindowState(spec, Sum())
			oracle := &scanWindowState{spec: spec, agg: Sum(), accs: make(map[string]map[int64]*windowAcc)}
			now := time.Duration(0)
			fired := 0
			for i := 0; i < 3000; i++ {
				// Event time drifts forward with jitter both ways: some events
				// are late but inside a live window, some hopelessly late,
				// and some land exactly on a window boundary.
				now += time.Duration(rng.Intn(400)) * time.Millisecond
				at := now - time.Duration(rng.Intn(200_000))*time.Millisecond*time.Duration(rng.Intn(2))
				if rng.Intn(10) == 0 {
					at = at.Truncate(10 * time.Second)
				}
				e := ev(fmt.Sprintf("k%d", rng.Intn(12)), at, float64(rng.Intn(9)))
				got, want := ws.add(e), oracle.add(e)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("spec %d seed %d event %d (%v): fired\n got %v\nwant %v", si, seed, i, e, got, want)
				}
				fired += len(want)
			}
			if ws.lateDrops != oracle.lateDrops {
				t.Fatalf("spec %d seed %d: late drops %d, oracle %d", si, seed, ws.lateDrops, oracle.lateDrops)
			}
			got, want := ws.flush(), oracle.collect(func(*windowAcc) bool { return true })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("spec %d seed %d: flush\n got %v\nwant %v", si, seed, got, want)
			}
			if fired == 0 || oracle.lateDrops == 0 {
				t.Fatalf("spec %d seed %d: degenerate run: %d results, %d late drops", si, seed, fired, oracle.lateDrops)
			}
		}
	}
}

// TestTumblingWindowScansOnlyAtClose pins the cost the earliest-close
// tracking is there for: every new timestamp moves the
// watermark, and none of the 10,000 events over 1,000 keys inside one window
// may trigger a walk of the live keys. The first event past the window's end
// triggers exactly one, which fires all 1,000.
func TestTumblingWindowScansOnlyAtClose(t *testing.T) {
	ws := newWindowState(Tumbling(time.Minute), Sum())
	for i := 0; i < 10_000; i++ {
		at := time.Duration(i) * 5 * time.Millisecond // 50 s: inside [12:00, 12:01)
		if fired := ws.add(ev(fmt.Sprintf("poi-%d", i%1000), at, 1)); len(fired) != 0 {
			t.Fatalf("event %d fired %d results inside the window", i, len(fired))
		}
	}
	if ws.scans != 0 {
		t.Fatalf("%d full scans before the window could close, want 0", ws.scans)
	}
	fired := ws.add(ev("poi-0", time.Minute, 1))
	if len(fired) != 1000 || ws.scans != 1 {
		t.Fatalf("closing event fired %d results in %d scans, want 1000 in 1", len(fired), ws.scans)
	}
	// The next window is live and tracked: no scan until it, too, can close.
	ws.add(ev("poi-1", time.Minute+time.Second, 1))
	if ws.scans != 1 {
		t.Fatalf("scanned again (%d) with the next window still open", ws.scans)
	}
}

// TestTumblingAssignDoesNotAllocate: the per-event path of the platform's
// per-poi-1m operator must not allocate to learn which window an event is in.
func TestTumblingAssignDoesNotAllocate(t *testing.T) {
	spec := Tumbling(time.Minute)
	at := w0.Add(13 * time.Second)
	var win Window
	if allocs := testing.AllocsPerRun(100, func() { win = spec.assign(at) }); allocs != 0 {
		t.Fatalf("assign allocates %.1f objects per call, want 0", allocs)
	}
	if !win.Start.Equal(w0) {
		t.Fatalf("window = %v", win)
	}
}

package stream

import (
	"sort"
	"time"
)

// WindowSpec describes how events map to windows. Construct it with
// Tumbling; the zero value is invalid.
type WindowSpec struct {
	size time.Duration
}

// Tumbling returns non-overlapping fixed windows of the given size.
func Tumbling(size time.Duration) WindowSpec {
	return WindowSpec{size: size}
}

// valid reports whether the spec is usable.
func (w WindowSpec) valid() bool { return w.size > 0 }

// assign returns the window an event at t belongs to.
func (w WindowSpec) assign(t time.Time) Window {
	start := t.Truncate(w.size)
	return Window{Start: start, End: start.Add(w.size)}
}

// windowState is the state of one partition of a window operator:
// accumulators keyed by (key, window), fired in watermark order. The
// watermark is the newest event time seen, so a window fires on the first
// event past its end and a later event for it is dropped.
type windowState struct {
	spec WindowSpec
	agg  Aggregator
	// accs maps key -> window start (unix nanos) -> accumulator.
	accs      map[string]map[int64]*windowAcc
	watermark time.Time
	// nextClose is the earliest End among live windows (zero: none live).
	// Until the watermark reaches it no window can fire, so fire does not
	// look: the watermark moves on every new timestamp, and a scan per
	// event is a walk over every live key.
	nextClose time.Time
	scans     int // full walks of accs by fire
	lateDrops int
}

type windowAcc struct {
	win Window
	acc any
}

func newWindowState(spec WindowSpec, agg Aggregator) *windowState {
	return &windowState{spec: spec, agg: agg, accs: make(map[string]map[int64]*windowAcc)}
}

// add folds e into its window and returns any results that became final.
func (ws *windowState) add(e Event) []Event {
	if e.Time.After(ws.watermark) {
		ws.watermark = e.Time
	}
	win := ws.spec.assign(e.Time)
	if !win.End.After(ws.watermark) {
		// The event's window has closed: dropped.
		ws.lateDrops++
		return ws.fire()
	}
	keyAccs, ok := ws.accs[e.Key]
	if !ok {
		keyAccs = make(map[int64]*windowAcc)
		ws.accs[e.Key] = keyAccs
	}
	id := win.Start.UnixNano()
	wa, ok := keyAccs[id]
	if !ok {
		wa = &windowAcc{win: win, acc: ws.agg.New()}
		keyAccs[id] = wa
		if ws.nextClose.IsZero() || win.End.Before(ws.nextClose) {
			ws.nextClose = win.End
		}
	}
	wa.acc = ws.agg.Add(wa.acc, e)
	return ws.fire()
}

// fire emits results for every window whose end is at or before the
// watermark, in (window end, key) order for determinism. It scans only once
// the watermark has reached the earliest live End.
func (ws *windowState) fire() []Event {
	if ws.nextClose.IsZero() || ws.nextClose.After(ws.watermark) {
		return nil
	}
	ws.scans++
	ws.nextClose = time.Time{}
	var ready []*windowAcc
	var keys []string
	for key, keyAccs := range ws.accs {
		for id, wa := range keyAccs {
			if !wa.win.End.After(ws.watermark) {
				ready = append(ready, wa)
				keys = append(keys, key)
				delete(keyAccs, id)
			} else if ws.nextClose.IsZero() || wa.win.End.Before(ws.nextClose) {
				ws.nextClose = wa.win.End
			}
		}
		if len(keyAccs) == 0 {
			delete(ws.accs, key)
		}
	}
	return ws.emit(ready, keys)
}

// flush emits every remaining window regardless of watermark (end of
// stream).
func (ws *windowState) flush() []Event {
	var ready []*windowAcc
	var keys []string
	for key, keyAccs := range ws.accs {
		for id, wa := range keyAccs {
			ready = append(ready, wa)
			keys = append(keys, key)
			delete(keyAccs, id)
		}
		delete(ws.accs, key)
	}
	ws.nextClose = time.Time{}
	return ws.emit(ready, keys)
}

func (ws *windowState) emit(ready []*windowAcc, keys []string) []Event {
	if len(ready) == 0 {
		return nil
	}
	idx := make([]int, len(ready))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		wa, wb := ready[idx[a]], ready[idx[b]]
		if !wa.win.End.Equal(wb.win.End) {
			return wa.win.End.Before(wb.win.End)
		}
		return keys[idx[a]] < keys[idx[b]]
	})
	out := make([]Event, 0, len(ready))
	for _, i := range idx {
		wa := ready[i]
		out = append(out, Event{Key: keys[i], Time: wa.win.End, Value: ws.agg.Result(wa.acc)})
	}
	return out
}

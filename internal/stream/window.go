package stream

import (
	"sort"
	"time"
)

// WindowSpec describes how events map to windows. Exactly one constructor
// should be used; the zero value is invalid.
type WindowSpec struct {
	kind     windowKind
	size     time.Duration
	slide    time.Duration
	gap      time.Duration
	lateness time.Duration
}

type windowKind int

const (
	windowTumbling windowKind = iota + 1
	windowSliding
	windowSession
)

// Tumbling returns non-overlapping fixed windows of the given size.
func Tumbling(size time.Duration) WindowSpec {
	return WindowSpec{kind: windowTumbling, size: size}
}

// Sliding returns overlapping windows of the given size emitted every slide.
func Sliding(size, slide time.Duration) WindowSpec {
	return WindowSpec{kind: windowSliding, size: size, slide: slide}
}

// Session returns per-key windows that close after gap of inactivity.
func Session(gap time.Duration) WindowSpec {
	return WindowSpec{kind: windowSession, gap: gap}
}

// WithLateness returns a copy of the spec tolerating out-of-order events up
// to d behind the max observed event time before windows fire.
func (w WindowSpec) WithLateness(d time.Duration) WindowSpec {
	w.lateness = d
	return w
}

// valid reports whether the spec is usable.
func (w WindowSpec) valid() bool {
	switch w.kind {
	case windowTumbling:
		return w.size > 0
	case windowSliding:
		return w.size > 0 && w.slide > 0 && w.slide <= w.size
	case windowSession:
		return w.gap > 0
	default:
		return false
	}
}

// assign returns the newest window an event at t belongs to and how many it
// belongs to in all: one for tumbling windows, size/slide (rounded up) for
// sliding ones, each starting one slide before the one after it — see
// Window.earlier. Session windows are handled separately by the session
// operator and get none.
func (w WindowSpec) assign(t time.Time) (newest Window, n int) {
	switch w.kind {
	case windowTumbling:
		start := t.Truncate(w.size)
		return Window{Start: start, End: start.Add(w.size)}, 1
	case windowSliding:
		// The newest window is the latest starting at or before t; earlier
		// ones still cover t while they start less than size before it.
		start := t.Truncate(w.slide)
		n = int((w.size-t.Sub(start)-1)/w.slide) + 1
		return Window{Start: start, End: start.Add(w.size)}, n
	default:
		return Window{}, 0
	}
}

// earlier returns the window one slide before win.
func (win Window) earlier(slide time.Duration) Window {
	return Window{Start: win.Start.Add(-slide), End: win.End.Add(-slide)}
}

// windowState is the per-worker state of a window operator: accumulators
// keyed by (key, window), fired in watermark order.
type windowState struct {
	spec WindowSpec
	agg  Aggregator
	// accs maps key -> window start (unix nanos) -> accumulator.
	accs      map[string]map[int64]*windowAcc
	watermark time.Time
	maxSeen   time.Time
	// nextClose is the earliest End among live tumbling/sliding windows (zero:
	// none live). Until the watermark reaches it no window can fire, so fire
	// does not look: with zero lateness the watermark moves on every new
	// timestamp, and a scan per event is a walk over every live key.
	nextClose time.Time
	firedWM   time.Time // session windows: watermark at the last fire scan
	scans     int       // full walks of accs by fire
	lateDrops int
}

type windowAcc struct {
	win   Window
	acc   any
	count int
	last  time.Time // session windows: last event time
}

func newWindowState(spec WindowSpec, agg Aggregator) *windowState {
	return &windowState{spec: spec, agg: agg, accs: make(map[string]map[int64]*windowAcc)}
}

// add folds e into its windows and returns any results that became final.
func (ws *windowState) add(e Event) []Event {
	if e.Time.After(ws.maxSeen) {
		ws.maxSeen = e.Time
	}
	newWM := ws.maxSeen.Add(-ws.spec.lateness)
	if newWM.After(ws.watermark) {
		ws.watermark = newWM
	}

	if ws.spec.kind == windowSession {
		ws.addSession(e)
		return ws.fire()
	}
	win, n := ws.spec.assign(e.Time)
	if !win.End.After(ws.watermark) {
		// Even the newest window the event belongs to has closed: dropped.
		ws.lateDrops++
		return ws.fire()
	}
	keyAccs, ok := ws.accs[e.Key]
	if !ok {
		keyAccs = make(map[int64]*windowAcc)
		ws.accs[e.Key] = keyAccs
	}
	for ; n > 0 && win.End.After(ws.watermark); win, n = win.earlier(ws.spec.slide), n-1 {
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
		wa.count++
	}
	return ws.fire()
}

// addSession merges e into the key's session windows, coalescing sessions
// that come within gap of each other.
func (ws *windowState) addSession(e Event) {
	keyAccs, ok := ws.accs[e.Key]
	if !ok {
		keyAccs = make(map[int64]*windowAcc)
		ws.accs[e.Key] = keyAccs
	}
	win := Window{Start: e.Time, End: e.Time.Add(ws.spec.gap)}
	merged := &windowAcc{
		win:   win,
		acc:   &sessionBuffer{events: []Event{e}},
		count: 1,
		last:  e.Time,
	}
	// Merge every overlapping session into the new one.
	for id, wa := range keyAccs {
		if wa.win.Start.Before(merged.win.End) && merged.win.Start.Before(wa.win.End) {
			merged = mergeSessions(merged, wa)
			delete(keyAccs, id)
		}
	}
	keyAccs[merged.win.Start.UnixNano()] = merged
}

// mergeSessions combines two session accumulators. Aggregator has no general
// merge operation, so session windows buffer their events and fold at fire
// time; merging is buffer concatenation plus bound extension.
func mergeSessions(a, b *windowAcc) *windowAcc {
	bufA := a.acc.(*sessionBuffer)
	bufB := b.acc.(*sessionBuffer)
	bufA.events = append(bufA.events, bufB.events...)
	win := a.win
	if b.win.Start.Before(win.Start) {
		win.Start = b.win.Start
	}
	if b.win.End.After(win.End) {
		win.End = b.win.End
	}
	last := a.last
	if b.last.After(last) {
		last = b.last
	}
	return &windowAcc{win: win, acc: bufA, count: a.count + b.count, last: last}
}

type sessionBuffer struct {
	events []Event
}

// fire emits results for every window whose end is at or before the
// watermark, in (window end, key) order for determinism. Tumbling and sliding
// windows are scanned only once the watermark has reached the earliest live
// End; session windows, whose close time moves as they merge, whenever the
// watermark has advanced since the last scan.
func (ws *windowState) fire() []Event {
	session := ws.spec.kind == windowSession
	if session {
		if !ws.watermark.After(ws.firedWM) {
			return nil
		}
		ws.firedWM = ws.watermark
	} else if ws.nextClose.IsZero() || ws.nextClose.After(ws.watermark) {
		return nil
	}
	ws.scans++
	ws.nextClose = time.Time{}
	var ready []*windowAcc
	var keys []string
	for key, keyAccs := range ws.accs {
		for id, wa := range keyAccs {
			closes := wa.win.End
			if session {
				closes = wa.last.Add(ws.spec.gap)
			}
			if !closes.After(ws.watermark) {
				ready = append(ready, wa)
				keys = append(keys, key)
				delete(keyAccs, id)
			} else if !session && (ws.nextClose.IsZero() || closes.Before(ws.nextClose)) {
				ws.nextClose = closes
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
		var value float64
		if buf, ok := wa.acc.(*sessionBuffer); ok {
			acc := ws.agg.New()
			for _, e := range buf.events {
				acc = ws.agg.Add(acc, e)
			}
			value = ws.agg.Result(acc)
		} else {
			value = ws.agg.Result(wa.acc)
		}
		out = append(out, Event{
			Key:   keys[i],
			Time:  wa.win.End,
			Value: value,
			Payload: WindowResult{
				Window: wa.win,
				Key:    keys[i],
				Count:  wa.count,
			},
		})
	}
	return out
}

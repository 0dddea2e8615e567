package stream

import (
	"sort"
	"time"
)

// joinState buffers tagged events per (key, window) for a two-input windowed
// join and fires the user join function when the watermark passes a window's
// end. One joinState lives per worker; keys are partitioned so a key's
// buffers are confined to one worker.
type joinState struct {
	spec WindowSpec
	fn   func(key string, win Window, left, right []Event) []Event
	bufs map[string]map[int64]*joinWindowBuf
	// maxSeen tracks event time per input side; the effective watermark is
	// the minimum of the two (standard multi-input watermark semantics), so
	// one side racing ahead cannot close windows the slower side still
	// feeds.
	maxSeen   [2]time.Time
	watermark time.Time
	firedWM   time.Time
}

type joinWindowBuf struct {
	win   Window
	left  []Event
	right []Event
}

func newJoinState(spec WindowSpec, fn func(string, Window, []Event, []Event) []Event) *joinState {
	return &joinState{spec: spec, fn: fn, bufs: make(map[string]map[int64]*joinWindowBuf)}
}

// add buffers e (whose Payload must be a joinTag) and returns any join
// outputs that became final.
func (js *joinState) add(e Event) []Event {
	tag := e.Payload.(joinTag)
	inner := e
	inner.Payload = tag.inner

	if e.Time.After(js.maxSeen[tag.side]) {
		js.maxSeen[tag.side] = e.Time
	}
	if !js.maxSeen[0].IsZero() && !js.maxSeen[1].IsZero() {
		low := js.maxSeen[0]
		if js.maxSeen[1].Before(low) {
			low = js.maxSeen[1]
		}
		if wm := low.Add(-js.spec.lateness); wm.After(js.watermark) {
			js.watermark = wm
		}
	}

	keyBufs, ok := js.bufs[e.Key]
	if !ok {
		keyBufs = make(map[int64]*joinWindowBuf)
		js.bufs[e.Key] = keyBufs
	}
	// Newest window first: once one is late, so is every earlier one.
	for win, n := js.spec.assign(e.Time); n > 0 && win.End.After(js.watermark); win, n = win.earlier(js.spec.slide), n-1 {
		id := win.Start.UnixNano()
		buf, ok := keyBufs[id]
		if !ok {
			buf = &joinWindowBuf{win: win}
			keyBufs[id] = buf
		}
		if tag.side == 0 {
			buf.left = append(buf.left, inner)
		} else {
			buf.right = append(buf.right, inner)
		}
	}
	return js.fire()
}

func (js *joinState) fire() []Event {
	if !js.watermark.After(js.firedWM) {
		return nil
	}
	js.firedWM = js.watermark
	return js.collect(func(buf *joinWindowBuf) bool {
		return !buf.win.End.After(js.watermark)
	})
}

func (js *joinState) flush() []Event {
	return js.collect(func(*joinWindowBuf) bool { return true })
}

func (js *joinState) collect(ready func(*joinWindowBuf) bool) []Event {
	type firing struct {
		key string
		buf *joinWindowBuf
	}
	var firings []firing
	for key, keyBufs := range js.bufs {
		for id, buf := range keyBufs {
			if ready(buf) {
				firings = append(firings, firing{key: key, buf: buf})
				delete(keyBufs, id)
			}
		}
		if len(keyBufs) == 0 {
			delete(js.bufs, key)
		}
	}
	sort.Slice(firings, func(i, j int) bool {
		a, b := firings[i], firings[j]
		if !a.buf.win.End.Equal(b.buf.win.End) {
			return a.buf.win.End.Before(b.buf.win.End)
		}
		return a.key < b.key
	})
	var out []Event
	for _, f := range firings {
		out = append(out, js.fn(f.key, f.buf.win, f.buf.left, f.buf.right)...)
	}
	return out
}

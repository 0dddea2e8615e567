// Package analytics implements the incremental analytics the paper's
// timeliness argument (§4.1) depends on: materialized views folded one row
// at a time as data arrives, and heavy-hitter tracking in bounded memory.
package analytics

// SpaceSaving tracks the k heaviest keys of a stream (Metwally et al.): any
// key with true frequency > N/k is guaranteed to be present.
type SpaceSaving struct {
	slot    map[string]int // key → its index in tracked
	tracked []HeavyHitter  // capacity: the monitored-key count
}

// NewSpaceSaving returns a tracker with the given capacity (number of
// monitored keys).
func NewSpaceSaving(capacity int) *SpaceSaving {
	if capacity < 1 {
		capacity = 1
	}
	return &SpaceSaving{slot: make(map[string]int, capacity), tracked: make([]HeavyHitter, 0, capacity)}
}

// Add observes key.
func (ss *SpaceSaving) Add(key string) {
	if i, ok := ss.slot[key]; ok {
		ss.tracked[i].Count++
		return
	}
	if len(ss.tracked) < cap(ss.tracked) {
		ss.slot[key] = len(ss.tracked)
		ss.tracked = append(ss.tracked, HeavyHitter{Key: key, Count: 1})
		return
	}
	// Evict the minimum — the smallest key among equal counts, so the
	// sketch is a function of its input alone — and inherit its count as
	// error bound. The newcomer takes the evicted slot, so a sketch at
	// capacity observes without allocating.
	m := 0
	for i := 1; i < len(ss.tracked); i++ {
		if e, low := &ss.tracked[i], &ss.tracked[m]; e.Count < low.Count || e.Count == low.Count && e.Key < low.Key {
			m = i
		}
	}
	e := &ss.tracked[m]
	delete(ss.slot, e.Key)
	ss.slot[key] = m
	*e = HeavyHitter{Key: key, Count: e.Count + 1, Err: e.Count}
}

// HeavyHitter is one tracked key with its estimated count and error bound.
type HeavyHitter struct {
	Key   string
	Count uint64 // estimate, true count in [Count-Err, Count]
	Err   uint64
}

// TopK returns up to k tracked keys sorted by estimated count descending
// (ties by key for determinism).
func (ss *SpaceSaving) TopK(k int) []HeavyHitter {
	return ss.TopKInto(make([]HeavyHitter, 0, max(0, min(k, len(ss.tracked)))), k)
}

// TopKInto is TopK appending into dst (overwriting its contents), so a
// caller snapshotting the sketch every frame can reuse one slice. It selects
// in one pass over the sketch, keeping the k heaviest seen so far in order:
// a key lighter than the current k-th costs one comparison, so the frame's
// k = 1 read is a max scan, and k at or above the tracked set is the plain
// insertion sort — closure-free, and allocation-free once dst has warmed to
// capacity.
func (ss *SpaceSaving) TopKInto(dst []HeavyHitter, k int) []HeavyHitter {
	out := dst[:0]
	if k <= 0 {
		return out
	}
	for _, h := range ss.tracked {
		switch {
		case len(out) < k:
			out = append(out, h)
		case heavierHitter(h, out[k-1]):
			out[k-1] = h
		default:
			continue
		}
		for j := len(out) - 1; j > 0 && heavierHitter(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// heavierHitter orders heavy hitters by estimated count descending, ties by
// key ascending for determinism.
func heavierHitter(a, b HeavyHitter) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return a.Key < b.Key
}

// Package analytics implements the approximate and incremental analytics the
// paper's timeliness argument (§4.1) depends on: frequency and cardinality
// sketches that answer volume-scale questions in constant memory, heavy-
// hitter tracking, and incrementally-maintained materialized views
// compared against full batch recomputation.
package analytics

import (
	"hash/fnv"
	"math"
)

// hash64 hashes s with FNV-1a and then applies a murmur3-style finalizer.
// Raw FNV leaves the high bits of short, similar keys nearly constant, which
// would collapse HLL register indexes and count-min rows; the finalizer
// restores avalanche across all 64 bits.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// CountMin is a count-min sketch: a fixed-size frequency table whose point
// queries overestimate by at most εN with probability 1-δ.
type CountMin struct {
	width  int
	depth  int
	counts [][]uint64
}

// NewCountMin returns a sketch with the given error bound ε and failure
// probability δ (both in (0,1)).
func NewCountMin(epsilon, delta float64) *CountMin {
	if epsilon <= 0 || epsilon >= 1 {
		epsilon = 0.001
	}
	if delta <= 0 || delta >= 1 {
		delta = 0.01
	}
	width := int(math.Ceil(math.E / epsilon))
	depth := int(math.Ceil(math.Log(1 / delta)))
	cm := &CountMin{width: width, depth: depth}
	cm.counts = make([][]uint64, depth)
	for i := range cm.counts {
		cm.counts[i] = make([]uint64, width)
	}
	return cm
}

// rowHash derives the i-th row hash from two independent halves of one
// 64-bit hash (Kirsch–Mitzenmacher double hashing).
func (cm *CountMin) rowHash(h uint64, row int) int {
	h1 := uint32(h)
	h2 := uint32(h >> 32)
	return int((h1 + uint32(row)*h2) % uint32(cm.width))
}

// Add increments key's count by n.
func (cm *CountMin) Add(key string, n uint64) {
	h := hash64(key)
	for r := 0; r < cm.depth; r++ {
		cm.counts[r][cm.rowHash(h, r)] += n
	}
}

// Count returns the (over-)estimated count for key.
func (cm *CountMin) Count(key string) uint64 {
	h := hash64(key)
	min := uint64(math.MaxUint64)
	for r := 0; r < cm.depth; r++ {
		if c := cm.counts[r][cm.rowHash(h, r)]; c < min {
			min = c
		}
	}
	return min
}

// MemoryBytes returns the sketch's table size in bytes.
func (cm *CountMin) MemoryBytes() int { return cm.width * cm.depth * 8 }

// HyperLogLog estimates set cardinality in fixed memory with ~1.04/√m
// relative standard error.
type HyperLogLog struct {
	precision uint8 // number of index bits (4..16)
	registers []uint8
}

// NewHyperLogLog returns an HLL with 2^precision registers.
func NewHyperLogLog(precision uint8) *HyperLogLog {
	if precision < 4 {
		precision = 4
	}
	if precision > 16 {
		precision = 16
	}
	return &HyperLogLog{precision: precision, registers: make([]uint8, 1<<precision)}
}

// Add observes key.
func (h *HyperLogLog) Add(key string) {
	x := hash64(key)
	idx := x >> (64 - h.precision)
	rest := x<<h.precision | 1<<(h.precision-1) // guarantee termination
	rank := uint8(1)
	for rest&(1<<63) == 0 {
		rank++
		rest <<= 1
	}
	if rank > h.registers[idx] {
		h.registers[idx] = rank
	}
}

// Estimate returns the estimated number of distinct keys added.
func (h *HyperLogLog) Estimate() float64 {
	m := float64(len(h.registers))
	var sum float64
	zeros := 0
	for _, r := range h.registers {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	est := alpha * m * m / sum
	// Small-range correction (linear counting).
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros))
	}
	return est
}

// MemoryBytes returns the register array size.
func (h *HyperLogLog) MemoryBytes() int { return len(h.registers) }

// SpaceSaving tracks the k heaviest keys of a stream (Metwally et al.): any
// key with true frequency > N/k is guaranteed to be present.
type SpaceSaving struct {
	capacity int
	counts   map[string]*ssEntry
}

type ssEntry struct {
	count uint64
	err   uint64 // overestimation bound inherited on eviction
}

// NewSpaceSaving returns a tracker with the given capacity (number of
// monitored keys).
func NewSpaceSaving(capacity int) *SpaceSaving {
	if capacity < 1 {
		capacity = 1
	}
	return &SpaceSaving{capacity: capacity, counts: make(map[string]*ssEntry, capacity)}
}

// Add observes key.
func (ss *SpaceSaving) Add(key string) {
	if e, ok := ss.counts[key]; ok {
		e.count++
		return
	}
	if len(ss.counts) < ss.capacity {
		ss.counts[key] = &ssEntry{count: 1}
		return
	}
	// Evict the minimum and inherit its count as error bound. The evicted
	// entry is reused for the newcomer, so a sketch at capacity observes
	// without allocating.
	var minKey string
	var minEntry *ssEntry
	for k, e := range ss.counts {
		if minEntry == nil || e.count < minEntry.count {
			minKey, minEntry = k, e
		}
	}
	delete(ss.counts, minKey)
	minEntry.err = minEntry.count
	minEntry.count++
	ss.counts[key] = minEntry
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
	return ss.TopKInto(make([]HeavyHitter, 0, max(0, min(k, len(ss.counts)))), k)
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
	for key, e := range ss.counts {
		h := HeavyHitter{Key: key, Count: e.count, Err: e.err}
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

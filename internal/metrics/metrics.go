// Package metrics provides lightweight instrumentation used across the
// platform: counters, gauges, and latency histograms with percentile
// estimation, grouped in registries, plus plain-text table rendering used by
// the benchmark harness to print experiment results.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready to
// use.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta (negative deltas are ignored: counters only go up).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous value. The zero value is ready to use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram records duration observations into exponential buckets and
// estimates percentiles. It is safe for concurrent use. The zero value is
// ready to use.
//
// Buckets span 1µs to ~17.9min with ~9.05% relative width (240 buckets),
// which keeps percentile error under 5% across the range the platform cares
// about.
type Histogram struct {
	mu      sync.Mutex
	buckets [numBuckets + 1]uint64 // last bucket is overflow
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
}

const (
	numBuckets  = 240
	bucketBase  = 1.0905077 // growth factor: 1µs * base^240 ≈ 17.9 min
	bucketFloor = float64(time.Microsecond)
)

func bucketFor(d time.Duration) int {
	if d < time.Microsecond {
		return 0
	}
	idx := int(math.Log(float64(d)/bucketFloor) / math.Log(bucketBase))
	if idx < 0 {
		return 0
	}
	if idx >= numBuckets {
		return numBuckets
	}
	return idx
}

func bucketUpper(i int) time.Duration {
	return time.Duration(bucketFloor * math.Pow(bucketBase, float64(i+1)))
}

// Observe records one duration. Negative durations are clamped to zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.buckets[bucketFor(d)]++
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the arithmetic mean of observations, or 0 if empty.
func (h *Histogram) Mean() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Min returns the smallest observation, or 0 if empty.
func (h *Histogram) Min() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest observation, or 0 if empty.
func (h *Histogram) Max() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns an estimate of the q-th quantile (q in [0,1]); it returns
// 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

// quantileLocked computes the q-th quantile. h.mu must be held.
func (h *Histogram) quantileLocked(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.count)))
	var cum uint64
	for i := 0; i <= numBuckets; i++ {
		cum += h.buckets[i]
		if cum >= rank {
			upper := bucketUpper(i)
			if upper > h.max {
				upper = h.max
			}
			if upper < h.min {
				upper = h.min
			}
			return upper
		}
	}
	return h.max
}

// Snapshot is a point-in-time summary of a histogram.
type Snapshot struct {
	Count          uint64
	Sum            time.Duration
	Min, Mean, Max time.Duration
	P50, P95, P99  time.Duration
}

// Snapshot returns the current summary. All fields are computed from one
// consistent state under a single lock acquisition: a snapshot taken while
// another goroutine is observing can never mix counts from one state with
// percentiles from another (e.g. report P99 > Max).
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	var mean time.Duration
	if h.count > 0 {
		mean = h.sum / time.Duration(h.count)
	}
	return Snapshot{
		Count: h.count,
		Sum:   h.sum,
		Min:   h.min,
		Mean:  mean,
		Max:   h.max,
		P50:   h.quantileLocked(0.50),
		P95:   h.quantileLocked(0.95),
		P99:   h.quantileLocked(0.99),
	}
}

// Registry groups named metrics. The zero value is ready to use.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.counters == nil {
		r.counters = make(map[string]*Counter)
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.gauges == nil {
		r.gauges = make(map[string]*Gauge)
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.histograms == nil {
		r.histograms = make(map[string]*Histogram)
	}
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Names returns the sorted names of all registered metrics.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Kind discriminates the instrument types a Registry holds.
type Kind uint8

const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String names the kind ("counter", "gauge", "histogram").
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Instrument is one registered metric in a typed registry snapshot. Exactly
// one of Counter, Gauge, or Hist is meaningful, selected by Kind.
type Instrument struct {
	Name    string
	Kind    Kind
	Counter int64    // KindCounter: the count
	Gauge   float64  // KindGauge: the stored value
	Hist    Snapshot // KindHistogram: the full quantile summary
}

// Snapshot returns every registered instrument with its current value,
// stable-sorted by name (then kind, for the unlikely case of one name
// registered as two kinds). Consumers that render or export metrics — the
// Prometheus encoder, arbd-top, Dump — read this typed form instead of
// parsing strings. Instrument handles are captured under one registry lock,
// then values are read without it, so a snapshot never blocks writers for
// longer than the map copy.
//
// A snapshot costs two allocations whatever the registry holds: the result
// and the captured handles.
func (r *Registry) Snapshot() []Instrument {
	// handle is one captured instrument; exactly one field is set.
	type handle struct {
		c *Counter
		g *Gauge
		h *Histogram
	}
	r.mu.Lock()
	n := len(r.counters) + len(r.gauges) + len(r.histograms)
	out := make([]Instrument, 0, n)
	handles := make([]handle, 0, n)
	for name, c := range r.counters {
		out = append(out, Instrument{Name: name, Kind: KindCounter})
		handles = append(handles, handle{c: c})
	}
	for name, g := range r.gauges {
		out = append(out, Instrument{Name: name, Kind: KindGauge})
		handles = append(handles, handle{g: g})
	}
	for name, h := range r.histograms {
		out = append(out, Instrument{Name: name, Kind: KindHistogram})
		handles = append(handles, handle{h: h})
	}
	r.mu.Unlock()

	for i, hd := range handles {
		switch {
		case hd.c != nil:
			out[i].Counter = hd.c.Value()
		case hd.g != nil:
			out[i].Gauge = hd.g.Value()
		default:
			out[i].Hist = hd.h.Snapshot()
		}
	}
	slices.SortFunc(out, func(a, b Instrument) int {
		if c := cmp.Compare(a.Name, b.Name); c != 0 {
			return c
		}
		return cmp.Compare(a.Kind, b.Kind)
	})
	return out
}

// Dump renders every metric as "name value" lines, sorted by name. Intended
// for debugging and log output; programs should consume Snapshot instead.
func (r *Registry) Dump() string {
	snap := r.Snapshot()
	lines := make([]string, 0, len(snap))
	for _, in := range snap {
		switch in.Kind {
		case KindCounter:
			lines = append(lines, fmt.Sprintf("%s %d", in.Name, in.Counter))
		case KindGauge:
			lines = append(lines, fmt.Sprintf("%s %g", in.Name, in.Gauge))
		case KindHistogram:
			s := in.Hist
			lines = append(lines, fmt.Sprintf("%s count=%d mean=%v p50=%v p95=%v p99=%v max=%v",
				in.Name, s.Count, s.Mean, s.P50, s.P95, s.P99, s.Max))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

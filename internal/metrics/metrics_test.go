package metrics

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-100) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Fatalf("Value = %d, want 8000", got)
	}
}

func TestGaugeSetGet(t *testing.T) {
	var g Gauge
	g.Set(3.25)
	if got := g.Value(); got != 3.25 {
		t.Fatalf("Value = %v, want 3.25", got)
	}
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Fatalf("Value = %v, want -7", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s.Count != 0 || s.Mean != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not all-zero")
	}
}

func TestHistogramSingleObservation(t *testing.T) {
	var h Histogram
	h.Observe(5 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.Min != 5*time.Millisecond || s.Max != 5*time.Millisecond {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.P50 < 4*time.Millisecond || s.P50 > 6*time.Millisecond {
		t.Fatalf("P50 = %v, want ~5ms", s.P50)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second)
	if got := h.Snapshot().Min; got != 0 {
		t.Fatalf("Min = %v, want 0", got)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	// Uniform 1..1000 ms.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	p50 := h.Quantile(0.5)
	if p50 < 450*time.Millisecond || p50 > 560*time.Millisecond {
		t.Fatalf("P50 = %v, want ~500ms (±10%%)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900*time.Millisecond || p99 > 1100*time.Millisecond {
		t.Fatalf("P99 = %v, want ~990ms (±10%%)", p99)
	}
	if s := h.Snapshot(); h.Quantile(0) != s.Min || h.Quantile(1) != s.Max {
		t.Fatal("quantile extremes do not match min/max")
	}
}

func TestHistogramMeanExact(t *testing.T) {
	var h Histogram
	h.Observe(10 * time.Millisecond)
	h.Observe(30 * time.Millisecond)
	if got := h.Snapshot().Mean; got != 20*time.Millisecond {
		t.Fatalf("Mean = %v, want 20ms", got)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	h.Observe(2 * time.Hour) // beyond bucket range
	if got := h.Quantile(0.5); got != 2*time.Hour {
		t.Fatalf("overflow quantile = %v, want clamped to max 2h", got)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	if err := quick.Check(func(seed uint32) bool {
		var h Histogram
		v := uint64(seed)
		for i := 0; i < 100; i++ {
			v = v*6364136223846793005 + 1442695040888963407
			h.Observe(time.Duration(v%uint64(10*time.Second)) + time.Microsecond)
		}
		return h.Quantile(0.5) <= h.Quantile(0.9) && h.Quantile(0.9) <= h.Quantile(0.99)
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != 2000 {
		t.Fatalf("Count = %d, want 2000", got)
	}
}

// TestHistogramSnapshotConsistent pins the atomicity of Snapshot: all seven
// fields must come from one locked state. The pre-fix implementation took
// the mutex once per field, so a snapshot racing a large observation could
// report P99 above its own Max (the quantile clamp used the new max while
// the Max field held the old one). With concurrent writers pushing the
// distribution upward, any torn snapshot violates the invariants below.
func TestHistogramSnapshotConsistent(t *testing.T) {
	var h Histogram
	h.Observe(time.Microsecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		d := time.Microsecond
		for i := 0; i < 20000; i++ {
			h.Observe(d)
			// Exponential growth with wraparound keeps max jumping by large
			// steps, maximizing the window a torn snapshot would expose.
			d *= 2
			if d > 10*time.Minute {
				d = time.Microsecond
			}
		}
	}()
	for i := 0; i < 5000; i++ {
		s := h.Snapshot()
		if s.Count == 0 {
			t.Fatal("snapshot lost the pre-existing observation")
		}
		if s.Min > s.P50 || s.P50 > s.P95 || s.P95 > s.P99 {
			t.Fatalf("non-monotone percentiles: %+v", s)
		}
		if s.P99 > s.Max {
			t.Fatalf("torn snapshot: P99 %v > Max %v (%+v)", s.P99, s.Max, s)
		}
		if s.Mean < s.Min || s.Mean > s.Max {
			t.Fatalf("mean outside [min,max]: %+v", s)
		}
	}
	<-done
}

func TestHistogramSnapshotEmpty(t *testing.T) {
	var h Histogram
	if s := h.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
}

func TestRegistryReturnsSameInstance(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("reqs")
	c1.Inc()
	if got := r.Counter("reqs").Value(); got != 1 {
		t.Fatalf("second lookup got fresh counter, value=%d", got)
	}
	h1 := r.Histogram("lat")
	h1.Observe(time.Millisecond)
	if got := r.Histogram("lat").Snapshot().Count; got != 1 {
		t.Fatalf("second histogram lookup fresh, count=%d", got)
	}
	g := r.Gauge("load")
	g.Set(0.5)
	if got := r.Gauge("load").Value(); got != 0.5 {
		t.Fatalf("second gauge lookup fresh, value=%v", got)
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz")
	r.Gauge("aa")
	r.Histogram("mm")
	snap := r.Snapshot()
	if len(snap) != 3 || snap[0].Name != "aa" || snap[1].Name != "mm" || snap[2].Name != "zz" {
		t.Fatalf("Snapshot = %+v", snap)
	}
}

// TestRegistryDump checks the registry's dump of every instrument — its
// typed Snapshot — names, kinds and values, sorted by name.
func TestRegistryDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)
	r.Gauge("temp").Set(21.5)
	r.Histogram("lat").Observe(time.Millisecond)
	want := []Instrument{
		{Name: "hits", Kind: KindCounter, Counter: 3},
		{Name: "lat", Kind: KindHistogram, Hist: r.Histogram("lat").Snapshot()},
		{Name: "temp", Kind: KindGauge, Gauge: 21.5},
	}
	if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot = %+v, want %+v", got, want)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("E5: geo index", "index", "n", "p50")
	tb.AddRow("rtree", 1000, "12µs")
	tb.AddRow("scan", 1000, "1.4ms")
	out := tb.String()
	if !strings.Contains(out, "E5: geo index") {
		t.Fatalf("missing title:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
}

// TestTableWideRowNoPanic pins the widths fix: a row with more cells than
// headers used to panic String() with index-out-of-range (widths were sized
// to the header count but indexed for every non-final cell).
func TestTableWideRowNoPanic(t *testing.T) {
	tb := NewTable("wide", "a", "b")
	tb.AddRow(1, 2, 3, 4, 5)
	tb.AddRow("x")
	out := tb.String()
	for _, want := range []string{"wide", "a", "b", "3", "5", "x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTableTypedCells(t *testing.T) {
	tb := NewTable("t", "name", "dur", "rate")
	tb.AddRow("row0", 5*time.Millisecond, 12.5)
	if got := tb.rows[0]; len(got) != 3 || got[1] != "5ms" || got[2] != "12.5" {
		t.Fatalf("row = %q", got)
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(3.0)
	tb.AddRow(3.14159)
	out := tb.String()
	if !strings.Contains(out, "3\n") {
		t.Errorf("integer float not trimmed:\n%s", out)
	}
	if !strings.Contains(out, "3.1416") {
		t.Errorf("float not rounded to 4 decimals:\n%s", out)
	}
}

// BenchmarkCounterLookup quantifies why hot paths cache *Counter handles at
// construction instead of calling Registry.Counter per event: the by-name
// path pays a string concat plus a map lookup under RWMutex on every call,
// the cached path is a single atomic add.
func BenchmarkCounterLookup(b *testing.B) {
	b.Run("by-name", func(b *testing.B) {
		r := NewRegistry()
		topic := "interactions"
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Counter("mq.produced." + topic).Inc()
		}
	})
	b.Run("cached", func(b *testing.B) {
		r := NewRegistry()
		c := r.Counter("mq.produced.interactions")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
}

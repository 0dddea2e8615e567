package analytics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"arbd/internal/sim"
)

func TestCountMinNeverUnderestimates(t *testing.T) {
	cm := NewCountMin(0.01, 0.01)
	truth := map[string]uint64{}
	rng := sim.NewRand(1)
	z := rng.NewZipf(1.3, 500)
	for i := 0; i < 50000; i++ {
		key := fmt.Sprintf("k%d", z.Next())
		cm.Add(key, 1)
		truth[key]++
	}
	for key, want := range truth {
		if got := cm.Count(key); got < want {
			t.Fatalf("count(%s) = %d < true %d", key, got, want)
		}
	}
	if cm.Total() != 50000 {
		t.Fatalf("Total = %d", cm.Total())
	}
}

func TestCountMinErrorBound(t *testing.T) {
	eps := 0.001
	cm := NewCountMin(eps, 0.01)
	const n = 100000
	rng := sim.NewRand(2)
	z := rng.NewZipf(1.2, 2000)
	truth := map[string]uint64{}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", z.Next())
		cm.Add(key, 1)
		truth[key]++
	}
	bound := uint64(3 * eps * n) // 3x slack over the probabilistic bound
	for key, want := range truth {
		if got := cm.Count(key); got-want > bound {
			t.Fatalf("count(%s) overestimates by %d > bound %d", key, got-want, bound)
		}
	}
}

func TestCountMinUnseenKeySmall(t *testing.T) {
	cm := NewCountMin(0.001, 0.01)
	for i := 0; i < 10000; i++ {
		cm.Add(fmt.Sprintf("k%d", i%100), 1)
	}
	if got := cm.Count("never-added"); got > 100 {
		t.Fatalf("unseen key count = %d", got)
	}
	if cm.MemoryBytes() <= 0 {
		t.Fatal("memory not reported")
	}
}

func TestHyperLogLogAccuracy(t *testing.T) {
	for _, n := range []int{100, 1000, 50000} {
		h := NewHyperLogLog(12) // ~1.6% stderr
		for i := 0; i < n; i++ {
			h.Add(fmt.Sprintf("item-%d", i))
		}
		est := h.Estimate()
		relErr := math.Abs(est-float64(n)) / float64(n)
		if relErr > 0.08 {
			t.Fatalf("n=%d: estimate %.0f, rel err %.3f > 8%%", n, est, relErr)
		}
	}
}

func TestHyperLogLogDuplicatesDoNotInflate(t *testing.T) {
	h := NewHyperLogLog(12)
	for rep := 0; rep < 10; rep++ {
		for i := 0; i < 1000; i++ {
			h.Add(fmt.Sprintf("dup-%d", i))
		}
	}
	est := h.Estimate()
	if est > 1200 || est < 800 {
		t.Fatalf("estimate with duplicates = %.0f, want ~1000", est)
	}
}

func TestHyperLogLogMerge(t *testing.T) {
	a, b := NewHyperLogLog(12), NewHyperLogLog(12)
	for i := 0; i < 5000; i++ {
		a.Add(fmt.Sprintf("a-%d", i))
		b.Add(fmt.Sprintf("b-%d", i))
	}
	if !a.Merge(b) {
		t.Fatal("merge of equal precision failed")
	}
	est := a.Estimate()
	if math.Abs(est-10000)/10000 > 0.08 {
		t.Fatalf("merged estimate = %.0f, want ~10000", est)
	}
	c := NewHyperLogLog(10)
	if a.Merge(c) {
		t.Fatal("merge across precisions succeeded")
	}
}

func TestHyperLogLogPrecisionClamped(t *testing.T) {
	if got := NewHyperLogLog(2).MemoryBytes(); got != 16 {
		t.Fatalf("low precision clamp: %d registers", got)
	}
	if got := NewHyperLogLog(20).MemoryBytes(); got != 1<<16 {
		t.Fatalf("high precision clamp: %d registers", got)
	}
}

func TestSpaceSavingFindsHeavyHitters(t *testing.T) {
	ss := NewSpaceSaving(50)
	rng := sim.NewRand(3)
	z := rng.NewZipf(1.5, 10000)
	truth := map[string]uint64{}
	for i := 0; i < 100000; i++ {
		key := fmt.Sprintf("k%d", z.Next())
		ss.Add(key)
		truth[key]++
	}
	top := ss.TopK(10)
	if len(top) != 10 {
		t.Fatalf("TopK returned %d", len(top))
	}
	// The true hottest key must be tracked and ranked first.
	var hottest string
	var hotCount uint64
	for k, c := range truth {
		if c > hotCount {
			hottest, hotCount = k, c
		}
	}
	if top[0].Key != hottest {
		t.Fatalf("top1 = %s (est %d), true hottest %s (%d)", top[0].Key, top[0].Count, hottest, hotCount)
	}
	// Estimates bound the truth: true in [Count-Err, Count].
	for _, hh := range top {
		want := truth[hh.Key]
		if want > hh.Count || want < hh.Count-hh.Err {
			t.Fatalf("%s: true %d outside [%d, %d]", hh.Key, want, hh.Count-hh.Err, hh.Count)
		}
	}
	if ss.Total() != 100000 {
		t.Fatalf("Total = %d", ss.Total())
	}
}

func TestSpaceSavingGuarantee(t *testing.T) {
	// Any key with frequency > N/k must be present.
	const k, n = 20, 10000
	ss := NewSpaceSaving(k)
	// One key gets 10% of traffic (> N/k = 5%).
	for i := 0; i < n; i++ {
		if i%10 == 0 {
			ss.Add("elephant")
		} else {
			ss.Add(fmt.Sprintf("mouse-%d", i))
		}
	}
	for _, hh := range ss.TopK(k) {
		if hh.Key == "elephant" {
			return
		}
	}
	t.Fatal("guaranteed heavy hitter evicted")
}

func TestSpaceSavingDeterministicTies(t *testing.T) {
	ss := NewSpaceSaving(10)
	for _, k := range []string{"b", "a", "c"} {
		ss.Add(k)
	}
	top := ss.TopK(3)
	if top[0].Key != "a" || top[1].Key != "b" || top[2].Key != "c" {
		t.Fatalf("tie order = %v", top)
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Sample 1000 of 100k sequential values: mean should approximate the
	// population mean.
	r := NewReservoir(1000, 7)
	const n = 100000
	for i := 0; i < n; i++ {
		r.Add(float64(i))
	}
	if r.Seen() != n {
		t.Fatalf("Seen = %d", r.Seen())
	}
	s := r.Sample()
	if len(s) != 1000 {
		t.Fatalf("sample size = %d", len(s))
	}
	var sum float64
	for _, v := range s {
		sum += v
	}
	mean := sum / float64(len(s))
	if math.Abs(mean-n/2)/(n/2) > 0.1 {
		t.Fatalf("sample mean %.0f, want ~%d", mean, n/2)
	}
}

func TestReservoirQuantiles(t *testing.T) {
	r := NewReservoir(2000, 8)
	for i := 0; i < 50000; i++ {
		r.Add(float64(i % 1000)) // uniform 0..999
	}
	p50 := r.Quantile(0.5)
	if math.Abs(p50-500) > 50 {
		t.Fatalf("p50 = %.0f, want ~500", p50)
	}
	if r.Quantile(0) > r.Quantile(1) {
		t.Fatal("quantiles not monotone")
	}
}

func TestReservoirSmallStream(t *testing.T) {
	r := NewReservoir(100, 9)
	r.Add(5)
	r.Add(10)
	s := r.Sample()
	if len(s) != 2 {
		t.Fatalf("sample = %v", s)
	}
	if got := r.Quantile(0.5); got < 5 || got > 10 {
		t.Fatalf("median = %v", got)
	}
	empty := NewReservoir(10, 1)
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Fatal("empty quantile not NaN")
	}
}

// TestTopKIntoMatchesTopK checks the buffer-reusing snapshot returns
// exactly what the allocating form returns, with the destination reused
// (dirty) across sketches of different sizes.
func TestTopKIntoMatchesTopK(t *testing.T) {
	var dst []HeavyHitter
	for _, keys := range []int{0, 3, 64, 200} {
		ss := NewSpaceSaving(64)
		for i := 0; i < keys*31; i++ {
			// Skewed stream: key k appears ~k times per cycle.
			ss.Add(fmt.Sprintf("key-%d", i%keys+1))
			for j := 0; j < i%keys; j++ {
				ss.Add(fmt.Sprintf("key-%d", i%keys+1))
			}
		}
		for _, k := range []int{1, 5, 64} {
			want := ss.TopK(k)
			dst = ss.TopKInto(dst, k)
			if len(dst) != len(want) {
				t.Fatalf("keys=%d k=%d: TopKInto len %d, want %d", keys, k, len(dst), len(want))
			}
			for i := range want {
				if dst[i] != want[i] {
					t.Fatalf("keys=%d k=%d: entry %d = %+v, want %+v", keys, k, i, dst[i], want[i])
				}
			}
		}
	}
}

// TestTopKIntoSteadyStateAllocs checks a warmed snapshot buffer makes the
// per-frame sketch snapshot allocation-free.
func TestTopKIntoSteadyStateAllocs(t *testing.T) {
	ss := NewSpaceSaving(64)
	for i := 0; i < 5000; i++ {
		ss.Add(fmt.Sprintf("key-%d", i%100))
	}
	var dst []HeavyHitter
	for i := 0; i < 4; i++ {
		dst = ss.TopKInto(dst, 1)
	}
	allocs := testing.AllocsPerRun(50, func() {
		dst = ss.TopKInto(dst, 1)
	})
	if allocs > 0 {
		t.Fatalf("TopKInto allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

// TestTopKIntoIsHeadOfFullSort checks the one-pass selection against a full
// sort of the sketch, on counts full of ties (the tie-break by key decides
// most positions) and for k below, at and above the tracked set.
func TestTopKIntoIsHeadOfFullSort(t *testing.T) {
	ss := NewSpaceSaving(64)
	for i := 0; i < 40; i++ {
		// Counts 1..5, eight keys each, added in an order unrelated to either
		// sort key.
		key := fmt.Sprintf("key-%02d", (i*17)%40)
		for j := 0; j <= i%5; j++ {
			ss.Add(key)
		}
	}
	var full []HeavyHitter
	for key, e := range ss.counts {
		full = append(full, HeavyHitter{Key: key, Count: e.count, Err: e.err})
	}
	sort.Slice(full, func(i, j int) bool { return heavierHitter(full[i], full[j]) })
	dst := make([]HeavyHitter, 0, 4)
	for _, k := range []int{1, 3, len(full), len(full) + 7} {
		want := full[:min(k, len(full))]
		dst = ss.TopKInto(dst, k)
		if !slices.Equal(dst, want) {
			t.Fatalf("k=%d:\n got %v\nwant %v", k, dst, want)
		}
		if got := ss.TopK(k); !slices.Equal(got, want) {
			t.Fatalf("TopK(%d):\n got %v\nwant %v", k, got, want)
		}
	}
	if got := ss.TopKInto(dst, 0); len(got) != 0 {
		t.Fatalf("k=0 returned %v", got)
	}
}

package analytics

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestSpaceSavingFindsHeavyHitters(t *testing.T) {
	ss := NewSpaceSaving(50)
	z := rand.NewZipf(rand.New(rand.NewSource(3)), 1.5, 1, 9999)
	truth := map[string]uint64{}
	for i := 0; i < 100000; i++ {
		key := fmt.Sprintf("k%d", z.Uint64())
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

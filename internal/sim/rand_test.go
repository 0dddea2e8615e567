package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRandDeterministicBySeed(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("sequence diverged at %d", i)
		}
	}
}

func TestRandDifferentSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("%d/64 identical draws across different seeds", same)
	}
}

func TestChildStreamsIndependentAndStable(t *testing.T) {
	root := NewRand(7)
	c1 := root.Child("gps")
	c2 := root.Child("imu")
	c1b := NewRand(7).Child("gps")
	if c1.Int63() != c1b.Int63() {
		t.Fatal("same (seed, name) child produced different sequences")
	}
	if c1.seed == c2.seed {
		t.Fatal("different child names produced equal seeds")
	}
}

func TestUniformInRange(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		r := NewRand(seed)
		v := r.Uniform(-3, 9)
		return v >= -3 && v < 9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRand(123)
	const n = 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.1 {
		t.Fatalf("mean = %.3f, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.1 {
		t.Fatalf("stddev = %.3f, want ~2", math.Sqrt(variance))
	}
}

func TestBoolEdges(t *testing.T) {
	r := NewRand(5)
	if r.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
	hits := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("Bool(0.3) hit rate = %.3f", frac)
	}
}

func TestPick(t *testing.T) {
	r := NewRand(3)
	vals := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[Pick(r, vals)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick only ever chose %v", seen)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
	}
	for _, c := range cases {
		if got := Clamp(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.v, c.lo, c.hi, got, c.want)
		}
	}
}

func TestShuffleAndPermArePermutations(t *testing.T) {
	r := NewRand(21)
	vals := make([]int, 20)
	for i := range vals {
		vals[i] = i
	}
	r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	sum := 0
	for _, v := range vals {
		sum += v
	}
	if sum != 190 {
		t.Fatalf("Shuffle lost elements, sum=%d", sum)
	}
}

// TestRandDefersGeneratorToFirstDraw pins the lazy generator: a stream from
// NewRand or Child holds no math/rand state until its first draw, and once
// built draws exactly what math/rand draws from the same seed.
func TestRandDefersGeneratorToFirstDraw(t *testing.T) {
	const seed = 4242
	for _, tc := range []struct {
		name string
		r    *Rand
		seed int64
	}{
		{"NewRand", NewRand(seed), seed},
		{"Child", NewRand(seed).Child("session-1"), NewRand(seed).Child("session-1").seed},
	} {
		if tc.r.rng != nil {
			t.Fatalf("%s built its generator before the first draw", tc.name)
		}
		ref := rand.New(rand.NewSource(tc.seed))
		for i := 0; i < 1000; i++ {
			if got, want := tc.r.Int63(), ref.Int63(); got != want {
				t.Fatalf("%s: draw %d = %d, math/rand draws %d", tc.name, i, got, want)
			}
		}
		if tc.r.rng == nil {
			t.Fatalf("%s: generator not built after 1000 draws", tc.name)
		}
	}
}

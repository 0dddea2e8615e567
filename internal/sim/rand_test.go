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
	if c1.Seed() == c2.Seed() {
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

// TestRestoreRandResumesStream pins the snapshot contract migration leans
// on: (seed, Draws()) restores a stream whose future output is identical
// to the original's, even after helpers that consume a variable number of
// underlying draws (Norm, Shuffle, rejection-sampled Intn).
func TestRestoreRandResumesStream(t *testing.T) {
	r := NewRand(99)
	_ = r.Float64()
	_ = r.Norm(0, 2)
	perm := make([]int, 17)
	r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	_ = r.Intn(1000)
	_ = r.Uniform(-5, 5)
	draws := r.Draws()
	if draws == 0 {
		t.Fatal("no draws counted")
	}

	clone := RestoreRand(99, draws)
	if clone.Draws() != draws {
		t.Fatalf("restored Draws() = %d, want %d", clone.Draws(), draws)
	}
	for i := 0; i < 100; i++ {
		if a, b := r.Float64(), clone.Float64(); a != b {
			t.Fatalf("stream diverged at %d: %v vs %v", i, a, b)
		}
		if a, b := r.Norm(1, 3), clone.Norm(1, 3); a != b {
			t.Fatalf("norm diverged at %d: %v vs %v", i, a, b)
		}
	}
	if r.Draws() != clone.Draws() {
		t.Fatalf("draw counters diverged: %d vs %d", r.Draws(), clone.Draws())
	}
}

// TestRandDefersGeneratorToFirstDraw pins the lazy generator: a stream from
// NewRand, Child or RestoreRand(seed, 0) holds no math/rand state until its
// first draw, answers Seed and Draws without building one, and once built
// draws exactly what math/rand draws from the same seed. A stream restored
// at n draws continues the original.
func TestRandDefersGeneratorToFirstDraw(t *testing.T) {
	const seed = 4242
	for _, tc := range []struct {
		name string
		r    *Rand
		seed int64
	}{
		{"NewRand", NewRand(seed), seed},
		{"Child", NewRand(seed).Child("session-1"), NewRand(seed).Child("session-1").Seed()},
		{"RestoreRand", RestoreRand(seed, 0), seed},
	} {
		if tc.r.Seed() != tc.seed || tc.r.Draws() != 0 {
			t.Fatalf("%s: Seed %d, Draws %d; want %d, 0", tc.name, tc.r.Seed(), tc.r.Draws(), tc.seed)
		}
		if tc.r.rng != nil {
			t.Fatalf("%s built its generator before the first draw", tc.name)
		}
		ref := rand.New(rand.NewSource(tc.seed))
		for i := 0; i < 1000; i++ {
			if got, want := tc.r.Int63(), ref.Int63(); got != want {
				t.Fatalf("%s: draw %d = %d, math/rand draws %d", tc.name, i, got, want)
			}
		}
		if tc.r.rng == nil || tc.r.Draws() != 1000 {
			t.Fatalf("%s: after 1000 draws generator built %v, Draws %d", tc.name, tc.r.rng != nil, tc.r.Draws())
		}
	}

	r := NewRand(seed)
	for i := 0; i < 37; i++ {
		_ = r.Norm(0, 1)
	}
	clone := RestoreRand(seed, r.Draws())
	if clone.rng != nil || clone.Draws() != r.Draws() {
		t.Fatalf("restored stream: generator built %v, Draws %d, want unbuilt at %d", clone.rng != nil, clone.Draws(), r.Draws())
	}
	for i := 0; i < 100; i++ {
		if a, b := r.Int63(), clone.Int63(); a != b {
			t.Fatalf("restored stream diverged at draw %d: %d vs %d", i, a, b)
		}
	}
}

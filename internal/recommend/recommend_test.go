package recommend

import (
	"math"
	"slices"
	"testing"

	"arbd/internal/geo"
)

var center = geo.Point{Lat: 22.3364, Lon: 114.2655}

func TestPopularityRanksByWeight(t *testing.T) {
	log := []Interaction{
		{UserID: 1, ItemID: 10, Weight: 1},
		{UserID: 2, ItemID: 10, Weight: 1},
		{UserID: 3, ItemID: 20, Weight: 1},
		{UserID: 1, ItemID: 30, Weight: 0.2},
	}
	p := NewPopularity(log)
	recs := p.Recommend(99, 3) // unseen user: full ranking
	if len(recs) != 3 || recs[0].ItemID != 10 || recs[1].ItemID != 20 {
		t.Fatalf("recs = %v", recs)
	}
}

func TestPopularityExcludesSeen(t *testing.T) {
	log := []Interaction{
		{UserID: 1, ItemID: 10, Weight: 1},
		{UserID: 2, ItemID: 20, Weight: 1},
	}
	p := NewPopularity(log)
	for _, r := range p.Recommend(1, 10) {
		if r.ItemID == 10 {
			t.Fatal("recommended an item the user already has")
		}
	}
}

func TestItemCFFindsCoPurchases(t *testing.T) {
	// Users A,B both take {1,2}; user C takes {1}: CF should suggest 2 to C
	// above 3 (owned only by unrelated user D).
	log := []Interaction{
		{UserID: 1, ItemID: 1, Weight: 1}, {UserID: 1, ItemID: 2, Weight: 1},
		{UserID: 2, ItemID: 1, Weight: 1}, {UserID: 2, ItemID: 2, Weight: 1},
		{UserID: 3, ItemID: 1, Weight: 1},
		{UserID: 4, ItemID: 3, Weight: 1},
	}
	cf := NewItemCF(log)
	recs := cf.Recommend(3, 5)
	if len(recs) == 0 || recs[0].ItemID != 2 {
		t.Fatalf("recs for user 3 = %v, want item 2 first", recs)
	}
	for _, r := range recs {
		if r.ItemID == 1 {
			t.Fatal("CF recommended an owned item")
		}
	}
}

func TestItemCFSymmetricSimilarity(t *testing.T) {
	log := []Interaction{
		{UserID: 1, ItemID: 1, Weight: 1}, {UserID: 1, ItemID: 2, Weight: 1},
	}
	cf := NewItemCF(log)
	if similarity(cf, 1, 2) != similarity(cf, 2, 1) {
		t.Fatalf("similarity asymmetric: %v vs %v", similarity(cf, 1, 2), similarity(cf, 2, 1))
	}
	if similarity(cf, 1, 2) <= 0.99 { // identical vectors → cosine 1
		t.Fatalf("co-owned similarity = %v, want ~1", similarity(cf, 1, 2))
	}
}

// similarity reads the trained cosine of items a and b (0 if never co-owned).
func similarity(cf *ItemCF, a, b uint64) float64 {
	near := cf.sim[a]
	if i, ok := slices.BinarySearchFunc(near, weighted{id: b}, byID); ok {
		return near[i].w
	}
	return 0
}

// TestItemCFIsDeterministic: one log trains one model, bit for bit, and one
// model ranks every user one way, call after call. Sums taken in map order
// differ in their last bits from run to run, and so do the rankings.
func TestItemCFIsDeterministic(t *testing.T) {
	w := GenerateShoppers(ShopperConfig{Seed: 5, NumUsers: 200, NumItems: 300, EventsPerUser: 12, Center: center})
	if len(w.Log) != 2400 {
		t.Fatalf("log holds %d interactions, want 2400", len(w.Log))
	}
	first := NewItemCF(w.Log)
	want := simBits(first)
	for i := 0; i < 20; i++ {
		cf := NewItemCF(w.Log)
		got := simBits(cf)
		differ := len(got) - len(want)
		for pair, bits := range want {
			if got[pair] != bits {
				differ++
			}
		}
		if differ != 0 {
			t.Fatalf("retraining %d: %d similarities differ from the first model's", i+1, differ)
		}
		for u := uint64(1); u <= 200; u++ {
			if a, b := first.Recommend(u, 10), cf.Recommend(u, 10); !slices.Equal(a, b) {
				t.Fatalf("retraining %d, user %d: %v, first model %v", i+1, u, b, a)
			}
			if a, b := first.Recommend(u, 10), first.Recommend(u, 10); !slices.Equal(a, b) {
				t.Fatalf("user %d: one model ranked %v, then %v", u, a, b)
			}
		}
	}
}

// simBits maps every trained (item, item) pair to its cosine's bits.
func simBits(cf *ItemCF) map[[2]uint64]uint64 {
	out := make(map[[2]uint64]uint64)
	for a, near := range cf.sim {
		for _, n := range near {
			out[[2]uint64{a, n.id}] = math.Float64bits(n.w)
		}
	}
	return out
}

func TestItemCFColdUser(t *testing.T) {
	cf := NewItemCF([]Interaction{{UserID: 1, ItemID: 1, Weight: 1}})
	if recs := cf.Recommend(999, 5); len(recs) != 0 {
		t.Fatalf("cold user got %v", recs)
	}
}

func TestContextAwareBoostsNearby(t *testing.T) {
	catalog := []Item{
		{ID: 1, Category: geo.CatShop, Location: geo.Destination(center, 0, 50)},   // near
		{ID: 2, Category: geo.CatShop, Location: geo.Destination(center, 0, 5000)}, // far
	}
	log := []Interaction{
		// Equal popularity.
		{UserID: 10, ItemID: 1, Weight: 1},
		{UserID: 11, ItemID: 2, Weight: 1},
	}
	base := NewPopularity(log)
	ctx := NewContextAware(base, catalog, func(uint64) Context {
		return Context{Location: center}
	})
	recs := ctx.Recommend(99, 2)
	if len(recs) != 2 || recs[0].ItemID != 1 {
		t.Fatalf("recs = %v, want near item first", recs)
	}
	if ctx.Name() != "popularity+context" {
		t.Fatalf("name = %q", ctx.Name())
	}
}

func TestContextAwareGazeAffinity(t *testing.T) {
	catalog := []Item{
		{ID: 1, Category: geo.CatShop, Location: center},
		{ID: 2, Category: geo.CatPark, Location: center},
		{ID: 3, Category: geo.CatShop, Location: center},
	}
	log := []Interaction{
		{UserID: 10, ItemID: 1, Weight: 1},
		{UserID: 11, ItemID: 2, Weight: 1},
	}
	base := NewPopularity(log)
	// The user has been staring at shop item 3.
	ctx := NewContextAware(base, catalog, func(uint64) Context {
		return Context{GazeDwellMS: map[uint64]float64{3: 5000}}
	})
	recs := ctx.Recommend(99, 2)
	if recs[0].ItemID != 1 { // shop beats park via gaze category affinity
		t.Fatalf("recs = %v, want shop first", recs)
	}
}

func TestGenerateShoppersDeterministic(t *testing.T) {
	cfg := ShopperConfig{Seed: 5, NumUsers: 20, NumItems: 50, EventsPerUser: 10, Center: center}
	a, b := GenerateShoppers(cfg), GenerateShoppers(cfg)
	if len(a.Log) != len(b.Log) {
		t.Fatal("nondeterministic log length")
	}
	for i := range a.Log {
		if a.Log[i] != b.Log[i] {
			t.Fatalf("log diverges at %d", i)
		}
	}
}

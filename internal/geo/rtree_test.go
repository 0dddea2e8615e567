package geo

import (
	"testing"

	"arbd/internal/sim"
)

var testBounds = Rect{MinLat: 22.2, MinLon: 114.0, MaxLat: 22.5, MaxLon: 114.4}

func randomItems(seed int64, n int, bounds Rect) []item {
	rng := sim.NewRand(seed)
	items := make([]item, n)
	for i := range items {
		items[i] = item{
			ID: uint64(i + 1),
			Point: Point{
				Lat: rng.Uniform(bounds.MinLat, bounds.MaxLat),
				Lon: rng.Uniform(bounds.MinLon, bounds.MaxLon),
			},
		}
	}
	return items
}

// checkNode walks the tree under n and returns its height, failing if a
// node is over-full or empty, a bound does not cover what it holds, or the
// leaves sit at different depths. Each item's ID is counted in seen.
func checkNode(t *testing.T, n *rnode, seen map[uint64]int) int {
	t.Helper()
	covers := func(r Rect) bool {
		return r.MinLat >= n.bounds.MinLat && r.MaxLat <= n.bounds.MaxLat &&
			r.MinLon >= n.bounds.MinLon && r.MaxLon <= n.bounds.MaxLon
	}
	if n.leaf {
		if len(n.items) == 0 || len(n.items) > rtMaxEntries {
			t.Fatalf("leaf holds %d items", len(n.items))
		}
		for _, it := range n.items {
			if !covers(rectOf(it.Point)) {
				t.Fatalf("leaf bounds %v miss item %v", n.bounds, it)
			}
			seen[it.ID]++
		}
		return 1
	}
	if len(n.children) == 0 || len(n.children) > rtMaxEntries {
		t.Fatalf("interior node holds %d children", len(n.children))
	}
	height := -1
	for _, c := range n.children {
		if !covers(c.bounds) {
			t.Fatalf("node bounds %v miss child bounds %v", n.bounds, c.bounds)
		}
		if h := checkNode(t, c, seen); height == -1 {
			height = h
		} else if h != height {
			t.Fatalf("leaves at depths %d and %d", height, h)
		}
	}
	return height + 1
}

// TestRTreeBulkLoadMatchesScan: the packed tree holds exactly the items it
// was given, once each, under bounds that cover them.
func TestRTreeBulkLoadMatchesScan(t *testing.T) {
	items := randomItems(30, 5000, testBounds)
	seen := make(map[uint64]int)
	checkNode(t, packRTree(append([]item(nil), items...)), seen)
	if len(seen) != len(items) {
		t.Fatalf("tree holds %d distinct items, want %d", len(seen), len(items))
	}
	for _, it := range items {
		if seen[it.ID] != 1 {
			t.Fatalf("item %d held %d times", it.ID, seen[it.ID])
		}
	}
}

func TestRTreeBulkLoadBalanced(t *testing.T) {
	// 10000 items at fanout 16: height should be ~4, certainly under 8.
	if h := checkNode(t, packRTree(randomItems(40, 10000, testBounds)), map[uint64]int{}); h > 8 {
		t.Fatalf("height = %d, tree degenerated", h)
	}
}

func TestRTreeEmptyAndSingle(t *testing.T) {
	empty, err := LoadStore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.QueryRadius(hkust, 1e6, 0); len(got) != 0 {
		t.Fatal("empty store returned POIs")
	}
	if got := empty.Nearest(hkust, 3); len(got) != 0 {
		t.Fatal("empty store Nearest returned POIs")
	}
	single, err := LoadStore([]POI{{ID: 7, Location: hkust}})
	if err != nil {
		t.Fatal(err)
	}
	if got := single.Nearest(central, 3); len(got) != 1 || got[0].ID != 7 {
		t.Fatalf("single POI Nearest = %v", got)
	}
	if got := single.Nearest(central, 0); got != nil {
		t.Fatalf("Nearest with k = 0 returned %v", got)
	}
}

func TestNearestOrderedByDistance(t *testing.T) {
	s, err := LoadStore(testCity(1000))
	if err != nil {
		t.Fatal(err)
	}
	got := s.Nearest(hkust, 25)
	if len(got) != 25 {
		t.Fatalf("Nearest returned %d, want 25", len(got))
	}
	for i := 1; i < len(got); i++ {
		if DistanceMeters(hkust, got[i].Location) < DistanceMeters(hkust, got[i-1].Location) {
			t.Fatal("kNN result not sorted by distance")
		}
	}
}

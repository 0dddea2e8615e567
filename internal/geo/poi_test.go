package geo

import (
	"errors"
	"slices"
	"testing"
)

func testCity(n int) []POI {
	return GenerateCity(CityConfig{
		Center:    hkust,
		RadiusM:   4000,
		NumPOIs:   n,
		TallRatio: 0.2,
		Seed:      42,
	})
}

func TestGenerateCityDeterministic(t *testing.T) {
	a := testCity(500)
	b := testCity(500)
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Location != b[i].Location || a[i].Name != b[i].Name {
			t.Fatalf("city not deterministic at %d", i)
		}
	}
}

func TestGenerateCityWithinRadius(t *testing.T) {
	for _, p := range testCity(1000) {
		if d := DistanceMeters(hkust, p.Location); d > 4000 {
			t.Fatalf("poi %d at %.0f m, beyond radius", p.ID, d)
		}
		if p.HeightMeters <= 0 {
			t.Fatalf("poi %d has no height", p.ID)
		}
		if p.Category == 0 {
			t.Fatalf("poi %d has zero category", p.ID)
		}
	}
}

func TestGenerateCityEmpty(t *testing.T) {
	if got := GenerateCity(CityConfig{}); got != nil {
		t.Fatalf("zero config produced %d pois", len(got))
	}
}

func TestLoadStoreGet(t *testing.T) {
	s, err := LoadStore([]POI{{Name: "cafe", Category: CatRestaurant, Location: hkust}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(1)
	if err != nil || got.Name != "cafe" {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	if _, err := s.Get(999); !errors.Is(err, ErrPOINotFound) {
		t.Fatalf("missing id err = %v", err)
	}
}

func TestStoreRejectsInvalidPoint(t *testing.T) {
	if _, err := LoadStore([]POI{{Location: hkust}, {Location: Point{Lat: 200}}}); !errors.Is(err, ErrBadPoint) {
		t.Fatalf("err = %v, want ErrBadPoint", err)
	}
}

func TestStoreAssignsIDs(t *testing.T) {
	// Explicit IDs are preserved and advance the counter.
	s, err := LoadStore([]POI{{Location: hkust}, {Location: central}, {ID: 100, Location: hkust}, {Location: hkust}})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for _, p := range s.All() {
		ids = append(ids, p.ID)
	}
	if want := []uint64{1, 2, 100, 101}; !slices.Equal(ids, want) {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
}

func TestQueryRadiusSortedAndFiltered(t *testing.T) {
	s, err := LoadStore(testCity(2000))
	if err != nil {
		t.Fatal(err)
	}
	got := s.QueryRadius(hkust, 1500, CatMuseum)
	prev := -1.0
	for _, p := range got {
		if p.Category != CatMuseum {
			t.Fatalf("category filter leaked %v", p.Category)
		}
		d := DistanceMeters(hkust, p.Location)
		if d > 1500 {
			t.Fatalf("poi outside radius: %.0f m", d)
		}
		if d < prev {
			t.Fatal("results not sorted by distance")
		}
		prev = d
	}
}

func TestStoreAllSnapshot(t *testing.T) {
	s, _ := LoadStore(testCity(10))
	all := s.All()
	if len(all) != 10 {
		t.Fatalf("All = %d", len(all))
	}
	all[0].Name = "mutated"
	if got, _ := s.Get(all[0].ID); got.Name == "mutated" {
		t.Fatal("All returned aliasing data")
	}
}

func TestCategoryStrings(t *testing.T) {
	if got := CatRestaurant.String(); got != "restaurant" {
		t.Fatalf("category name = %q", got)
	}
	if got := Category(99).String(); got != "category(99)" {
		t.Fatalf("unknown category = %q", got)
	}
}

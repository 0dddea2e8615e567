package geo

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"arbd/internal/sim"
)

// TestQueryRadiusIntoEquivalence checks the buffer-reusing query returns
// exactly what the allocating form returns, with the destination buffer
// reused (dirty) between queries of different sizes.
func TestQueryRadiusIntoEquivalence(t *testing.T) {
	city := testCity(2000)
	queries := []struct {
		radius float64
		cat    Category
	}{
		{250, 0},
		{900, 0},
		{500, CatShop},
		{5000, 0},
		{40, 0},
	}
	s, err := LoadStore(city)
	if err != nil {
		t.Fatal(err)
	}
	var dst []POI
	for qi, q := range queries {
		for step := 0; step < 3; step++ {
			center := Destination(hkust, float64(step*110), float64(step)*400)
			want := s.QueryRadius(center, q.radius, q.cat)
			dst = s.QueryRadiusInto(dst, center, q.radius, q.cat)
			if len(dst) != len(want) {
				t.Fatalf("query %d step %d: got %d POIs, want %d", qi, step, len(dst), len(want))
			}
			for i := range want {
				if dst[i].ID != want[i].ID || dst[i].Location != want[i].Location ||
					dst[i].Name != want[i].Name || dst[i].Category != want[i].Category {
					t.Fatalf("query %d step %d: result %d differs: got %+v want %+v",
						qi, step, i, dst[i], want[i])
				}
			}
		}
	}
}

// TestQueryRadiusIntoSteadyStateAllocs checks the hot-path promise: with a
// warmed destination buffer and pooled scratch, a radius query — unlimited
// or bounded — allocates nothing.
func TestQueryRadiusIntoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	s, err := LoadStore(testCity(2000))
	if err != nil {
		t.Fatal(err)
	}
	from := OriginAt(hkust)
	for _, limit := range []int{0, 60} {
		var (
			dst   []POI
			dists []float64
		)
		// Warm the destinations and the pooled scratch.
		for i := 0; i < 4; i++ {
			dst, dists = s.QueryNearestInto(dst, dists, &from, 800, 0, limit)
		}
		allocs := testing.AllocsPerRun(50, func() {
			dst, dists = s.QueryNearestInto(dst, dists, &from, 800, 0, limit)
		})
		if allocs > 0 {
			t.Fatalf("limit %d: radius query allocates %.1f objects/op in steady state, want 0", limit, allocs)
		}
	}
}

// radiusReference is the radius query by definition: every POI, one
// haversine each, a full sort by (distance, ID), then the limit.
func radiusReference(pois []POI, center Point, radiusMeters float64, cat Category, limit int) []POI {
	type scored struct {
		poi  POI
		dist float64
	}
	var hits []scored
	for _, p := range pois {
		if d := DistanceMeters(center, p.Location); d <= radiusMeters && (cat == 0 || p.Category == cat) {
			hits = append(hits, scored{p, d})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].dist != hits[j].dist {
			return hits[i].dist < hits[j].dist
		}
		return hits[i].poi.ID < hits[j].poi.ID
	})
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	out := make([]POI, len(hits))
	for i, h := range hits {
		out[i] = h.poi
	}
	return out
}

// tieCity is a fixture of distance ties around c: stacks of coincident POIs
// (one stack on c itself, at distance 0) on mirror points due north/south and
// east/west of c, whose distances agree to the last few bits. IDs are
// assigned against insertion order so the ID tie-break is not the index's
// own order.
func tieCity(c Point) []POI {
	var pois []POI
	add := func(loc Point) {
		pois = append(pois, POI{Category: Category(1 + len(pois)%3), Location: loc, HeightMeters: 10})
	}
	for i := 0; i < 20; i++ {
		add(c)
	}
	for ring := 1; ring <= 12; ring++ {
		dLat, dLon := 0.0002*float64(ring), 0.0003*float64(ring)
		for rep := 0; rep < 3; rep++ {
			add(Point{Lat: c.Lat + dLat, Lon: c.Lon})
			add(Point{Lat: c.Lat - dLat, Lon: c.Lon})
			add(Point{Lat: c.Lat, Lon: c.Lon + dLon})
			add(Point{Lat: c.Lat, Lon: c.Lon - dLon})
		}
	}
	for i := range pois {
		pois[i].ID = uint64(len(pois) - i)
	}
	return pois
}

// TestQueryRadiusLimitMatchesReference is the differential test of the
// walk: for random centres, radii and categories, each limit returns exactly
// the reference's prefix — same POIs, same order, through the ID tie-break
// and the d > radius cut — near the equator, at 60°N, where a degree of
// longitude is half as long, and on circles of thousands of kilometres that
// reach over the pole. Every query also asks for the k nearest at radius
// +Inf, through Nearest and through QueryNearestInto.
func TestQueryRadiusLimitMatchesReference(t *testing.T) {
	north := Point{Lat: 60.17, Lon: 24.94}
	// From within 100 km of 60°N, 114°E every circle of 3,500 km or more
	// reaches the pole; the POIs spread 3,000 km around 80°N, 76°W, across
	// the pole and the antimeridian.
	polar := Point{Lat: 60, Lon: 114}
	fixtures := []struct {
		name       string
		center     Point
		spread     float64 // query centres fall within this many metres of center
		minR, maxR float64 // radii are log-uniform in [minR, maxR]
		pois       []POI
	}{
		{"city", hkust, 3000, 15, 2500, testCity(3000)},
		{"city60N", north, 3000, 15, 2500, GenerateCity(CityConfig{Center: north, RadiusM: 4000, NumPOIs: 3000, TallRatio: 0.2, Seed: 9})},
		{"ties", hkust, 0, 15, 2500, tieCity(hkust)},
		{"ties60N", north, 0, 15, 2500, tieCity(north)},
		{"polar", polar, 100_000, 3_500_000, 20_000_000, GenerateCity(CityConfig{Center: Point{Lat: 80, Lon: -76}, RadiusM: 3_000_000, NumPOIs: 2000, Seed: 9})},
	}
	for _, fx := range fixtures {
		s, err := LoadStore(fx.pois)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		rng := sim.NewRand(11).Child(fx.name)
		var (
			dst   []POI
			dists []float64
		)
		check := func(what string, got, want []POI) {
			t.Helper()
			if len(got) != len(want) {
				t.Fatalf("%s %s: %d POIs, want %d", fx.name, what, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID || got[i].Name != want[i].Name || got[i].Location != want[i].Location {
					t.Fatalf("%s %s: result %d is POI %d, want POI %d", fx.name, what, i, got[i].ID, want[i].ID)
				}
			}
		}
		for q := 0; q < 40; q++ {
			center := Destination(fx.center, rng.Uniform(0, 360), rng.Uniform(0, fx.spread))
			from := OriginAt(center)
			radius := math.Exp(rng.Uniform(math.Log(fx.minR), math.Log(fx.maxR)))
			cat := Category(0)
			if rng.Bool(0.3) {
				cat = Category(1 + rng.Intn(3))
			}
			full := radiusReference(fx.pois, center, radius, cat, 0)
			for _, limit := range []int{0, 1, 7, 60, len(full) + 5} {
				dst, dists = s.QueryNearestInto(dst, dists, &from, radius, cat, limit)
				check(fmt.Sprintf("query %d (r=%.0f cat=%d limit=%d)", q, radius, cat, limit), dst, prefix(full, limit))
			}
			all := radiusReference(fx.pois, center, math.Inf(1), 0, 0)
			for _, k := range []int{1, 7, 60} {
				what := fmt.Sprintf("query %d (r=+Inf k=%d)", q, k)
				check("Nearest "+what, s.Nearest(center, k), prefix(all, k))
				dst, dists = s.QueryNearestInto(dst, dists, &from, math.Inf(1), 0, k)
				check("QueryNearestInto "+what, dst, prefix(all, k))
			}
		}
	}
}

// prefix returns the first limit elements of pois (limit <= 0: all).
func prefix(pois []POI, limit int) []POI {
	if limit > 0 && len(pois) > limit {
		return pois[:limit]
	}
	return pois
}

// TestBoxLowerBoundIsOne checks the R-tree's node key against what it
// bounds: no point of a box is nearer than the box's key, at any latitude.
// The haversine to the box's clamped corner, which the key replaces, fails
// this away from the equator (by millimetres at city scale: enough to emit
// two POIs out of order, too little for a query test to hit reliably).
func TestBoxLowerBoundIsOne(t *testing.T) {
	rng := sim.NewRand(5)
	for i := 0; i < 2000; i++ {
		p := Point{Lat: rng.Uniform(-75, 75), Lon: rng.Uniform(-170, 170)}
		lat, lon := p.Lat+rng.Uniform(-0.05, 0.05), p.Lon+rng.Uniform(-0.1, 0.1)
		r := Rect{MinLat: lat, MaxLat: lat + rng.Uniform(0, 0.05), MinLon: lon, MaxLon: lon + rng.Uniform(0, 0.1)}
		lb := minDistMeters(p, r)
		for k := 0; k < 40; k++ {
			in := Point{Lat: rng.Uniform(r.MinLat, r.MaxLat), Lon: rng.Uniform(r.MinLon, r.MaxLon)}
			if k < 4 { // the corners, where the minimum usually sits
				in = Point{Lat: []float64{r.MinLat, r.MaxLat}[k%2], Lon: []float64{r.MinLon, r.MaxLon}[k/2]}
			}
			if d := DistanceMeters(p, in); d < lb {
				t.Fatalf("box %+v from %v: key %.9f m exceeds the distance %.9f m to %v inside it", r, p, lb, d, in)
			}
		}
	}
}

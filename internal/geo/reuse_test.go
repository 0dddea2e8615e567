package geo

import (
	"fmt"
	"math"
	"sort"
	"sync"
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
// or bounded — allocates nothing, and neither does a warmed reuse query,
// whether it re-measures its kept set or re-seeds it.
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

	// A 1 m step keeps the set; a 400 m jump and back re-seeds it twice.
	near, far := OriginAt(Destination(hkust, 90, 1)), OriginAt(Destination(hkust, 90, 400))
	for _, tc := range []struct {
		what   string
		poses  [2]*Origin
		reused bool
	}{
		{"re-measure", [2]*Origin{&from, &near}, true},
		{"re-seed", [2]*Origin{&from, &far}, false},
	} {
		var (
			c      NearCache
			best   []int32
			dst    []POI
			dists  []float64
			reused bool
			n      int
		)
		query := func() {
			dst, dists, reused = s.QueryNearestReuse(&c, &best, dst, dists, tc.poses[n%2], 250, 60)
			n++
		}
		for i := 0; i < 4; i++ {
			query()
		}
		allocs := testing.AllocsPerRun(50, func() {
			query()
			if reused != tc.reused {
				t.Fatalf("%s: query %d reused=%v", tc.what, n, reused)
			}
		})
		if allocs > 0 {
			t.Fatalf("%s: reuse query allocates %.1f objects/op in steady state, want 0", tc.what, allocs)
		}
	}
}

// TestNearestReuseWalksMatchReference is the brute-force oracle of
// TestQueryRadiusLimitMatchesReference walked through the reuse query: on
// the benchmark's dense and sparse cities and on the distance-tie fixtures,
// random walks whose steps run from standing still to past the reuse slack,
// with a jump onto a POI now and then, must get at every pose exactly the
// cold answer — the same POIs in the same order, ties broken by ID, with
// the distances DistanceMeters gives — whether the query re-measured its
// kept set or re-seeded it. Both must happen on every fixture.
func TestNearestReuseWalksMatchReference(t *testing.T) {
	north := Point{Lat: 60.17, Lon: 24.94}
	fixtures := []struct {
		name   string
		center Point
		pois   []POI
	}{
		{"dense", hkust, GenerateCity(CityConfig{Center: hkust, RadiusM: 3000, NumPOIs: 5000, TallRatio: 0.2, Seed: 1})},
		{"sparse", hkust, GenerateCity(CityConfig{Center: hkust, RadiusM: 2000, NumPOIs: 80, TallRatio: 0.2, Seed: 1})},
		{"ties", hkust, tieCity(hkust)},
		{"ties60N", north, tieCity(north)},
	}
	steps := []float64{0, 0.5, 1.5, 1.5, 1.5, 4, 12, 30, 49, 51, 75, 140}
	for _, fx := range fixtures {
		s, err := LoadStore(fx.pois)
		if err != nil {
			t.Fatalf("%s: %v", fx.name, err)
		}
		for _, radius := range []float64{250, 125} {
			for _, limit := range []int{60, 30, 1} {
				what := fmt.Sprintf("%s r=%.0f limit=%d", fx.name, radius, limit)
				rng := sim.NewRand(13).Child(what)
				var (
					c               NearCache
					best            []int32
					dst             []POI
					dists           []float64
					reused          bool
					hits, poseOnPOI int
				)
				pos := fx.center
				for q := 0; q < 120; q++ {
					switch {
					case q%30 == 29: // stand exactly on a POI: a distance-0 answer
						pos = fx.pois[rng.Intn(len(fx.pois))].Location
						poseOnPOI++
					case DistanceMeters(fx.center, pos) > 600: // wander back to the crowd
						pos = Destination(fx.center, rng.Uniform(0, 360), rng.Uniform(0, 100))
					default:
						pos = Destination(pos, rng.Uniform(0, 360), steps[rng.Intn(len(steps))])
					}
					from := OriginAt(pos)
					dst, dists, reused = s.QueryNearestReuse(&c, &best, dst, dists, &from, radius, limit)
					want := radiusReference(fx.pois, pos, radius, 0, limit)
					if len(dst) != len(want) || len(dists) != len(want) {
						t.Fatalf("%s pose %d (reused=%v): %d POIs and %d distances, want %d", what, q, reused, len(dst), len(dists), len(want))
					}
					for i := range want {
						if dst[i].ID != want[i].ID || dst[i].Location != want[i].Location {
							t.Fatalf("%s pose %d (reused=%v): result %d is POI %d, want POI %d", what, q, reused, i, dst[i].ID, want[i].ID)
						}
						if d := DistanceMeters(pos, want[i].Location); math.Float64bits(dists[i]) != math.Float64bits(d) {
							t.Fatalf("%s pose %d (reused=%v): distance %d is %v, want %v", what, q, reused, i, dists[i], d)
						}
					}
					if reused {
						hits++
					}
				}
				if hits == 0 || hits == 120 || poseOnPOI == 0 {
					t.Fatalf("%s: %d of 120 queries re-measured, %d stood on a POI: the walk must exercise both paths", what, hits, poseOnPOI)
				}
			}
		}
	}
}

// fuzzStore is the dense benchmark city, built once per fuzzing process.
var fuzzStore = sync.OnceValue(func() *Store {
	s, err := LoadStore(GenerateCity(CityConfig{Center: hkust, RadiusM: 3000, NumPOIs: 5000, TallRatio: 0.2, Seed: 1}))
	if err != nil {
		panic(err)
	}
	return s
})

// FuzzNearestReuseMatchesCold walks a fuzzed start point, query and step
// sequence through the reuse query on the dense city and requires every
// answer to equal the cold walk's: the same POIs, the same distance bits.
// Each byte pair of walk is one step: a bearing, and a length from 0 to
// ~64 m, or a jump of 20 to 320 m when the length byte's top four bits are set.
func FuzzNearestReuseMatchesCold(f *testing.F) {
	f.Add(0.0, 0.0, 250.0, uint8(59), []byte{0, 6, 64, 6, 128, 6, 192, 200, 10, 255, 0, 0})
	f.Add(0.004, -0.003, 125.0, uint8(29), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(-0.01, 0.02, 40.0, uint8(0), []byte{64, 250, 64, 250, 200, 250})
	f.Fuzz(func(t *testing.T, dLat, dLon, radius float64, limit uint8, walk []byte) {
		if math.IsNaN(dLat+dLon+radius) || math.IsInf(dLat+dLon+radius, 0) || len(walk) > 512 {
			t.Skip()
		}
		s := fuzzStore()
		pos := Point{Lat: hkust.Lat + math.Mod(dLat, 0.03), Lon: hkust.Lon + math.Mod(dLon, 0.03)}
		radius = math.Mod(math.Abs(radius), 1000)
		k := 1 + int(limit)%64
		var (
			c          NearCache
			best       []int32
			got, want  []POI
			gotD, wntD []float64
		)
		for i := 0; i+1 < len(walk) || i == 0; i += 2 {
			if i+1 < len(walk) {
				step := float64(walk[i+1]) / 4
				if walk[i+1] >= 0xf0 {
					step = float64(walk[i+1]-0xf0+1) * 20
				}
				pos = Destination(pos, float64(walk[i])*360/256, step)
			}
			from := OriginAt(pos)
			got, gotD, _ = s.QueryNearestReuse(&c, &best, got, gotD, &from, radius, k)
			want, wntD = s.QueryNearestInto(want, wntD, &from, radius, 0, k)
			if len(got) != len(want) {
				t.Fatalf("step %d at %v (r=%v k=%d): %d POIs, cold %d", i/2, pos, radius, k, len(got), len(want))
			}
			for j := range want {
				if got[j].ID != want[j].ID || math.Float64bits(gotD[j]) != math.Float64bits(wntD[j]) {
					t.Fatalf("step %d at %v (r=%v k=%d): result %d is POI %d at %v, cold POI %d at %v",
						i/2, pos, radius, k, j, got[j].ID, gotD[j], want[j].ID, wntD[j])
				}
			}
		}
	})
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

// TestBelowRoundsDown pins the kept set's float32 seed distances to lower
// bounds — the only thing re-measuring may assume of them: below(d) is the
// largest float32 not above d. Rounding to nearest would put a POI up to
// half a float32 step (≈15 µm at 300 m, more than the rounding shave)
// farther than it is, and the re-measure could stop before it.
func TestBelowRoundsDown(t *testing.T) {
	rng := sim.NewRand(3)
	for i := 0; i < 100_000; i++ {
		d := rng.Uniform(0, 400)
		if i%7 == 0 {
			d = float64(float32(d)) // exactly representable: kept as is
		}
		f := below(d)
		if float64(f) > d || float64(math.Nextafter32(f, float32(math.Inf(1)))) <= d {
			t.Fatalf("below(%v) = %v: want the largest float32 not above it", d, f)
		}
	}
}

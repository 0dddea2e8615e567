package geo

import (
	"math"
	"testing"

	"arbd/internal/sim"
)

// referenceDistance and referenceBearing are the haversine and bearing
// formulas as the package first wrote them, every term spelled out per call.
// Frames are pinned byte for byte (core's golden walk digest), so the shared
// formulas behind DistanceMeters, BearingDegrees and Origin must keep giving
// exactly these bits.
func referenceDistance(a, b Point) float64 {
	lat1, lat2 := radians(a.Lat), radians(b.Lat)
	dLat := lat2 - lat1
	dLon := radians(b.Lon - a.Lon)
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(h)))
}

func referenceBearing(a, b Point) float64 {
	lat1, lat2 := radians(a.Lat), radians(b.Lat)
	dLon := radians(b.Lon - a.Lon)
	y := math.Sin(dLon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon)
	return math.Mod(degrees(math.Atan2(y, x))+360, 360)
}

// checkOriginMatchesFree requires the reference formulas, the free functions
// and all three Origin methods to agree on a → b to the last bit.
func checkOriginMatchesFree(t *testing.T, a, b Point) {
	t.Helper()
	from := OriginAt(a)
	wantD, wantB := referenceDistance(a, b), referenceBearing(a, b)
	polarD, polarB := from.Polar(b)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"DistanceMeters", DistanceMeters(a, b), wantD},
		{"Origin.Distance", from.Distance(b), wantD},
		{"Origin.Polar distance", polarD, wantD},
		{"BearingDegrees", BearingDegrees(a, b), wantB},
		{"Origin.Bearing", from.Bearing(b), wantB},
		{"Origin.Polar bearing", polarB, wantB},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Fatalf("%v -> %v: %s = %v (%#x), reference %v (%#x)", a, b, c.name,
				c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
		}
	}
	if from.Point() != a {
		t.Fatalf("Origin.Point() = %v, want %v", from.Point(), a)
	}
}

func TestOriginMatchesFreeFunctions(t *testing.T) {
	fixed := [][2]Point{
		{hkust, hkust}, // coincident
		{{Lat: 60, Lon: 25}, {Lat: 60, Lon: 25}},
		{{Lat: 60, Lon: 24.95}, {Lat: 60.01, Lon: 25.02}},              // 60°N
		{{Lat: 85, Lon: -40}, {Lat: 85.002, Lon: -39.9}},               // 85°N
		{{Lat: 85, Lon: 10}, {Lat: 84.9999, Lon: -170}},                // over the pole
		{hkust, {Lat: hkust.Lat + 3e-6, Lon: hkust.Lon - 4e-6}},        // sub-metre
		{{Lat: 60, Lon: 25}, {Lat: 60 + 1e-7, Lon: 25}},                // a centimetre north
		{{Lat: -17.5, Lon: 179.9995}, {Lat: -17.5003, Lon: -179.9996}}, // straddling ±180°
		{{Lat: 0, Lon: -179.99999}, {Lat: 0, Lon: 179.99999}},          // straddling, on the equator
		{{Lat: 0, Lon: 0}, {Lat: 0, Lon: 180}},                         // antipodal: h rounds to 1
		{{Lat: 90, Lon: 0}, {Lat: -90, Lon: 0}},                        // pole to pole
		{{Lat: 22.3, Lon: 114.2}, {Lat: 22.3, Lon: 114.2 + 1e-12}},     // below haversine's resolution
		{{Lat: -33.8688, Lon: 151.2093}, {Lat: 51.5074, Lon: -0.1278}}, // intercontinental
		{{Lat: 51.5074, Lon: -0.1278}, {Lat: -33.8688, Lon: 151.2093}}, // and back
		{{Lat: 89.999999, Lon: 0}, {Lat: 89.999999, Lon: 180}},         // metres from the pole
	}
	for _, c := range fixed {
		checkOriginMatchesFree(t, c[0], c[1])
	}
	rng := sim.NewRand(14)
	for i := 0; i < 20_000; i++ {
		a := Point{Lat: rng.Uniform(-90, 90), Lon: rng.Uniform(-180, 180)}
		b := Point{Lat: rng.Uniform(-90, 90), Lon: rng.Uniform(-180, 180)}
		if i%2 == 0 { // the frame's scale: a target within a few kilometres
			b = Destination(a, rng.Uniform(0, 360), rng.Uniform(0, 3000))
		}
		checkOriginMatchesFree(t, a, b)
	}
}

// FuzzOriginMatchesFree lets the fuzzer look for a pair of points on which
// the shared-trigonometry paths and the spelled-out formulas part ways.
func FuzzOriginMatchesFree(f *testing.F) {
	f.Add(22.3364, 114.2655, 22.3370, 114.2660)
	f.Add(60.0, 25.0, 60.0, 25.0)
	f.Add(85.0, 179.9999, 85.0001, -179.9999)
	f.Add(-90.0, 0.0, 90.0, 180.0)
	f.Fuzz(func(t *testing.T, lat1, lon1, lat2, lon2 float64) {
		a, b := Point{Lat: lat1, Lon: lon1}, Point{Lat: lat2, Lon: lon2}
		if !a.Valid() || !b.Valid() {
			t.Skip()
		}
		checkOriginMatchesFree(t, a, b)
	})
}

// TestQueryNearestIntoDistances: the distances the query hands back are the
// ones it ordered by — bit for bit DistanceMeters from the centre — limited
// and not, with and without a category filter. (Which POIs come back is
// TestQueryRadiusLimitMatchesReference's.)
func TestQueryNearestIntoDistances(t *testing.T) {
	s, err := LoadStore(testCity(2000))
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRand(5)
	var (
		pois  []POI
		dists []float64
	)
	for q := 0; q < 40; q++ {
		center := Destination(hkust, rng.Uniform(0, 360), rng.Uniform(0, 2500))
		radius := rng.Uniform(30, 1200)
		limit := []int{0, 1, 7, 60}[q%4]
		cat := Category(0)
		if q%5 == 4 {
			cat = CatShop
		}
		from := OriginAt(center)
		pois, dists = s.QueryNearestInto(pois, dists, &from, radius, cat, limit)
		if len(dists) != len(pois) {
			t.Fatalf("query %d: %d POIs and %d distances", q, len(pois), len(dists))
		}
		for i := range pois {
			if d := DistanceMeters(center, pois[i].Location); math.Float64bits(dists[i]) != math.Float64bits(d) {
				t.Fatalf("query %d: distance %d = %v, DistanceMeters gives %v", q, i, dists[i], d)
			}
		}
	}
}

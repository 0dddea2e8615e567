package geo

import (
	"math"
	"testing"

	"arbd/internal/sim"
)

// Reference points: central Hong Kong area (the paper's home institution).
var (
	hkust   = Point{Lat: 22.3364, Lon: 114.2655}
	central = Point{Lat: 22.2819, Lon: 114.1582}
)

func TestDistanceKnownValue(t *testing.T) {
	// HKUST to Central is about 12.6 km.
	d := DistanceMeters(hkust, central)
	if d < 12000 || d > 13500 {
		t.Fatalf("distance = %.0f m, want ~12600", d)
	}
}

func TestDistanceProperties(t *testing.T) {
	rng := sim.NewRand(1)
	for i := 0; i < 200; i++ {
		a := Point{Lat: rng.Uniform(-80, 80), Lon: rng.Uniform(-179, 179)}
		b := Point{Lat: rng.Uniform(-80, 80), Lon: rng.Uniform(-179, 179)}
		dab, dba := DistanceMeters(a, b), DistanceMeters(b, a)
		if math.Abs(dab-dba) > 1e-6 {
			t.Fatalf("asymmetric distance: %v vs %v", dab, dba)
		}
		if DistanceMeters(a, a) > 1e-9 {
			t.Fatal("self distance not 0")
		}
		if dab < 0 {
			t.Fatal("negative distance")
		}
	}
}

func TestDestinationInvertsDistance(t *testing.T) {
	rng := sim.NewRand(2)
	for i := 0; i < 200; i++ {
		p := Point{Lat: rng.Uniform(-60, 60), Lon: rng.Uniform(-170, 170)}
		brg := rng.Uniform(0, 360)
		dist := rng.Uniform(1, 50000)
		q := Destination(p, brg, dist)
		got := DistanceMeters(p, q)
		if math.Abs(got-dist) > dist*0.001+0.01 {
			t.Fatalf("Destination distance %.2f, want %.2f", got, dist)
		}
	}
}

func TestBearingCardinal(t *testing.T) {
	p := Point{Lat: 0, Lon: 0}
	cases := []struct {
		to   Point
		want float64
	}{
		{Point{Lat: 1, Lon: 0}, 0},    // north
		{Point{Lat: 0, Lon: 1}, 90},   // east
		{Point{Lat: -1, Lon: 0}, 180}, // south
		{Point{Lat: 0, Lon: -1}, 270}, // west
	}
	for _, c := range cases {
		got := BearingDegrees(p, c.to)
		if math.Abs(got-c.want) > 0.5 {
			t.Errorf("bearing to %v = %.2f, want %.0f", c.to, got, c.want)
		}
	}
}

func TestPointValid(t *testing.T) {
	if !hkust.Valid() {
		t.Fatal("hkust invalid")
	}
	for _, bad := range []Point{{Lat: 91}, {Lat: -91}, {Lon: 181}, {Lon: -181}, {Lat: math.NaN()}} {
		if bad.Valid() {
			t.Errorf("%v reported valid", bad)
		}
	}
}

func TestRectAroundContainsCircle(t *testing.T) {
	rng := sim.NewRand(3)
	for i := 0; i < 100; i++ {
		c := Point{Lat: rng.Uniform(-60, 60), Lon: rng.Uniform(-170, 170)}
		radius := rng.Uniform(10, 20000)
		bbox := RectAround(c, radius)
		for brg := 0.0; brg < 360; brg += 45 {
			edge := Destination(c, brg, radius)
			if !bbox.Contains(edge) {
				t.Fatalf("bbox %v misses circle edge %v (c=%v r=%.0f)", bbox, edge, c, radius)
			}
		}
	}
	// A circle that reaches a pole covers every longitude: from 60°N, 114°E
	// a 5,000 km circle holds 80°N, 76°W (4,435 km away) on the far side of
	// the pole.
	far := Point{Lat: 80, Lon: -76}
	for _, radius := range []float64{5_000_000, math.Inf(1)} {
		if bbox := RectAround(Point{Lat: 60, Lon: 114}, radius); !bbox.Contains(far) {
			t.Fatalf("r=%.0f: bbox %v misses %v across the pole", radius, bbox, far)
		}
	}
}

func TestRectOps(t *testing.T) {
	a := Rect{MinLat: 0, MinLon: 0, MaxLat: 10, MaxLon: 10}
	b := Rect{MinLat: 5, MinLon: 5, MaxLat: 15, MaxLon: 15}
	far := Rect{MinLat: 50, MinLon: 50, MaxLat: 60, MaxLon: 60}
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Fatal("overlapping rects not intersecting")
	}
	if a.Intersects(far) {
		t.Fatal("distant rects intersect")
	}
	u := a.Union(b)
	if u.MinLat != 0 || u.MaxLat != 15 || u.MinLon != 0 || u.MaxLon != 15 {
		t.Fatalf("union = %v", u)
	}
	if c := a.Center(); c.Lat != 5 || c.Lon != 5 {
		t.Fatalf("center = %v", c)
	}
}

// minDistMeters is the R-tree's node key from p to r.
func minDistMeters(p Point, r Rect) float64 {
	return boxLowerBoundMeters(p, math.Cos(radians(p.Lat)), r)
}

func TestMinDistMeters(t *testing.T) {
	r := Rect{MinLat: 10, MinLon: 10, MaxLat: 20, MaxLon: 20}
	inside := Point{Lat: 15, Lon: 15}
	if d := minDistMeters(inside, r); d != 0 {
		t.Fatalf("inside point minDist = %v", d)
	}
	outside := Point{Lat: 25, Lon: 15}
	want := DistanceMeters(outside, Point{Lat: 20, Lon: 15})
	if d := minDistMeters(outside, r); math.Abs(d-want) > 1 {
		t.Fatalf("minDist = %v, want %v", d, want)
	}
}

// Package geo implements the geospatial substrate the paper's AR scenarios
// query against: geodesy primitives and an immutable point-of-interest (POI)
// store over an STR-packed R-tree, with a synthetic city generator. Tourism
// guides, retail product location, and "x-ray vision" overlays all resolve
// their spatial context through this package.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used by the haversine formulas.
const EarthRadiusMeters = 6_371_000.0

// Point is a WGS84 coordinate in degrees.
type Point struct {
	Lat float64 // -90..90
	Lon float64 // -180..180
}

// Valid reports whether the point is inside WGS84 bounds.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// String renders the point as "lat,lon" with 6 decimals (~0.1 m).
func (p Point) String() string {
	return fmt.Sprintf("%.6f,%.6f", p.Lat, p.Lon)
}

func radians(deg float64) float64 { return deg * math.Pi / 180 }
func degrees(rad float64) float64 { return rad * 180 / math.Pi }

// DistanceMeters returns the haversine great-circle distance between a and b.
func DistanceMeters(a, b Point) float64 {
	lat1, lat2 := radians(a.Lat), radians(b.Lat)
	return haversineMeters(lat2-lat1, math.Cos(lat1), math.Cos(lat2), radians(b.Lon-a.Lon))
}

// BearingDegrees returns the initial great-circle bearing from a to b in
// degrees clockwise from north, in [0, 360).
func BearingDegrees(a, b Point) float64 {
	lat1, lat2 := radians(a.Lat), radians(b.Lat)
	return bearingDegrees(math.Cos(lat1), math.Sin(lat1), math.Cos(lat2), math.Sin(lat2), radians(b.Lon-a.Lon))
}

// haversineMeters is the one haversine formula: the distance between two
// points dLat and dLon radians apart whose latitudes have the given cosines.
// Every distance in the package goes through it, so a caller that already
// holds a cosine (Origin) gets the bits DistanceMeters would give.
//
//arbd:hotpath
func haversineMeters(dLat, cosLat1, cosLat2, dLon float64) float64 {
	sLat, sLon := math.Sin(dLat/2), math.Sin(dLon/2)
	h := sLat*sLat + cosLat1*cosLat2*sLon*sLon
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(h)))
}

// bearingDegrees is the one initial-bearing formula, from a point whose
// latitude has cosLat1/sinLat1 to one dLon radians east with cosLat2/sinLat2.
//
//arbd:hotpath
func bearingDegrees(cosLat1, sinLat1, cosLat2, sinLat2, dLon float64) float64 {
	y := math.Sin(dLon) * cosLat2
	x := cosLat1*sinLat2 - sinLat1*cosLat2*math.Cos(dLon)
	brg := degrees(math.Atan2(y, x))
	return math.Mod(brg+360, 360)
}

// Origin is an observer fixed at one point — a frame's pose — from which many
// targets are measured. It holds the point's latitude in radians with its
// cosine and sine, the part of the spherical trigonometry that does not
// depend on the target, so that part is paid once per Origin instead of once
// per call. Its results are bit-identical to DistanceMeters and
// BearingDegrees from the same point. Build one with OriginAt; an Origin is
// immutable and safe for concurrent use.
type Origin struct {
	p              Point
	lat            float64 // radians
	cosLat, sinLat float64
}

// OriginAt returns the Origin at p.
func OriginAt(p Point) Origin {
	lat := radians(p.Lat)
	return Origin{p: p, lat: lat, cosLat: math.Cos(lat), sinLat: math.Sin(lat)}
}

// Point returns the point the origin stands at.
func (o *Origin) Point() Point { return o.p }

// Distance is DistanceMeters(o.Point(), b).
//
//arbd:hotpath
func (o *Origin) Distance(b Point) float64 {
	lat2 := radians(b.Lat)
	return haversineMeters(lat2-o.lat, o.cosLat, math.Cos(lat2), radians(b.Lon-o.p.Lon))
}

// Bearing is BearingDegrees(o.Point(), b).
//
//arbd:hotpath
func (o *Origin) Bearing(b Point) float64 {
	lat2 := radians(b.Lat)
	return bearingDegrees(o.cosLat, o.sinLat, math.Cos(lat2), math.Sin(lat2), radians(b.Lon-o.p.Lon))
}

// Polar returns Distance(b) and Bearing(b) together, sharing the target's
// own trigonometry between the two.
//
//arbd:hotpath
func (o *Origin) Polar(b Point) (dist, bearing float64) {
	lat2 := radians(b.Lat)
	cosLat2, dLon := math.Cos(lat2), radians(b.Lon-o.p.Lon)
	return haversineMeters(lat2-o.lat, o.cosLat, cosLat2, dLon),
		bearingDegrees(o.cosLat, o.sinLat, cosLat2, math.Sin(lat2), dLon)
}

// Destination returns the point reached travelling distanceMeters from p on
// the given initial bearing (degrees clockwise from north).
func Destination(p Point, bearingDeg, distanceMeters float64) Point {
	d := distanceMeters / EarthRadiusMeters
	brg := radians(bearingDeg)
	lat1 := radians(p.Lat)
	lon1 := radians(p.Lon)
	lat2 := math.Asin(math.Sin(lat1)*math.Cos(d) + math.Cos(lat1)*math.Sin(d)*math.Cos(brg))
	lon2 := lon1 + math.Atan2(
		math.Sin(brg)*math.Sin(d)*math.Cos(lat1),
		math.Cos(d)-math.Sin(lat1)*math.Sin(lat2),
	)
	lon2 = math.Mod(lon2+3*math.Pi, 2*math.Pi) - math.Pi
	return Point{Lat: degrees(lat2), Lon: degrees(lon2)}
}

// Rect is a latitude/longitude axis-aligned bounding box. It does not
// support boxes crossing the antimeridian, which the simulated city layouts
// never produce.
type Rect struct {
	MinLat, MinLon float64
	MaxLat, MaxLon float64
}

// RectAround returns the bounding box covering a circle of radiusMeters
// centred at p (clamped at the poles; every longitude once the circle
// reaches a pole, as an infinite radius does). The box truly covers the
// circle — the longitude half-width is asin(sin δ / cos φ), not δ / cos φ,
// which falls short by δ³/6 away from the equator — with a 1e-9 relative
// margin over rounding, so filtering by the box before a haversine test never
// loses a point the haversine test would keep.
func RectAround(p Point, radiusMeters float64) Rect {
	const margin = 1 + 1e-9
	d := radiusMeters / EarthRadiusMeters
	dLat := degrees(d) * margin
	r := Rect{
		MinLat: math.Max(-90, p.Lat-dLat),
		MaxLat: math.Min(90, p.Lat+dLat),
		MinLon: -180, // the circle reaches a pole: every longitude
		MaxLon: 180,
	}
	if sinD, cos := math.Sin(d), math.Cos(radians(p.Lat)); d < math.Pi/2 && sinD < cos {
		dLon := degrees(math.Asin(sinD/cos)) * margin
		r.MinLon, r.MaxLon = p.Lon-dLon, p.Lon+dLon
	}
	return r
}

// Contains reports whether p lies inside r (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.Lat >= r.MinLat && p.Lat <= r.MaxLat &&
		p.Lon >= r.MinLon && p.Lon <= r.MaxLon
}

// Intersects reports whether r and o overlap.
func (r Rect) Intersects(o Rect) bool {
	return r.MinLat <= o.MaxLat && r.MaxLat >= o.MinLat &&
		r.MinLon <= o.MaxLon && r.MaxLon >= o.MinLon
}

// Union returns the smallest rect covering both r and o.
func (r Rect) Union(o Rect) Rect {
	return Rect{
		MinLat: math.Min(r.MinLat, o.MinLat),
		MinLon: math.Min(r.MinLon, o.MinLon),
		MaxLat: math.Max(r.MaxLat, o.MaxLat),
		MaxLon: math.Max(r.MaxLon, o.MaxLon),
	}
}

// Center returns the rect's midpoint.
func (r Rect) Center() Point {
	return Point{Lat: (r.MinLat + r.MaxLat) / 2, Lon: (r.MinLon + r.MaxLon) / 2}
}

// rectOf returns the degenerate rect at p.
func rectOf(p Point) Rect {
	return Rect{MinLat: p.Lat, MaxLat: p.Lat, MinLon: p.Lon, MaxLon: p.Lon}
}

// shaved lowers a computed distance (or a sum or difference of a few) by
// more than haversine's rounding error at distances well short of the
// antipode, so a bound on true distances derived from it also holds for the
// distances the package computes.
//
//arbd:hotpath
func shaved(d float64) float64 { return d*(1-1e-9) - 1e-6 }

// boxLowerBoundMeters lower-bounds the haversine distance from p to anywhere
// in r, given cos(p.Lat); it is the key the Store's walk orders R-tree nodes
// by. The bound is a true one: inside the box's longitude span the nearest
// point lies on p's own meridian, so the latitude gap is exact; outside it,
// any path into the box crosses the great circle through the nearer bounding
// meridian, whose distance from p is asin(cos φ · sin Δλ), and the latitude
// gap bounds the distance too.
// (Clamping p into the box and taking the haversine to that corner is NOT a
// lower bound away from the equator: the nearest point of a meridian lies
// poleward of p's latitude.) The result is shaved so it never exceeds the
// computed distance of a point on the box's edge (a point at distance 0 ties
// with its box: the walk breaks that tie by expanding boxes before emitting
// points).
//
//arbd:hotpath
func boxLowerBoundMeters(p Point, cosLat float64, r Rect) float64 {
	dLat := math.Max(0, math.Max(r.MinLat-p.Lat, p.Lat-r.MaxLat))
	lb := radians(dLat)
	if dLon := math.Max(r.MinLon-p.Lon, p.Lon-r.MaxLon); dLon > 0 && dLon < 90 {
		lb = math.Max(lb, math.Asin(cosLat*math.Sin(radians(dLon))))
	}
	return math.Max(0, shaved(lb*EarthRadiusMeters))
}

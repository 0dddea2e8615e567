package geo

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"arbd/internal/sim"
)

// POI errors.
var (
	ErrPOINotFound = errors.New("geo: poi not found")
	ErrBadPoint    = errors.New("geo: point outside WGS84 bounds")
)

// Category classifies a POI. Enums start at 1.
type Category int

// POI categories used by the scenario generators.
const (
	CatRestaurant Category = iota + 1
	CatShop
	CatMuseum
	CatLandmark
	CatHospital
	CatTransit
	CatHotel
	CatPark
	CatOffice
	CatResidence
	numCategories
)

// String returns the category name.
func (c Category) String() string {
	names := [...]string{"", "restaurant", "shop", "museum", "landmark",
		"hospital", "transit", "hotel", "park", "office", "residence"}
	if c >= 1 && int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// POI is a point of interest: the unit of geospatial context AR annotations
// attach to.
type POI struct {
	ID       uint64
	Name     string
	Category Category
	Location Point
	// HeightMeters lets the render layer treat tall POIs (buildings) as
	// occluders.
	HeightMeters float64
}

// Store is an immutable POI database over an STR-packed R-tree, built once
// by LoadStore. Safe for concurrent use.
type Store struct {
	all  []POI // load order
	byID map[uint64]*POI
	root *rnode
}

// LoadStore validates pois and builds a Store over copies of them. A POI
// with ID 0 is assigned the ID after the highest seen so far; explicit IDs
// are kept.
func LoadStore(pois []POI) (*Store, error) {
	s := &Store{all: make([]POI, len(pois)), byID: make(map[uint64]*POI, len(pois))}
	items := make([]item, len(pois))
	var lastID uint64
	for i, p := range pois {
		if !p.Location.Valid() {
			return nil, fmt.Errorf("%w: %v", ErrBadPoint, p.Location)
		}
		if p.ID == 0 {
			lastID++
			p.ID = lastID
		} else if p.ID > lastID {
			lastID = p.ID
		}
		s.all[i] = p
		s.byID[p.ID] = &s.all[i]
		items[i] = item{ID: p.ID, Point: p.Location, idx: int32(i)}
	}
	s.root = packRTree(items)
	return s, nil
}

// Get returns the POI with the given ID.
func (s *Store) Get(id uint64) (POI, error) {
	p, ok := s.byID[id]
	if !ok {
		return POI{}, fmt.Errorf("%w: id %d", ErrPOINotFound, id)
	}
	return *p, nil
}

// QueryRadius returns POIs within radiusMeters of center, nearest first
// (ties by ascending ID), optionally filtered by category (0 = all
// categories). The returned slice is freshly allocated; hot paths that reuse
// a buffer across queries should call QueryRadiusInto.
func (s *Store) QueryRadius(center Point, radiusMeters float64, cat Category) []POI {
	return s.QueryRadiusInto(nil, center, radiusMeters, cat)
}

// QueryRadiusInto is QueryRadius appending into dst (which may be nil or a
// previous result truncated to zero length). Results overwrite dst's
// contents; the returned slice shares dst's storage when capacity allows,
// so callers reusing a buffer must consume the results before the next
// query into the same buffer.
func (s *Store) QueryRadiusInto(dst []POI, center Point, radiusMeters float64, cat Category) []POI {
	from := OriginAt(center)
	dst = dst[:0]
	s.walk(&dst, nil, nil, &from, radiusMeters, cat, 0)
	return dst
}

// QueryNearestInto is QueryRadiusInto around an Origin the caller already
// holds, stopping after the limit nearest POIs (limit <= 0: no limit) —
// exactly the first limit elements of the unlimited result, at a cost that
// follows limit, not the number of POIs in radius. It also hands back what
// the query measured: dists[i] is the distance of the i-th returned POI, bit
// for bit from.Distance of its location. A frame builds its annotations from
// these instead of measuring every POI again. dists is reused like dst.
//
//arbd:hotpath
func (s *Store) QueryNearestInto(dst []POI, dists []float64, from *Origin, radiusMeters float64, cat Category, limit int) ([]POI, []float64) {
	dst, dists = dst[:0], dists[:0]
	s.walk(&dst, nil, &dists, from, radiusMeters, cat, limit)
	return dst, dists
}

// Nearest returns up to k POIs closest to p, nearest first (ties by
// ascending ID).
//
//arbd:test-api unbounded k-NN: core tests pick the POIs nearest a pose with it
func (s *Store) Nearest(p Point, k int) []POI {
	if k <= 0 {
		return nil
	}
	from := OriginAt(p)
	var out []POI
	s.walk(&out, nil, nil, &from, math.Inf(1), 0, k)
	return out
}

// All returns a snapshot of every POI (copied), in load order.
func (s *Store) All() []POI { return slices.Clone(s.all) }

// nearEntry is one pending step of the walk: a candidate POI keyed by its
// exact distance or an R-tree node keyed by a lower bound on the distance of
// everything beneath it. It is pointer-free so the heap sifts without write
// barriers: nodes sit in radiusScratch.nodes and are named by index.
type nearEntry struct {
	dist float64
	id   uint64 // POI ID, or index into radiusScratch.nodes when node is set
	idx  int32  // the POI's index into Store.all
	node bool
}

// before orders the heap: nearer first, then nodes before POIs — a node may
// still hold a POI at exactly its bound with a lower ID — then ascending ID,
// which is the (dist, ID) order results are returned in.
func (a nearEntry) before(b nearEntry) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.node != b.node {
		return a.node
	}
	return a.id < b.id
}

// radiusScratch holds the intermediate buffers one walk needs. The buffers
// are pooled so steady-state queries allocate nothing beyond the caller's
// destination slice.
type radiusScratch struct {
	heap  []nearEntry // binary min-heap under nearEntry.before
	nodes []*rnode    // R-tree nodes the heap refers to
}

//arbd:hotpath
func (rs *radiusScratch) push(e nearEntry) {
	rs.heap = append(rs.heap, e)
	siftUp(rs.heap, len(rs.heap)-1, e)
}

// pop removes the minimum. The vacated root sinks to the bottom along the
// smaller children — one comparison a level, not two — and the displaced
// last entry, which belongs near the bottom anyway, rises from there.
//
//arbd:hotpath
func (rs *radiusScratch) pop() nearEntry {
	h := rs.heap
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	rs.heap = h
	if len(h) == 0 {
		return top
	}
	i := 0
	for c := 1; c < len(h); c = 2*i + 1 {
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		h[i] = h[c]
		i = c
	}
	siftUp(h, i, last)
	return top
}

// siftUp places e at or above slot i of h.
//
//arbd:hotpath
func siftUp(h []nearEntry, i int, e nearEntry) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = e
}

// radiusQuery is what every step of one walk tests against.
type radiusQuery struct {
	from   *Origin // the centre
	radius float64
	bbox   Rect // RectAround(centre, radius): the cheap test before a haversine
}

// expand replaces R-tree node n on the heap by what it holds: a leaf's POIs
// in radius at their distance, an interior node's children that can reach
// into the radius at their lower bound.
//
//arbd:hotpath
func (rs *radiusScratch) expand(n *rnode, q *radiusQuery) {
	if n.leaf {
		for _, it := range n.items {
			if !q.bbox.Contains(it.Point) {
				continue
			}
			if d := q.from.Distance(it.Point); d <= q.radius {
				rs.push(nearEntry{dist: d, id: it.ID, idx: it.idx})
			}
		}
		return
	}
	for _, c := range n.children {
		if !c.bounds.Intersects(q.bbox) {
			continue
		}
		if lb := boxLowerBoundMeters(q.from.p, q.from.cosLat, c.bounds); lb <= q.radius {
			rs.nodes = append(rs.nodes, c)
			rs.push(nearEntry{dist: lb, id: uint64(len(rs.nodes) - 1), node: true})
		}
	}
}

var radiusScratchPool = sync.Pool{New: func() any { return new(radiusScratch) }}

// walk is the one query. It feeds a min-heap best-first from the centre,
// opening a node only when nothing nearer is pending, so candidates come off
// in (distance, ID) order and a small limit touches a few leaves. It stops
// once limit POIs (limit <= 0: no limit) have passed the category filter and
// appends each to what the caller asked for (nil: not wanted): the POI
// itself to *dst, its index into s.all to *idx, its distance to *dists.
//
//arbd:hotpath
func (s *Store) walk(dst *[]POI, idx *[]int32, dists *[]float64, from *Origin, radiusMeters float64, cat Category, limit int) {
	rs := radiusScratchPool.Get().(*radiusScratch)
	q := radiusQuery{
		from:   from,
		radius: radiusMeters,
		bbox:   RectAround(from.p, radiusMeters),
	}
	rs.expand(s.root, &q)

	if limit > 0 {
		// A result's index and distance are cheap to reserve: a cold buffer
		// then grows once, not once per doubling; a warm one has the room.
		if idx != nil {
			*idx = slices.Grow(*idx, limit)
		}
		if dists != nil {
			*dists = slices.Grow(*dists, limit)
		}
	}
	for n := 0; len(rs.heap) > 0 && (limit <= 0 || n < limit); {
		e := rs.pop()
		if e.node {
			rs.expand(rs.nodes[e.id], &q)
			continue
		}
		p := &s.all[e.idx]
		if cat != 0 && p.Category != cat {
			continue
		}
		n++
		if dst != nil {
			*dst = append(*dst, *p)
		}
		if idx != nil {
			*idx = append(*idx, e.idx)
		}
		if dists != nil {
			*dists = append(*dists, e.dist)
		}
	}
	// Drop the node pointers before pooling so the scratch does not pin a
	// replaced store's tree (the heap holds no pointers).
	clear(rs.nodes)
	rs.nodes = rs.nodes[:0]
	rs.heap = rs.heap[:0]
	radiusScratchPool.Put(rs)
}

// CityConfig parameterises the synthetic city generator.
type CityConfig struct {
	Center     Point
	RadiusM    float64 // city extent
	NumPOIs    int
	TallRatio  float64 // fraction of POIs that are tall buildings (occluders)
	Seed       int64
	Categories []Category // weights uniform over this set; nil = all
}

// CityCenter (HKUST) is the centre of the city arbd-server builds and the
// point arbd-loadgen walks its devices from. The two commands must agree on
// it, or the walkers start outside the city.
var CityCenter = Point{Lat: 22.3364, Lon: 114.2655}

// GenerateCity returns a deterministic synthetic city: POIs scattered with a
// density gradient toward the centre (like real cities), with names, tags,
// and building heights. It is the data substitute for the proprietary POI
// databases the paper's scenarios assume.
func GenerateCity(cfg CityConfig) []POI {
	if cfg.NumPOIs <= 0 {
		return nil
	}
	if cfg.RadiusM <= 0 {
		cfg.RadiusM = 5000
	}
	cats := cfg.Categories
	if len(cats) == 0 {
		for c := Category(1); c < numCategories; c++ {
			cats = append(cats, c)
		}
	}
	rng := sim.NewRand(cfg.Seed).Child("city")
	pois := make([]POI, 0, cfg.NumPOIs)
	for i := 0; i < cfg.NumPOIs; i++ {
		// Radial density gradient: sqrt-uniform radius biased to centre.
		r := cfg.RadiusM * rng.Float64() * rng.Float64()
		brg := rng.Uniform(0, 360)
		loc := Destination(cfg.Center, brg, r)
		cat := sim.Pick(rng, cats)
		height := 6.0 + rng.Float64()*10
		if rng.Bool(cfg.TallRatio) {
			height = 30 + rng.Float64()*120
		}
		pois = append(pois, POI{
			ID:           uint64(i + 1),
			Name:         fmt.Sprintf("%s-%04d", cat, i+1),
			Category:     cat,
			Location:     loc,
			HeightMeters: height,
		})
	}
	return pois
}

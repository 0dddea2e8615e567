package geo

import (
	"errors"
	"fmt"
	"slices"
	"sort"
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
	Tags     map[string]string
	// HeightMeters lets the render layer treat tall POIs (buildings) as
	// occluders.
	HeightMeters float64
}

// IndexKind selects the spatial index backing a Store. Enums start at 1.
type IndexKind int

// Index strategies. IndexScan is the baseline the paper-era AR browsers
// effectively used (filter the whole catalogue per query).
const (
	IndexScan IndexKind = iota + 1
	IndexGeohash
	IndexQuadtree
	IndexRTree
)

// String returns the index kind's name.
func (k IndexKind) String() string {
	switch k {
	case IndexScan:
		return "scan"
	case IndexGeohash:
		return "geohash"
	case IndexQuadtree:
		return "quadtree"
	case IndexRTree:
		return "rtree"
	default:
		return fmt.Sprintf("index(%d)", int(k))
	}
}

// Store is a POI database with a pluggable spatial index. Safe for
// concurrent use.
type Store struct {
	mu       sync.RWMutex
	kind     IndexKind
	byID     map[uint64]*POI
	all      []*POI // scan baseline and source of truth order
	geocells map[string][]uint64
	ghPrec   int
	qt       *Quadtree
	rt       *RTree
	nextID   uint64
}

// StoreOption configures a Store.
type StoreOption func(*Store)

// WithIndex selects the spatial index (default IndexRTree).
func WithIndex(kind IndexKind) StoreOption {
	return func(s *Store) { s.kind = kind }
}

// WithGeohashPrecision sets the bucket precision for IndexGeohash
// (default 6, ~1.2 km cells).
func WithGeohashPrecision(p int) StoreOption {
	return func(s *Store) {
		if p >= 1 && p <= 12 {
			s.ghPrec = p
		}
	}
}

// NewStore returns an empty POI store.
func NewStore(opts ...StoreOption) *Store {
	s := &Store{
		kind:     IndexRTree,
		byID:     make(map[uint64]*POI),
		geocells: make(map[string][]uint64),
		ghPrec:   6,
	}
	for _, opt := range opts {
		opt(s)
	}
	switch s.kind {
	case IndexQuadtree:
		s.qt = NewQuadtree(Rect{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180})
	case IndexRTree:
		s.rt = NewRTree()
	}
	return s
}

// Kind returns the store's index kind.
func (s *Store) Kind() IndexKind { return s.kind }

// Len returns the number of stored POIs.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.all)
}

// Add inserts a POI, assigning an ID if the POI has none. The POI value is
// copied.
func (s *Store) Add(p POI) (uint64, error) {
	if !p.Location.Valid() {
		return 0, fmt.Errorf("%w: %v", ErrBadPoint, p.Location)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.ID == 0 {
		s.nextID++
		p.ID = s.nextID
	} else if p.ID > s.nextID {
		s.nextID = p.ID
	}
	cp := p
	s.byID[cp.ID] = &cp
	s.all = append(s.all, &cp)
	switch s.kind {
	case IndexGeohash:
		h := EncodeGeohash(cp.Location, s.ghPrec)
		s.geocells[h] = append(s.geocells[h], cp.ID)
	case IndexQuadtree:
		s.qt.Insert(Item{ID: cp.ID, Point: cp.Location})
	case IndexRTree:
		s.rt.Insert(Item{ID: cp.ID, Point: cp.Location})
	}
	return cp.ID, nil
}

// Get returns the POI with the given ID.
func (s *Store) Get(id uint64) (POI, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
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
	return s.QueryRadiusLimitInto(nil, center, radiusMeters, cat, 0)
}

// QueryRadiusInto is QueryRadius appending into dst (which may be nil or a
// previous result truncated to zero length). Results overwrite dst's
// contents; the returned slice shares dst's storage when capacity allows,
// so callers reusing a buffer must consume the results before the next
// query into the same buffer.
func (s *Store) QueryRadiusInto(dst []POI, center Point, radiusMeters float64, cat Category) []POI {
	return s.QueryRadiusLimitInto(dst, center, radiusMeters, cat, 0)
}

// nearEntry is one pending step of a radius query: a candidate POI keyed by
// its exact distance or, on the R-tree, an index node keyed by a lower bound
// on the distance of everything beneath it. It is pointer-free so the heap
// sifts without write barriers: nodes sit in radiusScratch.nodes and are
// named by index.
type nearEntry struct {
	dist float64
	id   uint64 // POI ID, or index into radiusScratch.nodes when node is set
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

// radiusScratch holds the intermediate buffers one radius query needs. The
// buffers are pooled so steady-state queries allocate nothing beyond the
// caller's destination slice.
type radiusScratch struct {
	items []Item      // bbox candidates of the scan, geohash and quadtree kinds
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

// radiusQuery is what every step of one query tests against.
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
				rs.push(nearEntry{dist: d, id: it.ID})
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

// QueryRadiusLimitInto is QueryRadiusInto stopping after the limit nearest
// POIs (limit <= 0: no limit): exactly the first limit elements of the
// unlimited result, at a cost that follows limit, not the number of POIs in
// radius.
func (s *Store) QueryRadiusLimitInto(dst []POI, center Point, radiusMeters float64, cat Category, limit int) []POI {
	from := OriginAt(center)
	return s.queryRadius(dst, nil, &from, radiusMeters, cat, limit)
}

// QueryNearestInto is QueryRadiusLimitInto around an Origin the caller
// already holds, also handing back what the query measured: dists[i] is the
// distance of the i-th returned POI, bit for bit from.Distance of its
// location. A frame builds its annotations from these instead of measuring
// every POI again. dists is reused like dst.
//
//arbd:hotpath
func (s *Store) QueryNearestInto(dst []POI, dists []float64, from *Origin, radiusMeters float64, cat Category, limit int) ([]POI, []float64) {
	dists = dists[:0]
	dst = s.queryRadius(dst, &dists, from, radiusMeters, cat, limit)
	return dst, dists
}

// queryRadius is the one radius query. Candidates go on a min-heap and come
// off in (distance, ID) order until limit have passed the category filter;
// only those are resolved and copied, their distances appended to *dists
// when the caller wants them (nil: not). The R-tree feeds the heap best-first
// from the centre, opening a node only when nothing nearer is pending, so a
// small limit touches a few leaves. The other kinds heap every candidate in
// the bounding box, which still spares a limited query the full sort.
//
//arbd:hotpath
func (s *Store) queryRadius(dst []POI, dists *[]float64, from *Origin, radiusMeters float64, cat Category, limit int) []POI {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rs := radiusScratchPool.Get().(*radiusScratch)
	q := radiusQuery{
		from:   from,
		radius: radiusMeters,
		bbox:   RectAround(from.p, radiusMeters),
	}
	if s.kind == IndexRTree {
		rs.expand(s.rt.root, &q)
	} else {
		candidates := rs.items[:0]
		switch s.kind {
		case IndexScan:
			for _, p := range s.all {
				if q.bbox.Contains(p.Location) {
					candidates = append(candidates, Item{ID: p.ID, Point: p.Location})
				}
			}
		case IndexGeohash:
			for _, cell := range CoverRadius(from.p, radiusMeters, s.ghPrec) {
				for _, id := range s.geocells[cell] {
					if p := s.byID[id]; q.bbox.Contains(p.Location) {
						candidates = append(candidates, Item{ID: id, Point: p.Location})
					}
				}
			}
		case IndexQuadtree:
			candidates = s.qt.Search(q.bbox, candidates)
		}
		rs.items = candidates
		for _, c := range candidates {
			if d := from.Distance(c.Point); d <= radiusMeters {
				rs.push(nearEntry{dist: d, id: c.ID})
			}
		}
	}

	out := dst[:0]
	if dists != nil && limit > 0 {
		// A float per result is cheap to reserve: a cold buffer then grows
		// once, not once per doubling; a warm one already has the room.
		*dists = slices.Grow(*dists, limit)
	}
	for len(rs.heap) > 0 && (limit <= 0 || len(out) < limit) {
		e := rs.pop()
		if e.node {
			rs.expand(rs.nodes[e.id], &q)
			continue
		}
		if p := s.byID[e.id]; cat == 0 || p.Category == cat {
			out = append(out, *p)
			if dists != nil {
				*dists = append(*dists, e.dist)
			}
		}
	}
	// Drop the node pointers before pooling so the scratch does not pin a
	// replaced store's tree (the heap and the items hold no pointers).
	clear(rs.nodes)
	rs.nodes = rs.nodes[:0]
	rs.heap = rs.heap[:0]
	rs.items = rs.items[:0]
	radiusScratchPool.Put(rs)
	return out
}

// Nearest returns up to k POIs closest to p, nearest first.
func (s *Store) Nearest(p Point, k int) []POI {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var items []Item
	switch s.kind {
	case IndexQuadtree:
		items = s.qt.Nearest(p, k)
	case IndexRTree:
		items = s.rt.Nearest(p, k)
	default:
		// Scan & geohash: honest brute force — compute each distance once,
		// then select the k smallest.
		type scored struct {
			item Item
			dist float64
		}
		all := make([]scored, 0, len(s.all))
		for _, poi := range s.all {
			all = append(all, scored{
				item: Item{ID: poi.ID, Point: poi.Location},
				dist: DistanceMeters(p, poi.Location),
			})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].dist < all[j].dist })
		if len(all) > k {
			all = all[:k]
		}
		items = make([]Item, len(all))
		for i, sc := range all {
			items[i] = sc.item
		}
	}
	out := make([]POI, 0, len(items))
	for _, it := range items {
		out = append(out, *s.byID[it.ID])
	}
	return out
}

// All returns a snapshot of every POI (copyied), in insertion order.
func (s *Store) All() []POI {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]POI, len(s.all))
	for i, p := range s.all {
		out[i] = *p
	}
	return out
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

// GenerateCity returns a deterministic synthetic city: POIs scattered with a
// density gradient toward the centre (like real cities), with names, tags,
// and building heights. It is the data substitute for the proprietary POI
// databases the paper's scenarios assume (see DESIGN.md).
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
			Tags: map[string]string{
				"district": fmt.Sprintf("d%d", int(brg)/45),
			},
		})
	}
	return pois
}

// LoadStore builds a Store of the given kind from pois.
func LoadStore(pois []POI, kind IndexKind) (*Store, error) {
	s := NewStore(WithIndex(kind))
	for _, p := range pois {
		if _, err := s.Add(p); err != nil {
			return nil, err
		}
	}
	return s, nil
}

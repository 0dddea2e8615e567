package geo

import (
	"math"
	"slices"
)

// The reuse query's constants: a seed keeps reuseFactor × limit POIs, found
// up to reuseSlackMeters beyond the radius asked for. They trade a seed's
// cost and a cache's bytes against how far a pose may move before the cache
// can no longer prove its answer.
const (
	reuseFactor      = 2
	reuseSlackMeters = 50.0
)

// NearCache is what QueryNearestReuse keeps between calls: the nearest
// reuseFactor × limit POIs within radius + reuseSlackMeters of the pose it
// last seeded at, in (distance, ID) order, and bound, a distance no POI
// outside the set is nearer to the seed pose than. The zero value is empty
// and seeds on its first query. Not safe for concurrent use.
type NearCache struct {
	at     Point   // the seed pose
	radius float64 // the query the set answers: radius and limit
	limit  int     // 0: nothing kept
	bound  float64
	set    []nearPOI
}

// nearPOI is one POI of a NearCache: its index into Store.all and its
// distance from the seed pose rounded down to a float32. Re-measuring
// needs the seed distance only as a lower bound, and half the bytes keep a
// session's set small.
type nearPOI struct {
	idx  int32
	dist float32
}

// below returns the largest float32 not above d.
//
//arbd:hotpath
func below(d float64) float32 {
	f := float32(d)
	if float64(f) > d {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

// QueryNearestReuse is QueryNearestInto(dst, dists, from, radiusMeters, 0,
// limit) — the same POIs in the same order with the same distance bits —
// answered, where it can be, from what c kept of an earlier call instead of
// from the R-tree. It re-measures the kept POIs from the new pose P and
// takes the limit nearest within the radius; with δ the distance from the
// seed pose to P, any POI outside the kept set lies at least bound − δ from
// P (great-circle distance is a metric), so when the farthest answer, or
// the radius if the answer is short, lies nearer than that the kept set
// holds the whole answer. Otherwise the query re-seeds c from the R-tree at
// P. It reports which of the two it did. best holds the answer's store
// indices and is reused like dists. A limit <= 0 is the unlimited query and
// keeps nothing.
//
//arbd:hotpath
func (s *Store) QueryNearestReuse(c *NearCache, best *[]int32, dst []POI, dists []float64, from *Origin, radiusMeters float64, limit int) ([]POI, []float64, bool) {
	if limit <= 0 {
		dst, dists = s.QueryNearestInto(dst, dists, from, radiusMeters, 0, limit)
		return dst, dists, false
	}
	idx, dists := (*best)[:0], dists[:0]
	reused := false
	if c.limit == limit && c.radius == radiusMeters {
		idx, dists, reused = s.remeasure(c, idx, dists, from, radiusMeters, limit)
	}
	if !reused {
		idx, dists = s.seed(c, idx[:0], dists[:0], from, radiusMeters, limit)
	}
	*best = idx
	dst = dst[:0]
	for _, i := range idx {
		dst = append(dst, s.all[i])
	}
	return dst, dists, reused
}

// remeasure collects into idx and dists, in (distance, ID) order, the limit
// POIs of c's set nearest to from within radius, and reports whether they
// are provably the whole answer.
//
//arbd:hotpath
func (s *Store) remeasure(c *NearCache, idx []int32, dists []float64, from *Origin, radius float64, limit int) ([]int32, []float64, bool) {
	delta := from.Distance(c.at)
	reach := radius // no answer lies farther: the radius, then the limit-th best
	for _, kp := range c.set {
		// The set is in seed-distance order and no POI is nearer to from
		// than its seed distance less δ: once that passes reach, none of
		// the rest can join the answer.
		if shaved(float64(kp.dist)-delta) > reach {
			break
		}
		i := kp.idx
		d := from.Distance(s.all[i].Location)
		if d > reach || d == reach && len(idx) == limit && s.all[i].ID > s.all[idx[limit-1]].ID {
			continue
		}
		// Insert (d, i) in (distance, ID) order, dropping the limit+1-th.
		if len(idx) < limit {
			idx, dists = append(idx, i), append(dists, d)
		}
		k := len(idx) - 1
		for ; k > 0 && (d < dists[k-1] || d == dists[k-1] && s.all[i].ID < s.all[idx[k-1]].ID); k-- {
			idx[k], dists[k] = idx[k-1], dists[k-1]
		}
		idx[k], dists[k] = i, d
		if len(idx) == limit {
			reach = dists[limit-1]
		}
	}
	return idx, dists, reach+delta < shaved(c.bound)
}

// seed refills c from the R-tree at from and returns the answer there: the
// kept set's prefix within radius, at most limit long.
//
//arbd:hotpath
func (s *Store) seed(c *NearCache, idx []int32, dists []float64, from *Origin, radius float64, limit int) ([]int32, []float64) {
	keep, wide := reuseFactor*limit, radius+reuseSlackMeters
	s.walk(nil, &idx, &dists, from, wide, 0, keep)
	c.at, c.radius, c.limit, c.bound = from.p, radius, limit, wide
	if len(idx) == keep {
		c.bound = dists[keep-1]
	}
	if cap(c.set) < len(idx) {
		// Grow to fit, not to double: the set outlives the frame.
		c.set = slices.Grow(c.set[:0:0], len(idx))
	}
	c.set = c.set[:0]
	for j, i := range idx {
		c.set = append(c.set, nearPOI{idx: i, dist: below(dists[j])})
	}
	n := 0
	for n < len(idx) && n < limit && dists[n] <= radius {
		n++
	}
	return idx[:n], dists[:n]
}

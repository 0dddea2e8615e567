package analytics

import "sync"

// Row is one input record for materialized views: a group key and a numeric
// measure (e.g. product -> spend, POI -> dwell seconds).
type Row struct {
	Group string
	Value float64
}

// GroupStats is the aggregate a view maintains per group.
type GroupStats struct {
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// View maintains per-group aggregates incrementally: Apply folds one new row
// in O(1), which is the paper's §4.1 answer to analysis latency — partial
// results updated as data arrives rather than recomputed from scratch. The
// zero value is not ready; use NewView. Safe for concurrent use.
type View struct {
	mu     sync.RWMutex
	groups map[string]*GroupStats
	rows   int64
}

// NewView returns an empty view.
func NewView() *View {
	return &View{groups: make(map[string]*GroupStats)}
}

// Apply folds one row into the view.
func (v *View) Apply(r Row) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.applyLocked(r)
}

func (v *View) applyLocked(r Row) {
	g, ok := v.groups[r.Group]
	if !ok {
		g = &GroupStats{Min: r.Value, Max: r.Value}
		v.groups[r.Group] = g
	}
	g.Count++
	g.Sum += r.Value
	if r.Value < g.Min {
		g.Min = r.Value
	}
	if r.Value > g.Max {
		g.Max = r.Value
	}
	v.rows++
}

// GetKey returns the stats for a group and whether it exists. The compiler
// elides the string conversion for map lookups, so hot paths that render
// group keys into a reusable byte buffer query the view without allocating.
func (v *View) GetKey(group []byte) (GroupStats, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	g, ok := v.groups[string(group)]
	if !ok {
		return GroupStats{}, false
	}
	return *g, true
}

// equal reports whether two views hold identical aggregates: the tests'
// check that incremental == batch.
func (v *View) equal(o *View) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	o.mu.RLock()
	defer o.mu.RUnlock()
	if len(v.groups) != len(o.groups) || v.rows != o.rows {
		return false
	}
	for name, g := range v.groups {
		og, ok := o.groups[name]
		if !ok || *g != *og {
			return false
		}
	}
	return true
}

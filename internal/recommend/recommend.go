// Package recommend implements the §3.1 retail brain: recommendation models
// over implicit-feedback interaction logs — a popularity baseline, item-item
// collaborative filtering, and the context-aware re-ranker that fuses CF
// scores with the AR session's location and gaze signals — and a synthetic
// shopper generator with known ground-truth preferences.
package recommend

import (
	"math"
	"sort"

	"arbd/internal/geo"
)

// Interaction is one implicit-feedback event.
type Interaction struct {
	UserID uint64
	ItemID uint64
	Weight float64 // purchase ≈ 1.0, view ≈ 0.2, gaze-dwell scaled
}

// Item is catalogue metadata the content/context models use.
type Item struct {
	ID       uint64
	Category geo.Category
	Location geo.Point // where the product/shop physically is
}

// Scored is one ranked recommendation.
type Scored struct {
	ItemID uint64
	Score  float64
}

// Recommender ranks items for a user.
type Recommender interface {
	// Recommend returns up to k items the user has not interacted with,
	// best first.
	Recommend(userID uint64, k int) []Scored
	// Name identifies the model in evaluation tables.
	Name() string
}

// sortScored orders by score descending with ID tiebreak for determinism.
func sortScored(s []Scored) {
	sort.Slice(s, func(i, j int) bool {
		if s[i].Score != s[j].Score {
			return s[i].Score > s[j].Score
		}
		return s[i].ItemID < s[j].ItemID
	})
}

// Popularity recommends globally heaviest items — the no-personalisation
// baseline ("gaudy, flashy technology" without customer data, §3.1).
type Popularity struct {
	weights map[uint64]float64
	seen    map[uint64]map[uint64]bool
}

var _ Recommender = (*Popularity)(nil)

// NewPopularity trains on the log.
//
//arbd:test-api the deterministic recommender core tests install
func NewPopularity(log []Interaction) *Popularity {
	p := &Popularity{weights: make(map[uint64]float64), seen: make(map[uint64]map[uint64]bool)}
	for _, it := range log {
		p.weights[it.ItemID] += it.Weight
		s, ok := p.seen[it.UserID]
		if !ok {
			s = make(map[uint64]bool)
			p.seen[it.UserID] = s
		}
		s[it.ItemID] = true
	}
	return p
}

// Name implements Recommender.
func (p *Popularity) Name() string { return "popularity" }

// Recommend implements Recommender.
func (p *Popularity) Recommend(userID uint64, k int) []Scored {
	out := make([]Scored, 0, len(p.weights))
	for id, w := range p.weights {
		if p.seen[userID][id] {
			continue
		}
		out = append(out, Scored{ItemID: id, Score: w})
	}
	sortScored(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// ItemCF is item-item collaborative filtering with cosine similarity over
// the implicit user-item matrix.
type ItemCF struct {
	sim     map[uint64]map[uint64]float64 // item -> item -> cosine
	userVec map[uint64]map[uint64]float64 // user -> item -> weight
	items   []uint64
}

var _ Recommender = (*ItemCF)(nil)

// NewItemCF trains similarities from the log. Complexity is O(pairs within
// a user), fine at the simulated scales.
func NewItemCF(log []Interaction) *ItemCF {
	cf := &ItemCF{
		sim:     make(map[uint64]map[uint64]float64),
		userVec: make(map[uint64]map[uint64]float64),
	}
	norms := make(map[uint64]float64)
	for _, it := range log {
		uv, ok := cf.userVec[it.UserID]
		if !ok {
			uv = make(map[uint64]float64)
			cf.userVec[it.UserID] = uv
		}
		uv[it.ItemID] += it.Weight
	}
	dot := make(map[uint64]map[uint64]float64)
	for _, uv := range cf.userVec {
		ids := make([]uint64, 0, len(uv))
		for id := range uv {
			ids = append(ids, id)
		}
		for _, id := range ids {
			norms[id] += uv[id] * uv[id]
		}
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				a, b := ids[i], ids[j]
				if a > b {
					a, b = b, a
				}
				m, ok := dot[a]
				if !ok {
					m = make(map[uint64]float64)
					dot[a] = m
				}
				m[b] += uv[ids[i]] * uv[ids[j]]
			}
		}
	}
	itemSet := make(map[uint64]bool)
	for id := range norms {
		itemSet[id] = true
		cf.items = append(cf.items, id)
	}
	sort.Slice(cf.items, func(i, j int) bool { return cf.items[i] < cf.items[j] })
	for a, m := range dot {
		for b, d := range m {
			s := d / (math.Sqrt(norms[a])*math.Sqrt(norms[b]) + 1e-12)
			addSim(cf.sim, a, b, s)
			addSim(cf.sim, b, a, s)
		}
	}
	return cf
}

func addSim(sim map[uint64]map[uint64]float64, a, b uint64, s float64) {
	m, ok := sim[a]
	if !ok {
		m = make(map[uint64]float64)
		sim[a] = m
	}
	m[b] = s
}

// Name implements Recommender.
func (cf *ItemCF) Name() string { return "item-cf" }

// Recommend implements Recommender.
func (cf *ItemCF) Recommend(userID uint64, k int) []Scored {
	uv := cf.userVec[userID]
	scores := make(map[uint64]float64)
	for owned, w := range uv {
		for other, s := range cf.sim[owned] {
			if _, has := uv[other]; has {
				continue
			}
			scores[other] += w * s
		}
	}
	out := make([]Scored, 0, len(scores))
	for id, s := range scores {
		out = append(out, Scored{ItemID: id, Score: s})
	}
	sortScored(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Context is the AR-session signal the context-aware model fuses in: where
// the shopper is standing and what they have been looking at.
type Context struct {
	Location    geo.Point
	GazeDwellMS map[uint64]float64 // itemID -> accumulated dwell
}

// ContextAware re-ranks a base recommender's scores with physical proximity
// (things you can walk to matter more in AR) and gaze-derived category
// affinity — the paper's claim that AR context turns generic analytics into
// relevant recommendations.
type ContextAware struct {
	base     Recommender
	catalog  map[uint64]Item
	ctxOf    func(userID uint64) Context
	distHalf float64 // distance at which proximity boost halves, meters
}

var _ Recommender = (*ContextAware)(nil)

// NewContextAware wraps base with context re-ranking. ctxOf supplies the
// live AR context per user.
func NewContextAware(base Recommender, catalog []Item, ctxOf func(uint64) Context) *ContextAware {
	m := make(map[uint64]Item, len(catalog))
	for _, it := range catalog {
		m[it.ID] = it
	}
	return &ContextAware{base: base, catalog: m, ctxOf: ctxOf, distHalf: 150}
}

// Name implements Recommender.
func (c *ContextAware) Name() string { return c.base.Name() + "+context" }

// Recommend implements Recommender.
func (c *ContextAware) Recommend(userID uint64, k int) []Scored {
	// Over-fetch from the base model, then re-rank.
	base := c.base.Recommend(userID, k*5)
	if len(base) == 0 {
		return nil
	}
	ctx := c.ctxOf(userID)
	// Gaze-derived category affinity.
	catDwell := make(map[geo.Category]float64)
	var totalDwell float64
	for itemID, ms := range ctx.GazeDwellMS {
		if it, ok := c.catalog[itemID]; ok {
			catDwell[it.Category] += ms
			totalDwell += ms
		}
	}
	out := make([]Scored, 0, len(base))
	for _, s := range base {
		it, ok := c.catalog[s.ItemID]
		if !ok {
			out = append(out, s)
			continue
		}
		boost := 1.0
		if ctx.Location.Valid() {
			d := geo.DistanceMeters(ctx.Location, it.Location)
			boost *= 1 + math.Exp(-d/c.distHalf)
		}
		if totalDwell > 0 {
			boost *= 1 + catDwell[it.Category]/totalDwell
		}
		out = append(out, Scored{ItemID: s.ItemID, Score: s.Score * boost})
	}
	sortScored(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

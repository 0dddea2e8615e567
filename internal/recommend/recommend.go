// Package recommend implements the §3.1 retail brain: recommendation models
// over implicit-feedback interaction logs — a popularity baseline, item-item
// collaborative filtering, and the context-aware re-ranker that fuses CF
// scores with the AR session's location and gaze signals — and a synthetic
// shopper generator with known ground-truth preferences.
package recommend

import (
	"cmp"
	"math"
	"slices"
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
// the implicit user-item matrix. Every sum it takes walks users and items in
// ascending ID: float addition is not associative, so a walk in map order
// would train a different model from one log, and rank differently from
// one model, every time.
type ItemCF struct {
	sim   map[uint64][]weighted // item -> co-owned items and their cosine, ascending ID
	owned map[uint64][]weighted // user -> items and summed weight, ascending ID
}

// weighted is an item with a weight: a user's summed interaction weight, or
// a neighbour's cosine similarity.
type weighted struct {
	id uint64
	w  float64
}

func byID(a, b weighted) int { return cmp.Compare(a.id, b.id) }

var _ Recommender = (*ItemCF)(nil)

// NewItemCF trains similarities from the log. Complexity is O(pairs within
// a user), fine at the simulated scales.
func NewItemCF(log []Interaction) *ItemCF {
	cf := &ItemCF{
		sim:   make(map[uint64][]weighted),
		owned: make(map[uint64][]weighted),
	}
	byUser := make(map[uint64]map[uint64]float64)
	for _, it := range log {
		uv, ok := byUser[it.UserID]
		if !ok {
			uv = make(map[uint64]float64)
			byUser[it.UserID] = uv
		}
		uv[it.ItemID] += it.Weight
	}
	users := make([]uint64, 0, len(byUser))
	for user, uv := range byUser {
		users = append(users, user)
		vec := make([]weighted, 0, len(uv))
		for id, w := range uv {
			vec = append(vec, weighted{id, w})
		}
		slices.SortFunc(vec, byID)
		cf.owned[user] = vec
	}
	slices.Sort(users)
	norms := make(map[uint64]float64)
	dot := make(map[[2]uint64]float64) // {a, b} with a < b
	for _, user := range users {
		vec := cf.owned[user]
		for i, a := range vec {
			norms[a.id] += a.w * a.w
			for _, b := range vec[i+1:] {
				dot[[2]uint64{a.id, b.id}] += a.w * b.w
			}
		}
	}
	for pair, d := range dot {
		a, b := pair[0], pair[1]
		s := d / (math.Sqrt(norms[a])*math.Sqrt(norms[b]) + 1e-12)
		cf.sim[a] = append(cf.sim[a], weighted{b, s})
		cf.sim[b] = append(cf.sim[b], weighted{a, s})
	}
	for _, near := range cf.sim {
		slices.SortFunc(near, byID)
	}
	return cf
}

// Name implements Recommender.
func (cf *ItemCF) Name() string { return "item-cf" }

// Recommend implements Recommender.
func (cf *ItemCF) Recommend(userID uint64, k int) []Scored {
	owned := cf.owned[userID]
	scores := make(map[uint64]float64)
	for _, o := range owned {
		for _, n := range cf.sim[o.id] {
			if _, has := slices.BinarySearchFunc(owned, n, byID); has {
				continue
			}
			scores[n.id] += o.w * n.w
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

package recommend

import (
	"arbd/internal/geo"
	"arbd/internal/sim"
)

// ShopperConfig parameterises the synthetic retail workload.
type ShopperConfig struct {
	Seed          int64
	NumUsers      int
	NumItems      int
	EventsPerUser int
	Center        geo.Point
	RadiusM       float64
}

// Workload is a generated retail scenario with ground truth: user latent
// preferences drive both history and the held-out "next purchase", so a
// model exploiting preference or context must beat popularity.
type Workload struct {
	Catalog []Item
	Log     []Interaction
	// HomeOf is each user's habitual location (their context during the
	// held-out purchase).
	HomeOf map[uint64]geo.Point
	// PrefCat is each user's dominant category (ground truth).
	PrefCat map[uint64]geo.Category
}

// GenerateShoppers builds a deterministic synthetic workload: items spread
// over a city with categories; users with a dominant category preference and
// a home location; interactions biased ~70% to the preferred category and
// toward nearby items.
func GenerateShoppers(cfg ShopperConfig) Workload {
	if cfg.NumUsers <= 0 {
		cfg.NumUsers = 100
	}
	if cfg.NumItems <= 0 {
		cfg.NumItems = 300
	}
	if cfg.EventsPerUser <= 0 {
		cfg.EventsPerUser = 20
	}
	if cfg.RadiusM <= 0 {
		cfg.RadiusM = 2000
	}
	rng := sim.NewRand(cfg.Seed).Child("shoppers")
	cats := []geo.Category{geo.CatRestaurant, geo.CatShop, geo.CatMuseum, geo.CatHotel, geo.CatPark}

	w := Workload{
		HomeOf:  make(map[uint64]geo.Point),
		PrefCat: make(map[uint64]geo.Category),
	}
	for i := 0; i < cfg.NumItems; i++ {
		w.Catalog = append(w.Catalog, Item{
			ID:       uint64(i + 1),
			Category: cats[rng.Intn(len(cats))],
			Location: geo.Destination(cfg.Center, rng.Uniform(0, 360), rng.Float64()*cfg.RadiusM),
		})
	}
	byCat := make(map[geo.Category][]Item)
	for _, it := range w.Catalog {
		byCat[it.Category] = append(byCat[it.Category], it)
	}
	for u := 1; u <= cfg.NumUsers; u++ {
		userID := uint64(u)
		pref := cats[rng.Intn(len(cats))]
		home := geo.Destination(cfg.Center, rng.Uniform(0, 360), rng.Float64()*cfg.RadiusM)
		w.PrefCat[userID] = pref
		w.HomeOf[userID] = home
		for e := 0; e < cfg.EventsPerUser; e++ {
			var pool []Item
			if rng.Bool(0.7) {
				pool = byCat[pref]
			} else {
				pool = w.Catalog
			}
			// Distance-biased pick: sample a few candidates, keep nearest.
			best := sim.Pick(rng, pool)
			bestD := geo.DistanceMeters(home, best.Location)
			for c := 0; c < 2; c++ {
				cand := sim.Pick(rng, pool)
				if d := geo.DistanceMeters(home, cand.Location); d < bestD {
					best, bestD = cand, d
				}
			}
			weight := 0.2
			if rng.Bool(0.4) {
				weight = 1.0 // purchase
			}
			w.Log = append(w.Log, Interaction{UserID: userID, ItemID: best.ID, Weight: weight})
		}
	}
	return w
}

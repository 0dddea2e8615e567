package repro

import (
	"fmt"
	"math"
	"time"

	"arbd/internal/ehr"
	"arbd/internal/geo"
	"arbd/internal/metrics"
	"arbd/internal/recommend"
	"arbd/internal/render"
	"arbd/internal/repro/traffic"
	"arbd/internal/sensor"
	"arbd/internal/sim"
)

// E6Layout compares the floating-bubble baseline against the anchored
// engine on clutter metrics as annotation density grows (§2.1).
func E6Layout() *metrics.Table {
	t := metrics.NewTable("E6: layout quality, bubbles vs anchored",
		"annotations", "engine", "drawn", "overlap%", "occl viol")
	pose := sensor.Pose{Position: geo.CityCenter, HeadingDeg: 0, AltitudeM: 1.6}
	cam := render.DefaultCamera
	for _, n := range []int{25, 100, 400} {
		city := geo.GenerateCity(geo.CityConfig{
			Center: geo.CityCenter, RadiusM: 300, NumPOIs: n, TallRatio: 0.3, Seed: 6,
		})
		occl := render.OccludersFromPOIs(city, 30)
		anns := render.AnnotationsFromPOIsInto(nil, pose, city)
		mB := measureClutter(cam, pose, layoutBubbles(cam, pose, anns), occl)
		mA := measureClutter(cam, pose,
			render.LayoutAnchoredInto(nil, nil, cam, pose, anns, occl, render.LayoutOptions{}), occl)
		t.AddRow(n, "bubbles", mB.Drawn, fmt.Sprintf("%.1f", mB.OverlapFraction*100),
			mB.OcclusionViolations)
		t.AddRow(n, "anchored", mA.Drawn, fmt.Sprintf("%.1f", mA.OverlapFraction*100),
			mA.OcclusionViolations)
	}
	return t
}

// layoutBubbles is E6's baseline: every in-frustum annotation becomes a
// bubble centred on its projection, ignoring collisions and occlusion —
// the floating-bubble AR browsers of the paper's era.
func layoutBubbles(cam render.Camera, pose sensor.Pose, anns []render.Annotation) []render.Annotation {
	out := make([]render.Annotation, 0, len(anns))
	from := geo.OriginAt(pose.Position)
	for _, a := range anns {
		pos, _, ok := cam.Project(pose, &from, &a)
		if !ok {
			continue
		}
		a.Pos = pos
		a.W, a.H = render.LabelW, render.LabelH
		a.X, a.Y = pos.X-a.W/2, pos.Y-a.H/2
		a.Placed = true
		out = append(out, a)
	}
	return out
}

// clutter summarises layout quality; lower is better on every field.
type clutter struct {
	Drawn               int
	OverlapFraction     float64 // overlapped box area / total box area
	OcclusionViolations int     // occluded anchors drawn as if visible
	OffscreenBoxes      int     // boxes extending beyond screen edges
}

// measureClutter computes layout-quality metrics for a set of laid-out
// annotations. Occlusion is re-derived from the scene so the bubble
// baseline (which never tests it) is scored fairly.
func measureClutter(cam render.Camera, pose sensor.Pose, laid []render.Annotation, occluders []render.Occluder) clutter {
	var m clutter
	m.Drawn = len(laid)
	if len(laid) == 0 {
		return m
	}
	var overlap, total float64
	for i := range laid {
		a := &laid[i]
		total += a.W * a.H
		if a.X < 0 || a.Y < 0 || a.X+a.W > float64(cam.Width) || a.Y+a.H > float64(cam.Height) {
			m.OffscreenBoxes++
		}
		if !a.XRay && render.IsOccluded(pose, a.Anchor, a.AnchorHM, occluders) {
			m.OcclusionViolations++
		}
		for j := i + 1; j < len(laid); j++ {
			overlap += overlapArea(a, &laid[j])
		}
	}
	m.OverlapFraction = overlap / total
	return m
}

// overlapArea returns the intersection area of two boxes.
func overlapArea(a, b *render.Annotation) float64 {
	w := math.Min(a.X+a.W, b.X+b.W) - math.Max(a.X, b.X)
	h := math.Min(a.Y+a.H, b.Y+b.H) - math.Max(a.Y, b.Y)
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// E7Recommend evaluates recommendation lift: popularity vs item-CF vs
// context-aware, HR@10 and NDCG@10 on synthetic shoppers (§3.1).
func E7Recommend() *metrics.Table {
	t := metrics.NewTable("E7: recommendation quality (leave-one-out, K=10)",
		"model", "HR@10", "NDCG@10", "users")
	w := recommend.GenerateShoppers(recommend.ShopperConfig{
		Seed: 7, NumUsers: 400, NumItems: 500, EventsPerUser: 30, Center: geo.CityCenter,
	})
	sp := leaveOneOut(w.Log, 5)
	pop := recommend.NewPopularity(sp.Train)
	cf := recommend.NewItemCF(sp.Train)
	ctx := recommend.NewContextAware(cf, w.Catalog, contextFor(w, sp))
	for _, rec := range []recommend.Recommender{pop, cf, ctx} {
		m := evaluate(rec, sp, 10)
		t.AddRow(rec.Name(), fmt.Sprintf("%.3f", m.HitRate), fmt.Sprintf("%.3f", m.NDCG), m.Users)
	}
	return t
}

// split holds a leave-one-out evaluation split: for each user, the held-out
// item is the last (strongest) interaction; everything else trains.
type split struct {
	Train   []recommend.Interaction
	Holdout map[uint64]uint64 // user -> held-out item
}

// leaveOneOut builds a split from a log ordered arbitrarily: the final
// interaction of each user (in log order) is held out. Users with fewer
// than minEvents interactions are not evaluated.
func leaveOneOut(log []recommend.Interaction, minEvents int) split {
	last := make(map[uint64]int)
	count := make(map[uint64]int)
	for i, it := range log {
		last[it.UserID] = i
		count[it.UserID]++
	}
	sp := split{Holdout: make(map[uint64]uint64)}
	for i, it := range log {
		if last[it.UserID] == i && count[it.UserID] >= minEvents {
			sp.Holdout[it.UserID] = it.ItemID
			continue
		}
		sp.Train = append(sp.Train, it)
	}
	return sp
}

// rankMetrics summarises offline ranking quality.
type rankMetrics struct {
	HitRate float64 // fraction of users whose held-out item is in top-K
	NDCG    float64 // discounted gain of its rank position
	Users   int
}

// evaluate scores a recommender on the split at cutoff k.
func evaluate(rec recommend.Recommender, sp split, k int) rankMetrics {
	var hits, ndcg float64
	users := 0
	for user, want := range sp.Holdout {
		recs := rec.Recommend(user, k)
		users++
		for rank, s := range recs {
			if s.ItemID == want {
				hits++
				ndcg += 1 / math.Log2(float64(rank)+2)
				break
			}
		}
	}
	if users == 0 {
		return rankMetrics{}
	}
	return rankMetrics{HitRate: hits / float64(users), NDCG: ndcg / float64(users), Users: users}
}

// contextFor derives the evaluation-time AR context for a user of w:
// standing at home with gaze dwell concentrated on items of their preferred
// category that they have already interacted with.
func contextFor(w recommend.Workload, sp split) func(uint64) recommend.Context {
	itemsByID := make(map[uint64]recommend.Item, len(w.Catalog))
	for _, it := range w.Catalog {
		itemsByID[it.ID] = it
	}
	dwell := make(map[uint64]map[uint64]float64)
	for _, it := range sp.Train {
		item := itemsByID[it.ItemID]
		if item.Category != w.PrefCat[it.UserID] {
			continue
		}
		m, ok := dwell[it.UserID]
		if !ok {
			m = make(map[uint64]float64)
			dwell[it.UserID] = m
		}
		m[it.ItemID] += 800 * it.Weight // plausible dwell milliseconds
	}
	return func(userID uint64) recommend.Context {
		return recommend.Context{Location: w.HomeOf[userID], GazeDwellMS: dwell[userID]}
	}
}

// E8HealthAlerts measures alert detection latency and precision/recall as
// the monitored population grows (§3.3).
func E8HealthAlerts() *metrics.Table {
	const duration = 600 // seconds
	t := metrics.NewTable(
		fmt.Sprintf("E8: vitals alerting, %d-minute episodes at 1Hz sampling", duration/60),
		"patients", "episodes", "detected", "false alarms", "mean latency")
	for _, patients := range []int{10, 100, 500} {
		store := ehr.NewStore()
		engine := ehr.NewAlertEngine(store, ehr.StandardRules())
		rng := sim.NewRand(8)
		vitals := make([]*sensor.Vitals, patients)
		episodeAt := make([]time.Time, patients)
		for i := range vitals {
			vitals[i] = sensor.NewVitals(int64(1000 + i))
			store.PutPatient(ehr.Patient{ID: uint64(i + 1), Name: fmt.Sprintf("p%d", i+1)})
		}
		// A third of patients get an episode at a random minute.
		episodes := 0
		for i := range vitals {
			if rng.Bool(0.33) {
				// Episodes start in the first half of the run, leaving room
				// to detect them.
				at := sim.Epoch.Add(time.Duration(duration/10+rng.Intn(duration*2/5)) * time.Second)
				vitals[i].StartEpisode(at, 2*time.Minute)
				episodeAt[i] = at
				episodes++
			}
		}
		firstAlert := make(map[uint64]time.Time)
		falseAlarms := 0
		for sec := 0; sec < duration; sec++ {
			now := sim.Epoch.Add(time.Duration(sec) * time.Second)
			for i, v := range vitals {
				pid := uint64(i + 1)
				for _, samp := range v.Sample(now) {
					for _, a := range engine.Ingest(pid, samp) {
						if episodeAt[i].IsZero() {
							falseAlarms++
						} else if _, seen := firstAlert[pid]; !seen {
							firstAlert[pid] = a.Time
						}
					}
				}
			}
		}
		detected := 0
		var latSum time.Duration
		for i := range vitals {
			if episodeAt[i].IsZero() {
				continue
			}
			if at, ok := firstAlert[uint64(i+1)]; ok && !at.Before(episodeAt[i]) {
				detected++
				latSum += at.Sub(episodeAt[i])
			}
		}
		meanLat := time.Duration(0)
		if detected > 0 {
			meanLat = latSum / time.Duration(detected)
		}
		t.AddRow(patients, episodes, detected, falseAlarms, meanLat.Round(time.Second))
	}
	return t
}

// E9Traffic measures collision-warning recall and the "x-ray vision"
// benefit of cloud-shared beacons across penetration rates (§3.4).
func E9Traffic() *metrics.Table {
	const steps = 120 // 500 ms each
	t := metrics.NewTable(
		fmt.Sprintf("E9: conflict detection recall over %.0fs urban sim", float64(steps)/2),
		"penetration", "mode", "truth pairs", "detected", "recall", "mean TTC")
	for _, pen := range []float64{0.3, 0.6, 1.0} {
		for _, shared := range []bool{false, true} {
			s := traffic.NewSim(traffic.Config{
				Seed: 9, GridN: 6, BlockM: 120, NumVehicles: 60, Penetration: pen,
			}, sim.Epoch)
			var truth, det int
			var ttcSum time.Duration
			ttcN := 0
			for step := 0; step < steps; step++ {
				s.Step(500 * time.Millisecond)
				st := s.MeasureDetection(250, shared, 8*time.Second, 12)
				truth += st.TruthPairs
				det += st.DetectedPairs
				if st.DetectedPairs > 0 {
					ttcSum += st.MeanTTC
					ttcN++
				}
			}
			mode := "line-of-sight"
			if shared {
				mode = "cloud-shared"
			}
			recall := 0.0
			if truth > 0 {
				recall = float64(det) / float64(truth)
			}
			meanTTC := time.Duration(0)
			if ttcN > 0 {
				meanTTC = (ttcSum / time.Duration(ttcN)).Round(100 * time.Millisecond)
			}
			t.AddRow(fmt.Sprintf("%.0f%%", pen*100), mode, truth, det,
				fmt.Sprintf("%.2f", recall), meanTTC)
		}
	}
	return t
}

package bench

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"arbd/internal/ehr"
	"arbd/internal/geo"
	"arbd/internal/metrics"
	"arbd/internal/recommend"
	"arbd/internal/render"
	"arbd/internal/sensor"
	"arbd/internal/sim"
	"arbd/internal/traffic"
)

var benchCenter = geo.Point{Lat: 22.3364, Lon: 114.2655}

// E5GeoIndex compares POI query latency between a full scan of the
// catalogue and the R-tree store across dataset sizes (§3.2: every AR frame
// is a geospatial context query). Range queries share result post-processing
// between the two; 10-NN queries isolate the search structure, which is
// where the tree wins by orders of magnitude.
func E5GeoIndex() *metrics.Table {
	return e5GeoIndex([]int{1_000, 10_000, 50_000, 200_000}, 40)
}

func e5GeoIndexSmoke() *metrics.Table {
	return e5GeoIndex([]int{1_000, 5_000}, 8)
}

func e5GeoIndex(poiCounts []int, numQueries int) *metrics.Table {
	t := metrics.NewTable("E5: POI queries, mean latency (150m range / 10-NN)",
		"POIs", "range scan", "range rtree", "knn scan", "knn rtree", "knn speedup")
	for _, n := range poiCounts {
		city := geo.GenerateCity(geo.CityConfig{
			Center: benchCenter, RadiusM: 5000, NumPOIs: n, TallRatio: 0.2, Seed: 5,
		})
		store, err := geo.LoadStore(city)
		if err != nil {
			panic(err)
		}
		rng := sim.NewRand(55)
		centers := make([]geo.Point, numQueries)
		for i := range centers {
			centers[i] = geo.Destination(benchCenter, rng.Uniform(0, 360), rng.Float64()*3000)
		}
		mean := func(query func(c geo.Point)) time.Duration {
			start := time.Now()
			for _, c := range centers {
				query(c)
			}
			return time.Since(start) / time.Duration(len(centers))
		}
		rangeScan := mean(func(c geo.Point) { scanQuery(city, c, 150, 0) })
		rangeTree := mean(func(c geo.Point) { store.QueryRadius(c, 150, 0) })
		knnScan := mean(func(c geo.Point) { scanQuery(city, c, math.Inf(1), 10) })
		knnTree := mean(func(c geo.Point) { store.Nearest(c, 10) })
		t.AddRow(n, us(rangeScan), us(rangeTree), us(knnScan), us(knnTree),
			fmt.Sprintf("%.0fx", float64(knnScan)/float64(knnTree+1)))
	}
	return t
}

// scanQuery is the baseline the paper-era AR browsers effectively ran, and
// what E5 and E13 measure the R-tree store against: filter the whole
// catalogue by the circle's bounding box, measure what is left, sort it by
// (distance, ID) and keep the limit nearest (limit <= 0: all) within
// radiusM (+Inf: anywhere).
func scanQuery(pois []geo.POI, center geo.Point, radiusM float64, limit int) []geo.POI {
	type scored struct {
		poi  *geo.POI
		dist float64
	}
	bbox := geo.RectAround(center, radiusM)
	var hits []scored
	for i := range pois {
		if !bbox.Contains(pois[i].Location) {
			continue
		}
		if d := geo.DistanceMeters(center, pois[i].Location); d <= radiusM {
			hits = append(hits, scored{&pois[i], d})
		}
	}
	slices.SortFunc(hits, func(a, b scored) int {
		if c := cmp.Compare(a.dist, b.dist); c != 0 {
			return c
		}
		return cmp.Compare(a.poi.ID, b.poi.ID)
	})
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	out := make([]geo.POI, len(hits))
	for i, h := range hits {
		out[i] = *h.poi
	}
	return out
}

// E6Layout compares the floating-bubble baseline against the anchored
// engine on clutter metrics and cost as annotation density grows (§2.1).
func E6Layout() *metrics.Table {
	t := metrics.NewTable("E6: layout quality, bubbles vs anchored",
		"annotations", "engine", "drawn", "overlap%", "occl viol", "ms/frame")
	pose := sensor.Pose{Position: benchCenter, HeadingDeg: 0, AltitudeM: 1.6}
	cam := render.DefaultCamera
	for _, n := range []int{25, 100, 400} {
		city := geo.GenerateCity(geo.CityConfig{
			Center: benchCenter, RadiusM: 300, NumPOIs: n, TallRatio: 0.3, Seed: 6,
		})
		occl := render.OccludersFromPOIs(city, 30)
		anns := render.AnnotationsFromPOIs(pose, city)

		const frames = 30
		start := time.Now()
		var laidB []render.Annotation
		for f := 0; f < frames; f++ {
			laidB = render.LayoutBubbles(cam, pose, anns)
		}
		bubbleTime := time.Since(start) / frames
		mB := render.MeasureClutter(cam, pose, laidB, occl)

		start = time.Now()
		var laidA []render.Annotation
		for f := 0; f < frames; f++ {
			laidA = render.LayoutAnchored(cam, pose, anns, occl, render.LayoutOptions{})
		}
		anchorTime := time.Since(start) / frames
		mA := render.MeasureClutter(cam, pose, laidA, occl)

		t.AddRow(n, "bubbles", mB.Drawn, fmt.Sprintf("%.1f", mB.OverlapFraction*100),
			mB.OcclusionViolations, ms(bubbleTime))
		t.AddRow(n, "anchored", mA.Drawn, fmt.Sprintf("%.1f", mA.OverlapFraction*100),
			mA.OcclusionViolations, ms(anchorTime))
	}
	return t
}

// E7Recommend evaluates recommendation lift: popularity vs item-CF vs
// context-aware, HR@10 and NDCG@10 on synthetic shoppers (§3.1).
func E7Recommend() *metrics.Table {
	return e7Recommend(400, 500, 30)
}

func e7RecommendSmoke() *metrics.Table {
	return e7Recommend(60, 80, 12)
}

func e7Recommend(users, items, eventsPerUser int) *metrics.Table {
	t := metrics.NewTable("E7: recommendation quality (leave-one-out, K=10)",
		"model", "HR@10", "NDCG@10", "users")
	w := recommend.GenerateShoppers(recommend.ShopperConfig{
		Seed: 7, NumUsers: users, NumItems: items, EventsPerUser: eventsPerUser, Center: benchCenter,
	})
	sp := recommend.LeaveOneOut(w.Log, 5)
	pop := recommend.NewPopularity(sp.Train)
	cf := recommend.NewItemCF(sp.Train)
	ctx := recommend.NewContextAware(cf, w.Catalog, w.ContextFor(sp))
	for _, rec := range []recommend.Recommender{pop, cf, ctx} {
		m := recommend.Evaluate(rec, sp, 10)
		t.AddRow(rec.Name(), fmt.Sprintf("%.3f", m.HitRate), fmt.Sprintf("%.3f", m.NDCG), m.Users)
	}
	return t
}

// E8HealthAlerts measures alert detection latency and precision/recall as
// the monitored population grows (§3.3).
func E8HealthAlerts() *metrics.Table {
	return e8HealthAlerts([]int{10, 100, 500}, 600)
}

func e8HealthAlertsSmoke() *metrics.Table {
	return e8HealthAlerts([]int{10}, 180)
}

func e8HealthAlerts(patientCounts []int, duration int) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("E8: vitals alerting, %d-minute episodes at 1Hz sampling", duration/60),
		"patients", "episodes", "detected", "false alarms", "mean latency", "ingest k/s")
	for _, patients := range patientCounts {
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
				// Episodes start in the first half of the run so even short
				// (smoke) runs leave room to detect them.
				at := sim.Epoch.Add(time.Duration(duration/10+rng.Intn(duration*2/5)) * time.Second)
				vitals[i].StartEpisode(at, 2*time.Minute)
				episodeAt[i] = at
				episodes++
			}
		}
		firstAlert := make(map[uint64]time.Time)
		falseAlarms := 0
		samples := 0
		start := time.Now()
		for sec := 0; sec < duration; sec++ {
			now := sim.Epoch.Add(time.Duration(sec) * time.Second)
			for i, v := range vitals {
				pid := uint64(i + 1)
				for _, samp := range v.Sample(now) {
					samples++
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
		wall := time.Since(start)
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
		rate := float64(samples) / wall.Seconds() / 1e3
		t.AddRow(patients, episodes, detected, falseAlarms, meanLat.Round(time.Second),
			fmt.Sprintf("%.0f", rate))
	}
	return t
}

// E9Traffic measures collision-warning recall and the "x-ray vision"
// benefit of cloud-shared beacons across penetration rates (§3.4).
func E9Traffic() *metrics.Table {
	return e9Traffic([]float64{0.3, 0.6, 1.0}, 60, 120)
}

func e9TrafficSmoke() *metrics.Table {
	return e9Traffic([]float64{1.0}, 20, 30)
}

func e9Traffic(penetrations []float64, vehicles, steps int) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("E9: conflict detection recall over %.0fs urban sim", float64(steps)/2),
		"penetration", "mode", "truth pairs", "detected", "recall", "mean TTC")
	for _, pen := range penetrations {
		for _, shared := range []bool{false, true} {
			s := traffic.NewSim(traffic.Config{
				Seed: 9, GridN: 6, BlockM: 120, NumVehicles: vehicles, Penetration: pen,
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

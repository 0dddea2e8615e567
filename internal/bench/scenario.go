package bench

import (
	"fmt"
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

// E6Layout compares the floating-bubble baseline against the anchored
// engine on clutter metrics as annotation density grows (§2.1).
func E6Layout() *metrics.Table {
	t := metrics.NewTable("E6: layout quality, bubbles vs anchored",
		"annotations", "engine", "drawn", "overlap%", "occl viol")
	pose := sensor.Pose{Position: benchCenter, HeadingDeg: 0, AltitudeM: 1.6}
	cam := render.DefaultCamera
	for _, n := range []int{25, 100, 400} {
		city := geo.GenerateCity(geo.CityConfig{
			Center: benchCenter, RadiusM: 300, NumPOIs: n, TallRatio: 0.3, Seed: 6,
		})
		occl := render.OccludersFromPOIs(city, 30)
		anns := render.AnnotationsFromPOIs(pose, city)
		mB := render.MeasureClutter(cam, pose, render.LayoutBubbles(cam, pose, anns), occl)
		mA := render.MeasureClutter(cam, pose,
			render.LayoutAnchored(cam, pose, anns, occl, render.LayoutOptions{}), occl)
		t.AddRow(n, "bubbles", mB.Drawn, fmt.Sprintf("%.1f", mB.OverlapFraction*100),
			mB.OcclusionViolations)
		t.AddRow(n, "anchored", mA.Drawn, fmt.Sprintf("%.1f", mA.OverlapFraction*100),
			mA.OcclusionViolations)
	}
	return t
}

// E7Recommend evaluates recommendation lift: popularity vs item-CF vs
// context-aware, HR@10 and NDCG@10 on synthetic shoppers (§3.1).
func E7Recommend() *metrics.Table {
	t := metrics.NewTable("E7: recommendation quality (leave-one-out, K=10)",
		"model", "HR@10", "NDCG@10", "users")
	w := recommend.GenerateShoppers(recommend.ShopperConfig{
		Seed: 7, NumUsers: 400, NumItems: 500, EventsPerUser: 30, Center: benchCenter,
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

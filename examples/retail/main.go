// Retail (§3.1): a shopper walks a mall district while the platform learns
// from purchases and gaze, then serves context-aware recommendations and
// semantically tagged overlays ("only 2 left", "sale").
package main

import (
	"fmt"
	"log"
	"time"

	"arbd"
	"arbd/internal/recommend"
	"arbd/internal/sensor"
)

func main() {
	center := arbd.Point{Lat: 22.2819, Lon: 114.1582} // Central, Hong Kong
	platform, err := arbd.New(arbd.Config{
		Seed: 7,
		City: arbd.CityConfig{Center: center, RadiusM: 1200, NumPOIs: 900},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := platform.Start(); err != nil {
		log.Fatal(err)
	}
	defer platform.Stop()

	// Train a recommender on a synthetic purchase log and wrap it with the
	// AR context re-ranker.
	w := recommend.GenerateShoppers(recommend.ShopperConfig{
		Seed: 7, NumUsers: 300, NumItems: 400, EventsPerUser: 25, Center: center,
	})
	cf := recommend.NewItemCF(w.Log)
	session := platform.NewSession()
	// The re-ranker asks for the shopper's position while the session
	// renders a frame, under the session's lock: it reads the last fix fed
	// to the session, never the session itself.
	here := center
	ctxAware := recommend.NewContextAware(cf, w.Catalog, func(uint64) recommend.Context {
		return recommend.Context{Location: here}
	})
	platform.SetRecommender(ctxAware)

	// Walk for a minute of simulated time, gazing and buying.
	walker := arbd.NewWalker(arbd.WalkerConfig{Center: center, RadiusM: 400, Seed: 7})
	gps := sensor.NewGPS(7, 5)
	gaze := sensor.NewGaze(7)
	start := time.Now()
	for i := 0; i < 60; i++ {
		now := start.Add(time.Duration(i) * time.Second)
		truth := walker.Step(time.Second)
		fix := gps.Fix(now, truth.Position)
		here = fix.Position
		if err := session.OnGPS(fix); err != nil {
			log.Fatal(err)
		}
		frame, err := session.Frame(now)
		if err != nil {
			log.Fatal(err)
		}
		// The shopper's eyes wander over the overlay.
		if g := gaze.Sample(now, time.Second, session.GazeTargets()); g.TargetID != 0 {
			if err := session.OnGaze(g); err != nil {
				log.Fatal(err)
			}
		}
		// Occasionally they buy from the overlay.
		if i%20 == 10 && len(frame.Annotations) > 0 {
			if err := session.RecordInteraction(frame.Annotations[0].ID, 1.0); err != nil {
				log.Fatal(err)
			}
		}
	}

	frame, err := session.Frame(start.Add(time.Minute))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after 60s of shopping: %d annotations, %d recommendations\n",
		len(frame.Annotations), len(frame.Recommended))
	fmt.Println("\ntop in-view content:")
	for i, a := range frame.Annotations {
		if i == 8 {
			break
		}
		fmt.Printf("  %-30s\n", a.Label)
	}
	fmt.Println("\nrecommended next stops:")
	for _, id := range frame.Recommended {
		fmt.Printf("  item %d\n", id)
	}
	fmt.Println("\ntrending POIs across all shoppers:")
	for _, hh := range platform.HotPOIs(5) {
		fmt.Printf("  %-12s %d interactions\n", hh.Key, hh.Count)
	}
}

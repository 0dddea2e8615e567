// Public services (§3.4): a VANET on a city grid. The driver's AR display
// warns about predicted conflicts; cloud-shared beacons add the "x-ray
// vision" ability to see vehicles hidden behind buildings.
package main

import (
	"fmt"
	"time"

	"arbd/internal/repro/traffic"
	"arbd/internal/sim"
)

func main() {
	s := traffic.NewSim(traffic.Config{
		Seed:        3,
		GridN:       6,
		BlockM:      120,
		NumVehicles: 50,
		Penetration: 0.8,
	}, sim.Epoch)

	const (
		radioRange = 250.0
		horizon    = 8 * time.Second
		minSep     = 12.0
	)
	var losDetected, sharedDetected, truthTotal int
	fmt.Println("simulating 60s of urban traffic (80% V2X penetration)...")
	for step := 0; step < 120; step++ {
		s.Step(500 * time.Millisecond)
		los := s.MeasureDetection(radioRange, false, horizon, minSep)
		shared := s.MeasureDetection(radioRange, true, horizon, minSep)
		losDetected += los.DetectedPairs
		sharedDetected += shared.DetectedPairs
		truthTotal += shared.TruthPairs
	}
	fmt.Printf("\nconflicts (oracle):            %d\n", truthTotal)
	fmt.Printf("warned, line-of-sight radios:  %d (recall %.0f%%)\n",
		losDetected, pct(losDetected, truthTotal))
	fmt.Printf("warned, cloud-shared beacons:  %d (recall %.0f%%)\n",
		sharedDetected, pct(sharedDetected, truthTotal))
	fmt.Printf("x-ray vision benefit:          +%.0f%% of conflicts seen through buildings\n",
		pct(sharedDetected-losDetected, truthTotal))

	// Show one driver's live AR warning panel.
	vehicles := s.Vehicles()
	inbox := s.ReceivedBeacons(radioRange, true)
	for _, v := range vehicles {
		if !v.Equipped {
			continue
		}
		warnings := traffic.WarningsFromBeacons(v, inbox[v.ID], horizon, minSep)
		if len(warnings) == 0 {
			continue
		}
		fmt.Printf("\ndriver %d heads-up display:\n", v.ID)
		for _, w := range warnings {
			fmt.Printf("  ⚠ vehicle %d — closest approach %.0f m in %v\n",
				w.B, w.MinSep, w.TTC.Round(100*time.Millisecond))
		}
		break
	}
}

func pct(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

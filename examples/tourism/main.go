// Tourism (§3.2): a tourist explores an unfamiliar city; the platform fuses
// GPS+IMU+vision for registration and labels landmarks through walls with
// x-ray styling. GPS fixes only move the tourist's tracking: the backend
// keeps no log of the route.
package main

import (
	"fmt"
	"log"
	"time"

	"arbd"
	"arbd/internal/sensor"
	"arbd/internal/tracking"
)

func main() {
	center := arbd.Point{Lat: 22.3364, Lon: 114.2655}
	platform, err := arbd.New(arbd.Config{
		Seed: 21,
		City: arbd.CityConfig{Center: center, RadiusM: 2500, NumPOIs: 2000, TallRatio: 0.25},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := platform.Start(); err != nil {
		log.Fatal(err)
	}
	defer platform.Stop()

	session := platform.NewSession()
	walker := arbd.NewWalker(arbd.WalkerConfig{Center: center, RadiusM: 600, Seed: 21})
	gps := sensor.NewGPS(21, 6)
	imu := sensor.NewIMU(21)
	cam := sensor.NewCamera(sensor.CameraConfig{Seed: 21})

	start := time.Now()
	var regErr tracking.RegError
	frames := 0
	xray := 0
	const steps = 300 // 30 s at 10 Hz
	for i := 0; i < steps; i++ {
		now := start.Add(time.Duration(i) * 100 * time.Millisecond)
		truth := walker.Step(100 * time.Millisecond)
		session.OnIMU(imu.Sample(now, truth, 100*time.Millisecond))
		if i%10 == 0 {
			if err := session.OnGPS(gps.Fix(now, truth.Position)); err != nil {
				log.Fatal(err)
			}
		}
		if i%3 == 0 { // vision corrections from recognised facades
			near := platform.POIs().QueryRadius(truth.Position, 160, 0)
			session.OnVision(now, cam.Observe(now, truth, near))
		}
		if i%10 == 5 {
			frame, err := session.Frame(now)
			if err != nil {
				log.Fatal(err)
			}
			frames++
			for _, a := range frame.Annotations {
				if a.XRay {
					xray++
				}
			}
			e := tracking.Register(frame.Pose, truth, 60, 1280)
			regErr.PositionM += e.PositionM
			regErr.HeadingDeg += e.HeadingDeg
		}
	}
	fmt.Printf("tour: %d frames over %ds\n", frames, steps/10)
	fmt.Printf("mean registration error: %.1f m position, %.1f° heading\n",
		regErr.PositionM/float64(frames), regErr.HeadingDeg/float64(frames))
	fmt.Printf("x-ray (see-through) annotations shown: %d\n", xray)

	final, err := session.Frame(start.Add(time.Minute))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncurrent view:")
	for i, a := range final.Annotations {
		if i == 8 {
			break
		}
		marker := " "
		if a.XRay {
			marker = "▒" // drawn through a building
		}
		fmt.Printf("  %s %-24s %.0fm away\n", marker, a.Label, a.Pos.Depth)
	}
}

package repro

import (
	"fmt"
	"time"

	"arbd/internal/metrics"
	"arbd/internal/repro/offload"
)

// E4Offload reproduces the CloudRiDAR-style crossover: per-frame latency and
// device energy for local/edge/cloud placements across network profiles
// (§4.1).
func E4Offload() *metrics.Table {
	t := metrics.NewTable("E4: AR pipeline placement per network profile (per frame)",
		"network", "placement", "latency", "energy mJ", "chosen")
	device := offload.Node{ID: "mobile", SpeedFactor: 1, ActiveWatts: 2.5, IdleWatts: 0.8, TxWatts: 1.8}
	edge := offload.Node{ID: "edge", SpeedFactor: 6, ActiveWatts: 65, IdleWatts: 20, TxWatts: 5}
	cloud := offload.Node{ID: "cloud", SpeedFactor: 32, ActiveWatts: 250, IdleWatts: 80, TxWatts: 10}
	stages := offload.ARPipeline(0, 0)

	profiles := []offload.Profile{offload.ProfileLAN, offload.ProfileWiFi, offload.ProfileLTE, offload.Profile3G}
	for _, link := range profiles {
		wan := link
		wan.RTT += 40 * time.Millisecond
		remotes := []offload.RemoteOption{
			{Node: edge, Link: link},
			{Node: cloud, Link: wan},
		}
		best := offload.Best(stages, device, remotes)
		candidates := []struct {
			name string
			est  func() (offload.Estimate, error)
		}{
			{"local", func() (offload.Estimate, error) {
				return offload.Evaluate(stages, device, device, offload.ProfileLoopback, offload.Local())
			}},
			{"edge[1:4]", func() (offload.Estimate, error) {
				return offload.Evaluate(stages, device, edge, link,
					offload.Placement{RemoteStart: 1, RemoteEnd: 4, RemoteNode: "edge"})
			}},
			{"cloud[1:4]", func() (offload.Estimate, error) {
				return offload.Evaluate(stages, device, cloud, wan,
					offload.Placement{RemoteStart: 1, RemoteEnd: 4, RemoteNode: "cloud"})
			}},
		}
		shown := false
		for _, c := range candidates {
			est, err := c.est()
			if err != nil {
				panic(err)
			}
			chosen := ""
			if c.name == best.Placement.String() || (c.name == "local" && best.Placement.IsLocal()) {
				chosen = "<-- best"
				shown = true
			}
			t.AddRow(link.Name, c.name, ms(est.Latency),
				fmt.Sprintf("%.1f", est.DeviceEnergyJ*1e3), chosen)
		}
		// The planner may pick a split not in the display set (e.g. on WiFi
		// it extracts features locally and ships only descriptors); always
		// show its actual decision.
		if !shown {
			t.AddRow(link.Name, best.Placement.String(), ms(best.Estimate.Latency),
				fmt.Sprintf("%.1f", best.Estimate.DeviceEnergyJ*1e3), "<-- best")
		}
	}
	return t
}

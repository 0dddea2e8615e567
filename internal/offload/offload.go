// Package offload implements §4.1's computation-offloading argument
// (CloudRiDAR [13]): the AR frame pipeline as a stage graph, a node
// speed/power model and network link profiles, and a latency+device-energy
// estimator over every device/edge/cloud split placement.
package offload

import (
	"errors"
	"fmt"
	"time"
)

// Offload errors.
var (
	ErrLocalOnly = errors.New("offload: placement moves a device-only stage off the device")
	ErrBadSplit  = errors.New("offload: invalid split range")
)

// Profile describes a network link class.
type Profile struct {
	Name          string
	RTT           time.Duration // round-trip propagation latency
	BandwidthMbps float64       // payload throughput
}

// Standard link profiles, parameterised from published mobile-network
// measurements (order-of-magnitude, which is all the offload crossover
// shapes need).
var (
	ProfileLoopback = Profile{Name: "loopback", RTT: 50 * time.Microsecond, BandwidthMbps: 10000}
	ProfileLAN      = Profile{Name: "lan", RTT: 500 * time.Microsecond, BandwidthMbps: 1000}
	ProfileWiFi     = Profile{Name: "wifi", RTT: 5 * time.Millisecond, BandwidthMbps: 100}
	ProfileLTE      = Profile{Name: "lte", RTT: 35 * time.Millisecond, BandwidthMbps: 20}
	Profile3G       = Profile{Name: "3g", RTT: 120 * time.Millisecond, BandwidthMbps: 2}
)

// OneWay returns the time to move payloadBytes across the link once: half
// an RTT of propagation plus serialisation at the link bandwidth.
func (p Profile) OneWay(payloadBytes int) time.Duration {
	ser := time.Duration(float64(payloadBytes*8) / (p.BandwidthMbps * 1e6) * float64(time.Second))
	return p.RTT/2 + ser
}

// baseOpsPerSecond is the throughput of a SpeedFactor-1.0 node. The absolute
// value is arbitrary; ratios between node classes drive every result.
const baseOpsPerSecond = 2e9

// Node is one compute element.
type Node struct {
	ID string
	// SpeedFactor scales compute throughput relative to the mobile
	// baseline (mobile ≈ 1, edge ≈ 4-8, cloud ≈ 16-64).
	SpeedFactor float64
	// ActiveWatts and IdleWatts drive the device energy model (battery
	// life is one of the paper's §4 practical barriers).
	ActiveWatts float64
	IdleWatts   float64
	// TxWatts is radio transmit power draw during network transfers.
	TxWatts float64
}

// ExecTime returns how long ops operations take on this node.
func (n Node) ExecTime(ops float64) time.Duration {
	if n.SpeedFactor <= 0 {
		return time.Duration(math31)
	}
	return time.Duration(ops / (n.SpeedFactor * baseOpsPerSecond) * float64(time.Second))
}

const math31 = 1<<62 - 1 // effectively infinite duration for a dead node

// ComputeEnergyJoules returns device energy burned computing for d at active
// power.
func (n Node) ComputeEnergyJoules(d time.Duration) float64 {
	return n.ActiveWatts * d.Seconds()
}

// RadioEnergyJoules returns device energy burned transmitting/receiving for
// d.
func (n Node) RadioEnergyJoules(d time.Duration) float64 {
	return n.TxWatts * d.Seconds()
}

// IdleEnergyJoules returns device energy burned waiting for d.
func (n Node) IdleEnergyJoules(d time.Duration) float64 {
	return n.IdleWatts * d.Seconds()
}

// Stage is one step of the AR frame pipeline.
type Stage struct {
	Name string
	// Ops is the stage's compute cost in abstract operations (see
	// Node.ExecTime).
	Ops float64
	// OutBytes is the payload handed to the next stage (or back to the
	// device from the last remote stage).
	OutBytes int
	// DeviceOnly pins the stage to the device (sensor capture, display).
	DeviceOnly bool
}

// ARPipeline returns the canonical five-stage mobile AR pipeline with costs
// scaled to the input frame. Ops values are calibrated so the full pipeline
// is ~35 ms on a SpeedFactor-1 device — the order of magnitude CloudRiDAR
// reports for feature-based tracking on 2014-era phones.
func ARPipeline(frameBytes int, numFeatures int) []Stage {
	if frameBytes <= 0 {
		frameBytes = 640 * 480 // grayscale VGA
	}
	if numFeatures <= 0 {
		numFeatures = 400
	}
	featBytes := numFeatures * 36 // descriptor payload
	return []Stage{
		{Name: "capture", Ops: 1e6, OutBytes: frameBytes, DeviceOnly: true},
		{Name: "extract", Ops: 30e6, OutBytes: featBytes},
		{Name: "match", Ops: 28e6, OutBytes: 2 << 10},
		{Name: "pose", Ops: 8e6, OutBytes: 512},
		{Name: "render", Ops: 3e6, OutBytes: 0, DeviceOnly: true},
	}
}

// Placement assigns a contiguous run of stages [RemoteStart, RemoteEnd) to a
// remote node; everything else runs on the device. RemoteStart == RemoteEnd
// means fully local.
type Placement struct {
	RemoteStart int
	RemoteEnd   int
	RemoteNode  string
}

// Local returns the fully-local placement.
func Local() Placement { return Placement{} }

// IsLocal reports whether the placement keeps every stage on the device.
func (p Placement) IsLocal() bool { return p.RemoteStart >= p.RemoteEnd }

// String renders the placement for tables and logs.
func (p Placement) String() string {
	if p.IsLocal() {
		return "local"
	}
	return fmt.Sprintf("%s[%d:%d]", p.RemoteNode, p.RemoteStart, p.RemoteEnd)
}

// Estimate is the predicted cost of one frame under a placement.
type Estimate struct {
	Latency       time.Duration
	DeviceEnergyJ float64
	UplinkBytes   int
	DownlinkBytes int
	ComputeRemote time.Duration
	ComputeLocal  time.Duration
	Network       time.Duration
}

// Evaluate predicts latency and device energy for one frame of the pipeline
// under the placement.
func Evaluate(stages []Stage, device, remote Node, link Profile, pl Placement) (Estimate, error) {
	var est Estimate
	if pl.RemoteStart < 0 || pl.RemoteEnd > len(stages) || pl.RemoteStart > pl.RemoteEnd {
		return est, fmt.Errorf("%w: [%d:%d) of %d", ErrBadSplit, pl.RemoteStart, pl.RemoteEnd, len(stages))
	}
	for i := pl.RemoteStart; i < pl.RemoteEnd; i++ {
		if stages[i].DeviceOnly {
			return est, fmt.Errorf("%w: stage %q", ErrLocalOnly, stages[i].Name)
		}
	}
	for i, st := range stages {
		remoteStage := i >= pl.RemoteStart && i < pl.RemoteEnd
		if remoteStage {
			d := remote.ExecTime(st.Ops)
			est.ComputeRemote += d
			est.DeviceEnergyJ += device.IdleEnergyJoules(d)
		} else {
			d := device.ExecTime(st.Ops)
			est.ComputeLocal += d
			est.DeviceEnergyJ += device.ComputeEnergyJoules(d)
		}
	}
	if !pl.IsLocal() {
		up := stages[pl.RemoteStart-1].OutBytes
		down := stages[pl.RemoteEnd-1].OutBytes
		upT := link.OneWay(up)
		downT := link.OneWay(down)
		est.Network = upT + downT
		est.UplinkBytes = up
		est.DownlinkBytes = down
		est.DeviceEnergyJ += device.RadioEnergyJoules(upT + downT)
	}
	est.Latency = est.ComputeLocal + est.ComputeRemote + est.Network
	return est, nil
}

// Decision is a chosen placement with its predicted cost.
type Decision struct {
	Placement Placement
	Estimate  Estimate
}

// RemoteOption is a candidate offload target with its link from the device.
type RemoteOption struct {
	Node Node
	Link Profile
}

// Best enumerates every valid placement (fully local plus every contiguous
// offloadable range on every remote) and returns the one with the lowest
// latency; the first found wins a tie.
func Best(stages []Stage, device Node, remotes []RemoteOption) Decision {
	localEst, _ := Evaluate(stages, device, device, ProfileLoopback, Local()) // a local placement is always valid
	best := Decision{Placement: Local(), Estimate: localEst}
	for _, r := range remotes {
		for start := 1; start < len(stages); start++ {
			for end := start + 1; end <= len(stages); end++ {
				pl := Placement{RemoteStart: start, RemoteEnd: end, RemoteNode: r.Node.ID}
				est, err := Evaluate(stages, device, r.Node, r.Link, pl)
				if err != nil {
					continue // placement covers a device-only stage
				}
				if est.Latency < best.Estimate.Latency {
					best = Decision{Placement: pl, Estimate: est}
				}
			}
		}
	}
	return best
}

package offload

import (
	"errors"
	"testing"
	"time"
)

var (
	device = Node{ID: "mobile", SpeedFactor: 1, ActiveWatts: 2.5, IdleWatts: 0.8, TxWatts: 1.8}
	edge   = Node{ID: "edge", SpeedFactor: 6, ActiveWatts: 65, IdleWatts: 20, TxWatts: 5}
	cloud  = Node{ID: "cloud", SpeedFactor: 32, ActiveWatts: 250, IdleWatts: 80, TxWatts: 10}
)

func stages() []Stage { return ARPipeline(0, 0) }

func TestARPipelineShape(t *testing.T) {
	st := stages()
	if len(st) != 5 {
		t.Fatalf("stages = %d", len(st))
	}
	if !st[0].DeviceOnly || !st[len(st)-1].DeviceOnly {
		t.Fatal("capture/render must be device-only")
	}
	var ops float64
	for _, s := range st {
		ops += s.Ops
	}
	total := device.ExecTime(ops)
	if total < 20*time.Millisecond || total > 60*time.Millisecond {
		t.Fatalf("full local pipeline = %v, want ~35ms", total)
	}
}

func TestEvaluateLocal(t *testing.T) {
	est, err := Evaluate(stages(), device, device, ProfileLoopback, Local())
	if err != nil {
		t.Fatal(err)
	}
	if est.Network != 0 || est.UplinkBytes != 0 {
		t.Fatalf("local placement has network cost: %+v", est)
	}
	if est.Latency != est.ComputeLocal {
		t.Fatal("local latency != local compute")
	}
	if est.DeviceEnergyJ <= 0 {
		t.Fatal("no device energy")
	}
}

func TestEvaluateRemoteMiddle(t *testing.T) {
	pl := Placement{RemoteStart: 1, RemoteEnd: 4, RemoteNode: "cloud"}
	est, err := Evaluate(stages(), device, cloud, ProfileWiFi, pl)
	if err != nil {
		t.Fatal(err)
	}
	if est.UplinkBytes != 640*480 {
		t.Fatalf("uplink = %d, want frame bytes", est.UplinkBytes)
	}
	if est.DownlinkBytes != 512 {
		t.Fatalf("downlink = %d, want pose bytes", est.DownlinkBytes)
	}
	if est.Network <= 0 || est.ComputeRemote <= 0 {
		t.Fatalf("estimate = %+v", est)
	}
	// Remote compute on a 32x node must be well under local.
	localEst, _ := Evaluate(stages(), device, device, ProfileLoopback, Local())
	if est.ComputeRemote >= localEst.ComputeLocal {
		t.Fatal("cloud compute not faster than local")
	}
}

func TestEvaluateRejectsDeviceOnlyOffload(t *testing.T) {
	pl := Placement{RemoteStart: 0, RemoteEnd: 2, RemoteNode: "cloud"} // includes capture
	if _, err := Evaluate(stages(), device, cloud, ProfileWiFi, pl); !errors.Is(err, ErrLocalOnly) {
		t.Fatalf("err = %v", err)
	}
	pl = Placement{RemoteStart: 3, RemoteEnd: 5, RemoteNode: "cloud"} // includes render
	if _, err := Evaluate(stages(), device, cloud, ProfileWiFi, pl); !errors.Is(err, ErrLocalOnly) {
		t.Fatalf("err = %v", err)
	}
}

func TestEvaluateRejectsBadSplit(t *testing.T) {
	if _, err := Evaluate(stages(), device, cloud, ProfileWiFi,
		Placement{RemoteStart: 3, RemoteEnd: 2}); !errors.Is(err, ErrBadSplit) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Evaluate(stages(), device, cloud, ProfileWiFi,
		Placement{RemoteStart: 0, RemoteEnd: 99}); !errors.Is(err, ErrBadSplit) {
		t.Fatalf("err = %v", err)
	}
}

func TestBestPrefersEdgeOnFastLink(t *testing.T) {
	remotes := []RemoteOption{
		{Node: edge, Link: ProfileWiFi},
	}
	d := Best(stages(), device, remotes)
	if d.Placement.IsLocal() {
		t.Fatalf("WiFi+edge chose local (%v); offload should win", d.Estimate.Latency)
	}
	localEst, _ := Evaluate(stages(), device, device, ProfileLoopback, Local())
	if d.Estimate.Latency >= localEst.Latency {
		t.Fatalf("chosen placement %v slower than local %v", d.Estimate.Latency, localEst.Latency)
	}
}

func TestBestPrefersLocalOn3G(t *testing.T) {
	// Shipping a whole frame over 2 Mbps costs >1s; local 35 ms must win.
	remotes := []RemoteOption{
		{Node: cloud, Link: Profile3G},
	}
	d := Best(stages(), device, remotes)
	if !d.Placement.IsLocal() {
		t.Fatalf("3G chose %v (%v); local should win", d.Placement, d.Estimate.Latency)
	}
}

func TestBestCrossoverBetweenProfiles(t *testing.T) {
	// The decision must flip somewhere between WiFi and 3G — the paper's
	// offloading trade-off in one assertion.
	wifi := Best(stages(), device, []RemoteOption{{Node: cloud, Link: ProfileWiFi}})
	threeG := Best(stages(), device, []RemoteOption{{Node: cloud, Link: Profile3G}})
	if wifi.Placement.IsLocal() || !threeG.Placement.IsLocal() {
		t.Fatalf("no crossover: wifi=%v threeG=%v", wifi.Placement, threeG.Placement)
	}
}

func TestOffloadSavesEnergyOnGoodLink(t *testing.T) {
	localEst, _ := Evaluate(stages(), device, device, ProfileLoopback, Local())
	pl := Placement{RemoteStart: 1, RemoteEnd: 4, RemoteNode: "edge"}
	offEst, err := Evaluate(stages(), device, edge, ProfileWiFi, pl)
	if err != nil {
		t.Fatal(err)
	}
	if offEst.DeviceEnergyJ >= localEst.DeviceEnergyJ {
		t.Fatalf("offload energy %.4f J not below local %.4f J",
			offEst.DeviceEnergyJ, localEst.DeviceEnergyJ)
	}
}

func TestPlacementString(t *testing.T) {
	if Local().String() != "local" {
		t.Fatal("local string")
	}
	pl := Placement{RemoteStart: 1, RemoteEnd: 4, RemoteNode: "edge"}
	if pl.String() != "edge[1:4]" {
		t.Fatalf("string = %q", pl.String())
	}
}

func TestProfileOneWayScalesWithSize(t *testing.T) {
	small := Profile3G.OneWay(100)
	large := Profile3G.OneWay(1_000_000)
	if large <= small {
		t.Fatalf("transfer time not increasing: %v vs %v", small, large)
	}
	// 1 MB over 2 Mbps = 4 s serialisation + 60ms propagation.
	if large < 3*time.Second || large > 6*time.Second {
		t.Fatalf("1MB over 3G = %v, want ~4s", large)
	}
}

func TestProfileOrdering(t *testing.T) {
	// Same payload must be strictly slower on slower profiles.
	const bytes = 200_000
	profiles := []Profile{ProfileLoopback, ProfileLAN, ProfileWiFi, ProfileLTE, Profile3G}
	prev := time.Duration(-1)
	for _, p := range profiles {
		d := p.OneWay(bytes)
		if d <= prev {
			t.Fatalf("%s (%v) not slower than previous (%v)", p.Name, d, prev)
		}
		prev = d
	}
}

func TestNodeExecTimeScalesWithSpeed(t *testing.T) {
	mobile := Node{SpeedFactor: 1}
	cloud := Node{SpeedFactor: 32}
	work := 2e9 // one second on mobile
	tm := mobile.ExecTime(work)
	tc := cloud.ExecTime(work)
	if tm != time.Second {
		t.Fatalf("mobile exec = %v, want 1s", tm)
	}
	if tc < tm/40 || tc > tm/25 {
		t.Fatalf("cloud exec = %v, want ~1/32 of mobile", tc)
	}
	dead := Node{SpeedFactor: 0}
	if dead.ExecTime(1) < time.Hour {
		t.Fatal("zero-speed node finished work")
	}
}

func TestEnergyModel(t *testing.T) {
	n := Node{ActiveWatts: 2, IdleWatts: 0.5, TxWatts: 1.5}
	if got := n.ComputeEnergyJoules(2 * time.Second); got != 4 {
		t.Fatalf("compute energy = %v", got)
	}
	if got := n.IdleEnergyJoules(4 * time.Second); got != 2 {
		t.Fatalf("idle energy = %v", got)
	}
	if got := n.RadioEnergyJoules(2 * time.Second); got != 3 {
		t.Fatalf("radio energy = %v", got)
	}
}

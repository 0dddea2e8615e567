package main

import "time"

// Timeliness limits (the paper's §4.1: an overlay must land inside a frame
// interval). A polled frame is on time when its round trip fits one
// 30 Hz frame; a pushed frame when it arrives within 1.5 subscribed
// intervals of the previous one.
const (
	pollLimit      = 33 * time.Millisecond
	streamGapLimit = 1.5
	probePeriod    = 50 * time.Millisecond // paced RTT probe on stream workloads
)

// workload is one traffic mix. The generator always uses two connections
// (nproc on the 2-core box this is sized for): A negotiates protocol v3, B
// protocol v4.
type workload struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json
	// World is the city every shard of the workload is started on.
	World world
	// Routed drives two server.Client connections through a router process
	// in front of two shard processes instead of speaking the backend
	// protocol to one shard.
	Routed bool

	// Poll is the number of polling sessions, split evenly over the two
	// connections: each requests a frame PollHz times a second with at most
	// one request outstanding — a device drawing at its frame rate. A
	// saturating closed loop (next request on reply) was measured first and
	// does not repeat on a shared box: frames/s spread 13 % on poll_dense
	// and 24–57 % on router_poll, run to run, at one seed.
	Poll   int
	PollHz float64
	// StreamA / StreamB are subscribed sessions on connection A (full v3
	// pushes) and B (v4 delta pushes), pushed every StreamInterval. Each
	// sends one IMU sample per interval and one GPS fix per second.
	StreamA, StreamB int
	StreamInterval   time.Duration
	// Flood is the number of sessions on connection A sharing an open-loop
	// FloodRate sensor events per second (50 % IMU, 48 % gaze dwell, 2 %
	// GPS). Every gaze dwell becomes one interaction record.
	Flood     int
	FloodRate int
	// Probe adds one session on connection B that requests a frame every
	// probePeriod, so workloads without closed-loop sessions still report
	// a request round trip.
	Probe bool
	// GazeRate is the fixed schedule of gaze-dwell interactions per second
	// the generator sends on workloads without a flood; the staleness of
	// the analytics plane is measured against it.
	GazeRate int
	// GazeClients adds routed clients that carry only their share of that
	// schedule. Each session's telemetry batcher flushes on its own 50 ms
	// clock; with the two polling clients alone the two saw-teeth were
	// phase-locked for a run, and staleness p95 spread 30 % between runs.
	GazeClients int

	StepsPerSession int
}

func (w *workload) sessionCount() int {
	n := w.Poll + w.StreamA + w.StreamB + w.Flood
	if w.Probe {
		n++
	}
	return n
}

// workloads lists the four traffic mixes in the order they run.
var workloads = []*workload{
	{
		Name:  "poll_dense",
		Why:   "16 sessions polling at 30 Hz on a dense city: the geo query and layout dominate, serving and wire cost do not",
		World: denseWorld,
		Poll:  16, PollHz: 30, GazeRate: 200,
		StepsPerSession: 1024,
	},
	{
		Name:    "stream_fanout",
		Why:     "512 server-paced streams on a sparse city, half full and half delta: pacing, encode, outbox and write carry the cost",
		World:   sparseWorld,
		StreamA: 256, StreamB: 256, StreamInterval: 250 * time.Millisecond,
		Probe: true, GazeRate: 200,
		StepsPerSession: 256,
	},
	{
		Name:    "sensor_flood",
		Why:     "open-loop 50k sensor events/s beside an 8-stream canary: tracking, telemetry, mq and the analytics consumer do the work",
		World:   sparseWorld,
		StreamB: 8, StreamInterval: 100 * time.Millisecond,
		Flood: 64, FloodRate: 50000,
		Probe:           true,
		StepsPerSession: 2048,
	},
	{
		Name:   "router_poll",
		Why:    "2 public clients polling at 500 Hz through a router and two shards on a sparse city: demux, forward and the extra hop dominate",
		World:  sparseWorld,
		Routed: true,
		Poll:   2, PollHz: 500, GazeRate: 200, GazeClients: 14,
		StepsPerSession: 16384,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

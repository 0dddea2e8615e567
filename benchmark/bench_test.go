package main

import (
	"bytes"
	"context"
	"io"
	"log"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"arbd/internal/core"
	"arbd/internal/render"
	"arbd/internal/server"
)

func TestPercentilePicker(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[len(v)-1-i] = float64(i + 1) // descending: summarize must sort
	}
	s := summarize(v)
	if s.N != 1000 || s.P50 != 500 {
		t.Fatalf("summary %+v, want N=1000 P50=500", s)
	}
	// 1000 samples leave exactly 10 beyond p99, and only 1 beyond p99.9.
	if s.TailPct != 99 || s.Tail != 990 {
		t.Fatalf("tail p%v=%v, want p99=990", s.TailPct, s.Tail)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 50}, {40, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty samples must read 0")
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4);
// these are its outputs for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 30, 20})
	if q1 != 10 || q2 != 20 || q3 != 30 {
		t.Fatalf("quartiles = %v %v %v, want 10 20 30", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Fatalf("spread = %v, want 1", got)
	}
}

func TestProcParsers(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	stat := "4242 (arbd server) (x)) S 1 4242 4242 0 -1 4194560 2931 0 0 0 " +
		"150 50 0 0 20 0 9 0 123456 1268019200 5417 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0\n"
	cpu, err := parseProcStat([]byte(stat))
	if err != nil || cpu != 2*time.Second {
		t.Fatalf("parseProcStat = %v, %v; want 2s (150+50 ticks)", cpu, err)
	}
	if _, err := parseProcStat([]byte("garbage")); err == nil {
		t.Error("parseProcStat accepted garbage")
	}
	status := "Name:\tarbd-server\nVmPeak:\t 1238300 kB\nVmHWM:\t   21672 kB\nVmRSS:\t   20000 kB\n"
	kb, err := parseVmHWM([]byte(status))
	if err != nil || kb != 21672 {
		t.Fatalf("parseVmHWM = %v, %v; want 21672", kb, err)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("parseVmHWM found a line that is not there")
	}
	// And against the live kernel: this process has used some CPU and memory.
	if cpu, err := procCPU(os.Getpid()); err != nil || cpu < 0 {
		t.Errorf("procCPU(self) = %v, %v", cpu, err)
	}
	if kb, err := procPeakRSSKB(os.Getpid()); err != nil || kb == 0 {
		t.Errorf("procPeakRSSKB(self) = %v, %v", kb, err)
	}
}

func TestParseMetrics(t *testing.T) {
	page := `# HELP arbd_core_interactions_consumed Counter core.interactions.consumed
# TYPE arbd_core_interactions_consumed counter
arbd_core_interactions_consumed 168145
# TYPE arbd_core_load_backlog gauge
arbd_core_load_backlog 17.5
arbd_core_frame_latency_seconds{quantile="0.5"} 0.000523
arbd_core_frame_latency_seconds_sum 1.5e+01
`
	m, err := parseMetrics(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"arbd_core_interactions_consumed":                 168145,
		"arbd_core_load_backlog":                          17.5,
		`arbd_core_frame_latency_seconds{quantile="0.5"}`: 0.000523,
		"arbd_core_frame_latency_seconds_sum":             15,
	}
	if len(m) != len(want) {
		t.Fatalf("parsed %d samples, want %d: %v", len(m), len(want), m)
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
	if _, err := parseMetrics(strings.NewReader("arbd_x notanumber\n")); err == nil {
		t.Error("parseMetrics accepted a non-numeric sample")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "frame", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "geo", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "render", Start: 30, End: 60}, // overlaps geo: 30..40 counts once
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 130},  // clipped at the parent's end
		{ID: 5, Parent: 3, Name: "occlusion", Start: 35, End: 55},
		{ID: 6, Name: "other", Start: 200, End: 250},
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{1: 40, 2: 30, 3: 10, 4: 40, 5: 20, 6: 50} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	totals := totalsByName(spans)
	if got := totals["frame"].SelfUS[0]; got != 0.04 {
		t.Errorf("frame self = %v us, want 0.04", got)
	}
}

func TestScriptIsDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := buildScript(w, 7).encode(), buildScript(w, 7).encode()
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different scripts", w.Name)
		}
		if c := buildScript(w, 8).encode(); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same script", w.Name)
		}
	}
	sc := buildScript(workloadByName("sensor_flood"), 1)
	count := map[uint8]int{}
	for _, k := range sc.Pattern {
		count[k]++
	}
	if n := len(sc.Pattern); count[evIMU]*2 != n || count[evGaze]*100 != n*48 || count[evGPS]*100 != n*2 {
		t.Errorf("flood mix %v of %d, want 50/48/2 %%", count, len(sc.Pattern))
	}
	seen := map[uint64]bool{}
	for _, s := range sc.Sessions {
		if s.ID == 0 || seen[s.ID] {
			t.Fatalf("session ID %d is zero or repeated", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestOracle(t *testing.T) {
	o := newOracle(sparseWorld)
	good := &core.DecodedFrame{Annotations: []render.Annotation{{ID: 1, Label: o.names[1] + " [busy]"}}}
	if err := o.checkFrame(good); err != nil {
		t.Errorf("good frame rejected: %v", err)
	}
	for name, f := range map[string]*core.DecodedFrame{
		"unknown POI": {Annotations: []render.Annotation{{ID: uint64(sparseWorld.POIs + 1), Label: "x"}}},
		"zero ID":     {Annotations: []render.Annotation{{ID: 0, Label: "x"}}},
		"wrong label": {Annotations: []render.Annotation{{ID: 1, Label: "not-" + o.names[1]}}},
		"too many":    {Annotations: make([]render.Annotation, maxAnnotations+1)},
	} {
		if o.checkFrame(f) == nil {
			t.Errorf("oracle accepted a frame with %s", name)
		}
	}
}

func TestBoundFor(t *testing.T) {
	for _, c := range []struct {
		name   string
		spread float64
		bound  float64
		steady bool
	}{
		{"frames_per_s", 0.01, 0.10, true},  // the target bound is the floor
		{"frames_per_s", 0.04, 0.15, true},  // 3 × 4 % rounds up to the next 5 %
		{"frames_per_s", 0.05, 0.15, true},  // exactly on a step
		{"frames_per_s", 0.10, 0.25, false}, // the ceiling, without the headway
		{"setup_s", 0.50, 0.25, true},       // set-up always takes the ceiling
	} {
		b, ok := boundFor(c.name, c.spread)
		if math.Abs(b-c.bound) > 1e-9 || ok != c.steady {
			t.Errorf("boundFor(%s, %v) = %v, %v; want %v, %v", c.name, c.spread, b, ok, c.bound, c.steady)
		}
	}
}

// The spec written by -write-bounds must satisfy the driver's schema.
func TestSpecWithinContract(t *testing.T) {
	spec := buildSpec(15, map[string]float64{})
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	names := map[string]bool{}
	check := func(name, unit string) {
		if names[name] || len(name) == 0 || len(name) > 64 || len(unit) == 0 || len(unit) > 16 {
			t.Errorf("name %q unit %q: repeated or out of limits", name, unit)
		}
		names[name] = true
	}
	for _, w := range spec.Workloads {
		check(w.Name, "-")
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit)
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit)
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// startSmokeCluster stands in for the server processes: the same roles on
// loopback listeners inside the test process.
func startSmokeCluster(t *testing.T, w *workload) *cluster {
	t.Helper()
	quietLog := log.New(io.Discard, "", 0)
	c := &cluster{}
	newShard := func(id uint64) string {
		p, err := newPlatform(w.World)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
		sh := server.NewShard(p, quietLog, server.ShardOptions{ID: id})
		addr, err := sh.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		obs := httptest.NewServer(sh.ObsPlane().Mux())
		obsAddr := strings.TrimPrefix(obs.URL, "http://")
		t.Cleanup(func() { obs.Close(); sh.Close(); _ = p.Stop() })
		c.shards = append(c.shards, &serverProc{name: "shard", addr: addr, obs: obsAddr})
		return addr
	}
	if !w.Routed {
		newShard(1)
		c.front = c.shards[0]
		return c
	}
	members := []server.Member{{ID: 1, Addr: newShard(1)}, {ID: 2, Addr: newShard(2)}}
	r, err := server.NewRouter(members, quietLog, nil, server.RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Connect(); err != nil {
		t.Fatal(err)
	}
	addr, err := r.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	c.front = &serverProc{name: "router", addr: addr}
	return c
}

// TestWorkloadSmoke drives every workload against in-process servers, about
// two seconds each with set-up and drain: the generator, the oracle, the
// sampler and the drain, without process launching or /proc.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for about 2 s")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			c := startSmokeCluster(t, w)
			sc := buildScript(w, 1)
			g, err := newGenerator(w, sc, newOracle(w.World), c.front.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer g.close()
			if err := g.establish(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			smp := startSampler(c.shards)
			g.startSchedule()
			g.winStart.Store(time.Now().UnixNano())
			time.Sleep(time.Second)
			g.winEnd.Store(time.Now().UnixNano())
			g.quiesce()
			sent := len(g.sentAt)
			last, err := awaitDrain(smp, sent)
			smp.close()
			if err != nil {
				t.Fatal(err)
			}
			g.close()

			rec := g.merged()
			if rec.violations != 0 {
				t.Fatalf("%d oracle violations, first: %s", rec.violations, rec.firstViolation)
			}
			if rec.frames == 0 || len(rec.rttMS) == 0 {
				t.Fatalf("frames=%d rtt samples=%d: the workload delivered nothing", rec.frames, len(rec.rttMS))
			}
			if rec.errs != 0 {
				t.Errorf("%d error replies", rec.errs)
			}
			t.Logf("frames=%d sheds=%d lost=%d interactions=%d", rec.frames, rec.sheds, rec.lost, sent)
			if sent == 0 || last.bad != 0 {
				t.Errorf("interactions sent=%d malformed=%v", sent, last.bad)
			}
			if stranded := math.Abs(float64(sent) - last.consumed); stranded > strandedAllowance*float64(sent) {
				t.Errorf("%d interactions sent, %v consumed", sent, last.consumed)
			}
			if (w.StreamA+w.StreamB > 0) != (rec.deltaPushes > 0) {
				t.Errorf("delta pushes = %d with %d delta streams", rec.deltaPushes, w.StreamB)
			}
		})
	}
}

// TestLayerReplay runs the traced replay on the cheapest workload and checks
// that it fills every traced metric and that the frame is accounted for.
func TestLayerReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("replays ~3000 frames")
	}
	w := workloadByName("router_poll")
	res := &result{Workload: w.Name, Layer: map[string]float64{}, steps: 200,
		EndToEnd: map[string]float64{"server_cpu_us_per_frame": 200, "server_cpu_us_per_event": 180}}
	out := t.TempDir()
	if err := runLayers(w, buildScript(w, 1), res, out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(out, "trace-router_poll.json")); err != nil {
		t.Errorf("no trace file: %v", err)
	}
	for _, name := range []string{"core.frame_us_p50", "geo.query_us_per_frame", "render.layout_us_per_frame",
		"tracking.fuse_us_per_event", "mq.produce_us_per_record", "wire.decode_us_per_envelope",
		"server.migrate_ms_per_session", "core.snapshot_restore_us", "client.apply_delta_us_per_frame"} {
		if res.Layer[name] <= 0 {
			t.Errorf("%s = %v, want a positive measurement", name, res.Layer[name])
		}
	}
	if acc := res.Layer["trace.frame_accounted_share"]; acc < 0.85 || acc > 1.15 {
		t.Errorf("children + self account for %.0f%% of the frame, want within 15%%", 100*acc)
	}
}

func TestRunWorkloadNeedsServerBinary(t *testing.T) {
	_, err := runWorkload(context.Background(), "/nonexistent/arbd-server", workloads[0], buildScript(workloads[0], 1), 0.1)
	if err == nil {
		t.Fatal("runWorkload succeeded without a server binary")
	}
}

// Command benchmark is arbd's one benchmark: it launches fresh arbd-server
// processes, drives them over loopback TCP from a seed-generated input
// script, checks every output, and prints every metric by name and unit.
// See README.md in this directory for the metric and workload catalogue.
//
//	bash benchmark/run.sh --seed 1                  # the four workloads, end to end
//	bash benchmark/run.sh --seed 1 --trace 1        # plus the per-layer table
//	bash benchmark/run.sh --workload poll_dense --seed 3 --seconds 15 --trace 0
//	bash benchmark/run.sh --repeat 10               # spreads against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// Metric definitions: the single source for units and directions, printed
// beside every value and written into BENCHMARK.json by -write-bounds.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

var endToEnd = []metricDef{
	{"frames_per_s", "1/s", "higher"},
	{"on_time_share", "share", "higher"},
	{"bytes_per_frame", "B", "lower"},
	{"server_cpu_us_per_frame", "us", "lower"},
	{"server_cpu_us_per_event", "us", "lower"},
	{"server_rss_mb", "MB", "lower"},
	{"sensor_events_per_s", "1/s", "higher"},
	{"context_staleness_p50_ms", "ms", "lower"},
	{"context_staleness_p95_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
}

// traceDir is where traced runs leave their spans, relative to the root of
// the checkout (run.sh runs the benchmark from there).
const traceDir = "benchmark/out"

func main() {
	os.Exit(run())
}

func run() int {
	if len(os.Args) == 2 && os.Args[1] == keepAwakeFlag {
		keepAwake()
		return 0
	}
	var (
		serverBin = flag.String("server", ".bench_build/arbd-server", "arbd-server binary to launch (run.sh builds it)")
		wlName    = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Int64("seed", 1, "workload seed: the same seed gives the same input script")
		seconds   = flag.Float64("seconds", 15, "measured window per workload, seconds")
		trace     = flag.Int("trace", 0, "1: also replay the script in-process with spans and print the per-layer metrics")
		repeat    = flag.Int("repeat", 0, "run this many back-to-back sets (seeds seed, seed+1, ...) and print each metric's spread against its bound")
		bounds    = flag.Bool("write-bounds", false, "with -repeat: write bounds derived from the measured spreads into BENCHMARK.json")
	)
	flag.Parse()

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	var selected []*workload
	if *wlName == "all" {
		selected = workloads
	} else if w := workloadByName(*wlName); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *wlName)
		return 2
	}
	if _, err := os.Stat(*serverBin); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: no server binary at %s (run benchmark/run.sh, which builds it): %v\n", *serverBin, err)
		return 2
	}
	// The generator is held to the same core count as the servers.
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *repeat > 0 {
		return runRepeat(ctx, *serverBin, selected, *seed, *seconds, *repeat, *bounds)
	}

	ok := true
	var results []*result
	for _, w := range selected {
		res, err := runOne(ctx, *serverBin, w, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			return 1
		}
		printResult(os.Stdout, res)
		results = append(results, res)
		ok = ok && res.Correct
	}

	if len(selected) == 1 {
		// The driver's contract: the last line is one JSON object.
		fmt.Println(driverLine(results[0], *trace == 1))
	} else {
		fmt.Println(summaryLine(results, *seed))
	}
	if !ok {
		return 1
	}
	return 0
}

// runOne runs a workload and, when asked, the traced in-process replay.
func runOne(ctx context.Context, serverBin string, w *workload, seed int64, seconds float64, traced bool) (*result, error) {
	sc := buildScript(w, seed)
	res, err := runWorkload(ctx, serverBin, w, sc, seconds)
	if err != nil {
		return nil, err
	}
	if traced {
		if err := runLayers(w, sc, res, traceDir); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
	}
	return res, nil
}

func printResult(out *os.File, r *result) {
	fmt.Fprintf(out, "== %s  seed=%d  window=%.2fs  attempted=%d failed=%d correct=%v\n",
		r.Workload, r.Seed, r.Seconds, r.Attempted, r.Failed, r.Correct)
	fmt.Fprintf(out, "   %s\n", r.Counts)
	if r.Note != "" {
		fmt.Fprintf(out, "   ORACLE: %s\n", r.Note)
	}
	if r.Invalid != "" {
		fmt.Fprintf(out, "   INVALID: %s\n", r.Invalid)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(out, "   %-28s %14.4f %-6s (%s is better)\n", m.Name, r.EndToEnd[m.Name], m.Unit, m.Better)
	}
	for _, name := range []string{"rtt", "gap", "staleness"} {
		t := r.Timings[name]
		fmt.Fprintf(out, "   %-9s n=%-6d p50=%.3f ms  p%g=%.3f ms\n", name, t.N, t.P50, t.TailPct, t.Tail)
	}
	names := make([]string, 0, len(r.Layer))
	for name := range r.Layer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(out, "   . %-34s %14.4f %s\n", name, r.Layer[name], layerUnit(name))
	}
	for _, line := range r.Budget {
		fmt.Fprintf(out, "   | %s\n", line)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the one-object result line of a single-workload run: the
// end-to-end metrics untraced, the per-layer metrics traced.
func driverLine(r *result, traced bool) string {
	metrics := map[string]jsonMetric{}
	if traced {
		for _, m := range perLayer {
			metrics[m.Name] = jsonMetric{r.Layer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = jsonMetric{r.EndToEnd[m.Name], m.Unit}
		}
	}
	b, _ := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(b)
}

// summaryLine closes an all-workloads run: provenance, every end-to-end
// number, and no claim — this benchmark measures, it does not argue.
func summaryLine(results []*result, seed int64) string {
	type wl struct {
		Workload string             `json:"workload"`
		Correct  bool               `json:"correct"`
		Invalid  string             `json:"invalid,omitempty"`
		Metrics  map[string]float64 `json:"end_to_end"`
	}
	out := struct {
		Seed      int64   `json:"seed"`
		GitSHA    string  `json:"git_sha"`
		GoVersion string  `json:"go_version"`
		NProc     int     `json:"nproc"`
		Workloads []wl    `json:"workloads"`
		Claim     *string `json:"claim"`
	}{Seed: seed, GitSHA: gitSHA(), GoVersion: runtime.Version(), NProc: runtime.NumCPU()}
	for _, r := range results {
		out.Workloads = append(out.Workloads, wl{r.Workload, r.Correct, r.Invalid, r.EndToEnd})
	}
	b, _ := json.Marshal(out)
	return string(b)
}

// gitSHA names the commit under test; a checkout that is not a repository
// (the driver's) has none.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// Package bench implements the experiment harness: one function per derived
// experiment E1-E13 (the paper is a vision paper with no measured
// evaluation, so each experiment quantifies one of its qualitative claims) rendering one result table. cmd/arbd-bench prints the tables; the
// root bench_test.go wraps the runs in testing.B benchmarks. Serving-path
// performance is measured by the multi-process benchmark in benchmark/.
package bench

import (
	"fmt"
	"time"

	"arbd/internal/metrics"
)

// RunFunc executes an experiment at one scale.
type RunFunc func() *metrics.Table

// Experiment is one runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   RunFunc
	// Smoke is a tiny-parameter variant of Run used by plain `go test`
	// (TestExperimentsSmoke) to catch breakage without benchmark-scale
	// runtimes. Experiments cheap enough to run at full size leave it nil,
	// and SmokeRun falls back to Run.
	Smoke RunFunc
}

// SmokeRun executes the experiment at smoke scale (or full scale when no
// smoke variant exists).
func (e Experiment) SmokeRun() *metrics.Table {
	if e.Smoke != nil {
		return e.Smoke()
	}
	return e.Run()
}

// All returns every experiment in ID order.
func All() []Experiment {
	return []Experiment{
		{"E1", "ingest throughput (mq)", E1LogIngest, e1LogIngestSmoke},
		{"E2", "stream window throughput", E2StreamWindows, e2StreamWindowsSmoke},
		{"E3", "incremental vs batch views", E3IncrementalVsBatch, e3IncrementalVsBatchSmoke},
		{"E4", "offloading latency/energy", E4Offload, nil},
		{"E5", "geo index query latency", E5GeoIndex, e5GeoIndexSmoke},
		{"E6", "annotation layout quality", E6Layout, nil},
		{"E7", "recommendation lift", E7Recommend, e7RecommendSmoke},
		{"E8", "health alert latency", E8HealthAlerts, e8HealthAlertsSmoke},
		{"E9", "collision warning recall", E9Traffic, e9TrafficSmoke},
		{"E10", "privacy/utility trade-off", E10Privacy, nil},
		{"E11", "ARML interpretation cost", E11Interpret, nil},
		{"E12", "sketch accuracy vs memory", E12Sketches, e12SketchesSmoke},
		{"E13", "Figure 5 influence matrix", E13Influence, nil},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ms renders a duration as fractional milliseconds for table cells.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Nanoseconds())/1e6)
}

// us renders a duration as fractional microseconds.
func us(d time.Duration) string {
	return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
}

// countLabel renders an event count as 1M / 500k / 999 for table titles.
func countLabel(n int) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n >= 1_000 && n%1_000 == 0:
		return fmt.Sprintf("%dk", n/1_000)
	default:
		return fmt.Sprintf("%d", n)
	}
}

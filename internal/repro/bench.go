// Package repro implements the paper-reproduction experiments. The paper is
// a vision paper whose one quantitative artefact is Figure 5, so each
// experiment quantifies one of its qualitative claims and renders one result
// table, and each has a test asserting that result:
//
//	E4  offloading latency/energy       E9  collision warning recall
//	E6  annotation layout quality       E10 privacy/utility trade-off
//	E7  recommendation lift             E13 Figure 5 influence matrix
//	E8  health alert latency
//
// cmd/arbd-bench prints the tables. Serving-path performance is measured by
// the multi-process benchmark in benchmark/.
package repro

import (
	"fmt"
	"time"

	"arbd/internal/metrics"
)

// Experiment is one runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func() *metrics.Table
}

// All returns every experiment in ID order.
func All() []Experiment {
	return []Experiment{
		{"E4", "offloading latency/energy", E4Offload},
		{"E6", "annotation layout quality", E6Layout},
		{"E7", "recommendation lift", E7Recommend},
		{"E8", "health alert latency", E8HealthAlerts},
		{"E9", "collision warning recall", E9Traffic},
		{"E10", "privacy/utility trade-off", E10Privacy},
		{"E13", "Figure 5 influence matrix", E13Influence},
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

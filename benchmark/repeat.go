package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Bounds: the target regression bound is a tenth; a metric whose measured
// spread needs more gets a wider one, up to the contract's ceiling, and
// set-up time always gets the ceiling.
const (
	targetBound  = 0.10
	maxBound     = 0.25
	boundHeadway = 3.0 // a bound is at least this many measured spreads
	benchFile    = "BENCHMARK.json"
)

// benchSpec mirrors BENCHMARK.json, key for key.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specLayer    `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// boundFor turns a metric's worst measured spread into its bound: three
// spreads of headway, in steps of 0.05, between the target and the ceiling.
// steady reports whether the spread leaves that headway under the ceiling.
func boundFor(name string, worstSpread float64) (bound float64, steady bool) {
	if name == "setup_s" {
		return maxBound, true
	}
	need := boundHeadway * worstSpread
	bound = math.Max(targetBound, math.Ceil(need*20-1e-9)/20)
	if bound > maxBound {
		return maxBound, false
	}
	return bound, true
}

// buildSpec assembles BENCHMARK.json from the code's own tables, so names,
// units and directions cannot drift from what the benchmark prints.
func buildSpec(runSeconds int, bounds map[string]float64) *benchSpec {
	spec := &benchSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, specWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, specMetric{m.Name, m.Unit, m.Better, bounds[m.Name]})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, specLayer{m.Name, m.Unit, m.Better})
	}
	return spec
}

func writeSpec(spec *benchSpec) error {
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(benchFile, append(b, '\n'), 0o644)
}

func readBounds() map[string]float64 {
	bounds := map[string]float64{}
	b, err := os.ReadFile(benchFile)
	if err != nil {
		return bounds
	}
	var spec benchSpec
	if json.Unmarshal(b, &spec) != nil {
		return bounds
	}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds
}

// runRepeat runs n back-to-back sets of the selected workloads, each set on
// fresh processes and its own seed, and prints every end-to-end metric's
// spread (interquartile distance over the median, as the driver computes
// it) against its bound. With write set it derives the bounds from the
// measured spreads and rewrites BENCHMARK.json.
func runRepeat(ctx context.Context, serverBin string, ws []*workload, seed int64, seconds float64, n int, write bool) int {
	values := map[string]map[string][]float64{} // workload → metric → one value per set
	ok := true
	for set := 0; set < n; set++ {
		for _, w := range ws {
			res, err := runWorkload(ctx, serverBin, w, buildScript(w, seed+int64(set)), seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
				return 1
			}
			if values[w.Name] == nil {
				values[w.Name] = map[string][]float64{}
			}
			for name, v := range res.EndToEnd {
				values[w.Name][name] = append(values[w.Name][name], v)
			}
			ok = ok && res.Correct
			fmt.Printf("set %d/%d %-14s seed=%d failed=%d correct=%v %s %s\n",
				set+1, n, w.Name, res.Seed, res.Failed, res.Correct, res.Invalid, res.Note)
		}
	}

	old := readBounds()
	worst := map[string]float64{}
	fmt.Printf("\n%-26s %-14s %12s %9s %7s\n", "metric", "workload", "median", "spread", "bound")
	for _, m := range endToEnd {
		for _, w := range ws {
			v := values[w.Name][m.Name]
			_, q2, _ := quartiles(v)
			sp := spread(v)
			worst[m.Name] = math.Max(worst[m.Name], sp)
			mark := ""
			if b, has := old[m.Name]; has && m.Name != "setup_s" && sp > b {
				mark = "  EXCEEDS"
			}
			fmt.Printf("%-26s %-14s %12.4f %8.2f%% %6.0f%%%s\n", m.Name, w.Name, q2, 100*sp, 100*old[m.Name], mark)
		}
	}

	if write {
		bounds := map[string]float64{}
		for _, m := range endToEnd {
			b, steady := boundFor(m.Name, worst[m.Name])
			bounds[m.Name] = b
			switch {
			case worst[m.Name] > maxBound:
				fmt.Printf("%s: worst spread %.1f%% exceeds the widest bound (%.0f%%): lengthen the window or demote it to per-layer\n",
					m.Name, 100*worst[m.Name], 100*maxBound)
			case !steady:
				fmt.Printf("%s: worst spread %.1f%% is more than a third of the widest bound (%.0f%%)\n",
					m.Name, 100*worst[m.Name], 100*maxBound)
			}
		}
		if err := writeSpec(buildSpec(int(math.Round(seconds)), bounds)); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing %s: %v\n", benchFile, err)
			return 1
		}
		fmt.Printf("wrote %s\n", benchFile)
	}
	if !ok {
		return 1
	}
	return 0
}

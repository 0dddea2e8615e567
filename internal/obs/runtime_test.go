package obs

import (
	"runtime"
	"strings"
	"testing"

	"arbd/internal/metrics"
)

// TestRuntimeGauges pins the runtime metrics the plane exports and their
// gauge names, checks their values after a forced collection (live heap
// above 0, GC goal at or above the runtime's 4 MB floor, at least this
// goroutine), finds them on /metrics, and holds a read to zero allocations.
func TestRuntimeGauges(t *testing.T) {
	want := map[string]string{
		"/gc/heap/live:bytes":               "go.heap.live_bytes",
		"/gc/heap/goal:bytes":               "go.heap.goal_bytes",
		"/sched/goroutines:goroutines":      "go.goroutines",
		"/cpu/classes/gc/total:cpu-seconds": "go.gc.cpu_seconds",
	}
	if len(runtimeGauges) != len(want) {
		t.Fatalf("%d runtime gauges, want %d", len(runtimeGauges), len(want))
	}
	for _, g := range runtimeGauges {
		if want[g.sample] != g.gauge {
			t.Fatalf("runtime metric %s exported as %q, want %q", g.sample, g.gauge, want[g.sample])
		}
	}

	reg := metrics.NewRegistry()
	c := newRuntimeCollector(reg)
	runtime.GC()
	c.collect()
	if live := reg.Gauge("go.heap.live_bytes").Value(); live <= 0 {
		t.Fatalf("live heap = %v B after a GC, want > 0", live)
	}
	if goal := reg.Gauge("go.heap.goal_bytes").Value(); goal < 4<<20 {
		t.Fatalf("GC goal = %v B, want ≥ 4 MB", goal)
	}
	if n := reg.Gauge("go.goroutines").Value(); n < 1 {
		t.Fatalf("goroutines = %v, want ≥ 1", n)
	}
	if cpu := reg.Gauge("go.gc.cpu_seconds").Value(); cpu < 0 {
		t.Fatalf("GC CPU = %v s, want ≥ 0", cpu)
	}

	body := get(t, NewPlane(PlaneConfig{Registry: reg}), "/metrics").Body.String()
	for _, name := range []string{"arbd_go_heap_live_bytes", "arbd_go_heap_goal_bytes", "arbd_go_goroutines", "arbd_go_gc_cpu_seconds"} {
		if !strings.Contains(body, "\n"+name+" ") {
			t.Fatalf("/metrics missing %s:\n%s", name, body)
		}
	}

	if raceEnabled {
		return // allocation counts are inflated under the race detector
	}
	if allocs := testing.AllocsPerRun(100, c.collect); allocs > 0 {
		t.Fatalf("a runtime read allocates %.1f objects, want 0", allocs)
	}
}

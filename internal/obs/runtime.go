package obs

import (
	rtmetrics "runtime/metrics"
	"sync"

	"arbd/internal/metrics"
)

// runtimeGauges maps each Go runtime metric the plane exports to the
// registry gauge it is republished as. The live heap reads 0 until the
// first collection completes.
var runtimeGauges = [...]struct{ sample, gauge string }{
	{"/gc/heap/live:bytes", "go.heap.live_bytes"},
	{"/gc/heap/goal:bytes", "go.heap.goal_bytes"},
	{"/sched/goroutines:goroutines", "go.goroutines"},
	{"/cpu/classes/gc/total:cpu-seconds", "go.gc.cpu_seconds"},
}

// runtimeCollector republishes the Go runtime's own accounting — live heap,
// GC goal, goroutines, GC CPU — as registry gauges when a scrape asks, so
// an operator reads the node's memory from the node and not from its RSS.
// runtime/metrics reads into the kept samples without allocating.
type runtimeCollector struct {
	mu      sync.Mutex // one scrape reads into samples at a time
	samples []rtmetrics.Sample
	gauges  []*metrics.Gauge
}

func newRuntimeCollector(reg *metrics.Registry) *runtimeCollector {
	c := &runtimeCollector{
		samples: make([]rtmetrics.Sample, len(runtimeGauges)),
		gauges:  make([]*metrics.Gauge, len(runtimeGauges)),
	}
	for i, g := range runtimeGauges {
		c.samples[i].Name = g.sample
		c.gauges[i] = reg.Gauge(g.gauge)
	}
	return c
}

// collect reads the runtime's metrics into their gauges.
func (c *runtimeCollector) collect() {
	c.mu.Lock()
	defer c.mu.Unlock()
	rtmetrics.Read(c.samples)
	for i := range c.samples {
		switch v := c.samples[i].Value; v.Kind() {
		case rtmetrics.KindUint64:
			c.gauges[i].Set(float64(v.Uint64()))
		case rtmetrics.KindFloat64:
			c.gauges[i].Set(v.Float64())
		}
	}
}

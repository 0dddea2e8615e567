// Package stream implements the platform's stream-processing engine: keyed
// event streams with event-time semantics, watermark-driven tumbling windows
// with incremental aggregation, and a source → window → sink pipeline that
// runs on the goroutine pushing into it. It plays the role Flink-class
// systems play in the big-data architectures the paper assumes.
package stream

import (
	"fmt"
	"hash/fnv"
	"time"
)

// Event is one element of a stream. Key selects the logical partition;
// Time is event time (not processing time); Value carries the numeric
// measure windows aggregate. A window emits its result as an Event too:
// the key, the window's end, and the aggregate.
type Event struct {
	Key   string
	Time  time.Time
	Value float64
}

// partitionOf maps a key onto one of a window's n partitions.
func partitionOf(key string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// Window identifies a half-open event-time interval [Start, End).
type Window struct {
	Start time.Time
	End   time.Time
}

// String renders the window compactly for logs and test failures.
func (w Window) String() string {
	return fmt.Sprintf("[%s,%s)", w.Start.Format("15:04:05.000"), w.End.Format("15:04:05.000"))
}

// Aggregator builds incremental window aggregates: New creates an
// accumulator, Add folds one event in, Result extracts the output value.
// The pipeline's lock serialises every call, so an accumulator needs no
// locking of its own. Sum keeps a pointer and folds in place, so Add
// allocates nothing: returning a changed number as an any would box it on
// every event.
type Aggregator struct {
	Name   string
	New    func() any
	Add    func(acc any, e Event) any
	Result func(acc any) float64
}

// Sum returns an aggregator summing event values.
func Sum() Aggregator {
	return Aggregator{
		Name: "sum",
		New:  func() any { return new(float64) },
		Add: func(acc any, e Event) any {
			*acc.(*float64) += e.Value
			return acc
		},
		Result: func(acc any) float64 { return *acc.(*float64) },
	}
}

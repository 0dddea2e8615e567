// Package stream implements the platform's stream-processing engine: keyed
// event streams with event-time semantics, watermark-driven tumbling,
// sliding, and session windows, incremental aggregation, windowed joins, and
// a pipeline DAG executed by parallel workers with bounded-channel
// backpressure. It plays the role Flink-class systems play in the big-data
// architectures the paper assumes.
package stream

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"
)

// Event is one element of a stream. Key selects the logical partition;
// Time is event time (not processing time); Value carries the numeric
// measure most operators aggregate; Payload carries arbitrary context for
// map/filter/join logic.
type Event struct {
	Key     string
	Time    time.Time
	Value   float64
	Payload any
}

// partitionOf maps a key onto one of n worker partitions.
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

// WindowResult is the payload attached to events emitted by window
// operators.
type WindowResult struct {
	Window Window
	Key    string
	Count  int
}

// Aggregator builds incremental window aggregates: New creates an
// accumulator, Add folds one event in, Result extracts the output value.
// Accumulators never cross goroutines concurrently; the engine confines each
// (key, window) accumulator to one worker. The built-in aggregators keep a
// pointer and fold in place, so Add allocates nothing: returning a changed
// number as an any would box it on every event.
type Aggregator struct {
	Name   string
	New    func() any
	Add    func(acc any, e Event) any
	Result func(acc any) float64
}

type meanAcc struct {
	sum float64
	n   int
}

type minMaxAcc struct {
	v   float64
	set bool
}

// Count returns an aggregator counting events.
func Count() Aggregator {
	return Aggregator{
		Name: "count",
		New:  func() any { return new(int) },
		Add: func(acc any, _ Event) any {
			*acc.(*int)++
			return acc
		},
		Result: func(acc any) float64 { return float64(*acc.(*int)) },
	}
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

// Mean returns an aggregator averaging event values.
func Mean() Aggregator {
	return Aggregator{
		Name: "mean",
		New:  func() any { return &meanAcc{} },
		Add: func(acc any, e Event) any {
			a := acc.(*meanAcc)
			a.sum += e.Value
			a.n++
			return a
		},
		Result: func(acc any) float64 {
			a := acc.(*meanAcc)
			if a.n == 0 {
				return math.NaN()
			}
			return a.sum / float64(a.n)
		},
	}
}

// Min returns an aggregator tracking the minimum event value.
func Min() Aggregator {
	return Aggregator{
		Name: "min",
		New:  func() any { return &minMaxAcc{} },
		Add: func(acc any, e Event) any {
			a := acc.(*minMaxAcc)
			if !a.set || e.Value < a.v {
				a.v, a.set = e.Value, true
			}
			return a
		},
		Result: func(acc any) float64 {
			a := acc.(*minMaxAcc)
			if !a.set {
				return math.NaN()
			}
			return a.v
		},
	}
}

// Max returns an aggregator tracking the maximum event value.
func Max() Aggregator {
	return Aggregator{
		Name: "max",
		New:  func() any { return &minMaxAcc{} },
		Add: func(acc any, e Event) any {
			a := acc.(*minMaxAcc)
			if !a.set || e.Value > a.v {
				a.v, a.set = e.Value, true
			}
			return a
		},
		Result: func(acc any) float64 {
			a := acc.(*minMaxAcc)
			if !a.set {
				return math.NaN()
			}
			return a.v
		},
	}
}

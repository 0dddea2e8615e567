// Package sim provides the deterministic simulation substrate used by every
// other package in the repository: a controllable clock and seeded random
// streams.
//
// All randomness and all notion of "now" in the platform flows through this
// package so that tests, examples, and benchmarks are reproducible run to
// run. Production deployments swap in RealClock; simulations and tests use
// VirtualClock and drive time explicitly.
package sim

import (
	"sync"
	"time"
)

// Clock abstracts time so simulated and wall-clock components share code.
type Clock interface {
	// Now returns the current instant according to this clock.
	Now() time.Time
	// Since returns the elapsed duration from t to Now.
	Since(t time.Time) time.Duration
}

// RealClock is a Clock backed by the system wall clock.
type RealClock struct{}

var _ Clock = RealClock{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Since implements Clock.
func (RealClock) Since(t time.Time) time.Duration { return time.Since(t) }

// VirtualClock is a deterministic Clock that only moves when told to.
// The zero value is not ready to use; construct with NewVirtualClock.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Time
}

var _ Clock = (*VirtualClock)(nil)

// Epoch is the default start instant for virtual clocks: a fixed, arbitrary
// date so that timestamps in test output are stable.
var Epoch = time.Date(2017, 6, 5, 0, 0, 0, 0, time.UTC)

// NewVirtualClock returns a VirtualClock starting at the given instant. If
// start is the zero time, the clock starts at Epoch.
//
//arbd:test-api the core and mq clock hooks take it in tests
func NewVirtualClock(start time.Time) *VirtualClock {
	if start.IsZero() {
		start = Epoch
	}
	return &VirtualClock{now: start}
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Since implements Clock.
func (c *VirtualClock) Since(t time.Time) time.Duration {
	return c.Now().Sub(t)
}

// Advance moves the clock forward by d and returns the new instant.
// Advancing by a negative duration is a no-op.
//
//arbd:test-api core tests drive session time with it
func (c *VirtualClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d > 0 {
		c.now = c.now.Add(d)
	}
	return c.now
}

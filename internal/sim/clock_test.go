package sim

import (
	"testing"
	"time"
)

func TestVirtualClockStartsAtEpochByDefault(t *testing.T) {
	c := NewVirtualClock(time.Time{})
	if got := c.Now(); !got.Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", got, Epoch)
	}
}

func TestVirtualClockAdvance(t *testing.T) {
	c := NewVirtualClock(Epoch)
	c.Advance(5 * time.Second)
	if got, want := c.Now(), Epoch.Add(5*time.Second); !got.Equal(want) {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
	// Negative advance must not move time backwards.
	c.Advance(-time.Hour)
	if got, want := c.Now(), Epoch.Add(5*time.Second); !got.Equal(want) {
		t.Fatalf("after negative advance Now() = %v, want %v", got, want)
	}
}

func TestVirtualClockSince(t *testing.T) {
	c := NewVirtualClock(Epoch)
	start := c.Now()
	c.Advance(42 * time.Millisecond)
	if got := c.Since(start); got != 42*time.Millisecond {
		t.Fatalf("Since = %v, want 42ms", got)
	}
}

func TestRealClockMonotonicEnough(t *testing.T) {
	c := RealClock{}
	a := c.Now()
	if c.Since(a) < 0 {
		t.Fatal("RealClock.Since returned negative duration")
	}
}

package server

import (
	"time"

	"arbd/internal/core"
)

// Admission constants, shared by every role so the standalone scheduler, the
// shard, and the router tighten deadlines at the same pressure levels — the
// "same rule local or remote" invariant below depends on these having one
// source of truth.
const (
	// defaultFrameDeadline is generous: shedding should only trip under
	// overload, not on a transient queue blip.
	defaultFrameDeadline = 250 * time.Millisecond
	// backlogRef is the analytics backlog that halves the effective
	// deadline.
	backlogRef = 4096
)

// loadGate is the lag-aware admission rule shared by every role: it turns a
// backend LoadSignal's backlog (0 from a core platform, which folds each
// interaction inside its sensor call) into an effective queue-wait
// deadline. Pressure 1 — backlog at backlogRef — halves the configured
// deadline, pressure k divides it by 1+k, and the floor is deadline/16. The
// FrameScheduler applies it to its own platform's signal, the Router to
// each shard's MsgLoad-reported signal, so a frame is shed by the same rule
// whether the pressure is local or a forward hop away.
type loadGate struct {
	deadline time.Duration
}

// effective returns the admission deadline under sig; the configured
// deadline must be positive.
func (g loadGate) effective(sig core.LoadSignal) time.Duration {
	d := g.deadline
	pressure := float64(sig.Backlog) / float64(backlogRef)
	if pressure <= 0 {
		return d
	}
	eff := time.Duration(float64(d) / (1 + pressure))
	if floor := d / 16; eff < floor {
		eff = floor
	}
	return eff
}

package core

import (
	"time"

	"arbd/internal/wire"
)

// LoadSignal is the payload of a retired wire.MsgLoad envelope, the
// backend-pressure report shards once pushed to routers. No node sends it
// any more: telemetry is folded inside the sensor call, so there is no
// backlog and no batch flush to report. Only the benchmark generator still
// decodes it; it goes with DecodeLoadSignal and the message type's name in
// the benchmark change that stops reading it (ROADMAP item 1).
type LoadSignal struct {
	FlushLatency time.Duration
	Backlog      int64
}

// DecodeLoadSignal parses a retired wire.MsgLoad payload (see LoadSignal):
// no node sends one, and only the benchmark generator still calls it.
func DecodeLoadSignal(p []byte) (LoadSignal, error) {
	r := wire.NewReader(p)
	var sig LoadSignal
	ns, err := r.Uvarint()
	if err != nil {
		return sig, r.Err(err, "flush latency")
	}
	sig.FlushLatency = time.Duration(ns)
	if sig.Backlog, err = r.Varint(); err != nil {
		return sig, r.Err(err, "backlog")
	}
	return sig, nil
}

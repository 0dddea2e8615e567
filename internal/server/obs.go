// Introspection-plane wiring: a node or a router builds an obs.Plane over
// its own registry, flight recorder, and live session/stream state. The
// plane is pull-only — handlers snapshot state on request — so wiring it
// costs the serving path nothing.
package server

import (
	"sort"
	"time"

	"arbd/internal/core"
	"arbd/internal/obs"
	"arbd/internal/wire"
)

// StreamSummaries snapshots the engine's live subscription streams, sorted
// by session ID.
func (e *Engine) StreamSummaries() []obs.StreamSummary {
	e.streamsMu.Lock()
	out := make([]obs.StreamSummary, 0, len(e.streams))
	for _, st := range e.streams {
		out = append(out, obs.StreamSummary{
			Session:    st.d.session,
			IntervalMS: float64(st.interval) / float64(time.Millisecond),
			Delta:      st.delta,
			Pushes:     st.pushSeq.Load(),
			AckedSeq:   st.ackedSeq.Load(),
		})
	}
	e.streamsMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Session < out[j].Session })
	return out
}

// sessionSummaries snapshots every live session on the platform, sorted by
// ID.
func sessionSummaries(p *core.Platform) []obs.SessionSummary {
	out := make([]obs.SessionSummary, 0, p.NumSessions())
	p.ForEachSession(func(s *core.Session) bool {
		st := s.Stats()
		out = append(out, obs.SessionSummary{
			ID:       s.ID,
			Frames:   st.Frames,
			Overruns: st.Overruns,
			Level:    st.Level.String(),
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ObsPlane builds the node's introspection plane. On a shard, Node carries
// the ring member ID so scraped traces attribute to the right partition.
func (n *node) ObsPlane() *obs.Plane {
	role := "standalone"
	if n.backend {
		role = "shard"
	}
	return obs.NewPlane(obs.PlaneConfig{
		Role:     role,
		Node:     n.id,
		Registry: n.eng.platform.Metrics(),
		Recorder: n.eng.rec,
		Sessions: func() []obs.SessionSummary { return sessionSummaries(n.eng.platform) },
		Streams:  n.eng.StreamSummaries,
	})
}

// ObsPlane builds the router's introspection plane. The router owns no core
// sessions — its session list is the connected-client map, its streams the
// tracked subscriptions (interval/delta decoded from the replay payload).
func (r *Router) ObsPlane() *obs.Plane {
	return obs.NewPlane(obs.PlaneConfig{
		Role:     "router",
		Registry: r.reg,
		Recorder: r.rec,
		Sessions: r.clientSummaries,
		Streams:  r.subSummaries,
	})
}

// clientSummaries lists the router's connected client sessions (IDs only:
// frame counters live on the owning shard).
func (r *Router) clientSummaries() []obs.SessionSummary {
	r.sessMu.RLock()
	out := make([]obs.SessionSummary, 0, len(r.sessions))
	for id := range r.sessions {
		out = append(out, obs.SessionSummary{ID: id})
	}
	r.sessMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// subSummaries lists the router's tracked subscriptions with their
// client-visible (rebased) push progress.
func (r *Router) subSummaries() []obs.StreamSummary {
	r.subsMu.Lock()
	out := make([]obs.StreamSummary, 0, len(r.subs))
	for id, e := range r.subs {
		sum := obs.StreamSummary{Session: id, Pushes: e.last}
		if sub, err := wire.DecodeSubscribe(e.payload); err == nil {
			sum.IntervalMS = float64(pushInterval(sub)) / float64(time.Millisecond)
			sum.Delta = sub.Flags&wire.SubFlagDelta != 0
		}
		out = append(out, sum)
	}
	r.subsMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Session < out[j].Session })
	return out
}

package obs

import (
	"encoding/json"
	"maps"
	"net"
	"net/url"
	"strconv"
	"time"

	"arbd/internal/metrics"
)

// SessionSummary is one live session's health for /debug/arbd/sessions.
// Roles that own no core sessions (the router) fill only ID.
type SessionSummary struct {
	ID       uint64 `json:"id"`
	Frames   uint64 `json:"frames"`
	Overruns uint64 `json:"overruns"`
	Level    string `json:"level,omitempty"`
}

// StreamSummary is one live subscription stream for /debug/arbd/streams.
type StreamSummary struct {
	Session    uint64  `json:"session"`
	IntervalMS float64 `json:"interval_ms"`
	Delta      bool    `json:"delta"`
	Pushes     uint64  `json:"pushes"`
	AckedSeq   uint64  `json:"acked_seq"`
}

// PlaneConfig wires one node's state sources into an introspection plane.
type PlaneConfig struct {
	// Role labels the node in responses ("standalone", "router", "shard").
	Role string
	// Node is the node's identity (shard ring member ID; zero elsewhere).
	Node uint64
	// Registry backs /metrics and /debug/arbd/metrics.
	Registry *metrics.Registry
	// Recorder backs /debug/arbd/slow. May be nil (no recorder: empty).
	Recorder *Recorder
	// Sessions and Streams supply the JSON summaries; nil means none.
	Sessions func() []SessionSummary
	Streams  func() []StreamSummary
}

// Plane serves one node's introspection endpoints:
//
//	/metrics              Prometheus text exposition of the registry
//	/debug/arbd/metrics   typed JSON snapshot (what arbd-top consumes)
//	/debug/arbd/sessions  live session summaries
//	/debug/arbd/streams   live subscription stream summaries
//	/debug/arbd/slow?n=K  last K slow-frame exemplar traces, newest first
type Plane struct {
	cfg    PlaneConfig
	rt     *runtimeCollector
	routes routes
}

// NewPlane builds the plane and its routes.
func NewPlane(cfg PlaneConfig) *Plane {
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	p := &Plane{cfg: cfg, rt: newRuntimeCollector(cfg.Registry)}
	p.routes = routes{
		"/metrics":             p.handleMetrics,
		"/debug/arbd/metrics":  p.handleMetricsJSON,
		"/debug/arbd/sessions": p.handleSessions,
		"/debug/arbd/streams":  p.handleStreams,
		"/debug/arbd/slow":     p.handleSlow,
	}
	return p
}

// Serve answers the plane's endpoints on ln until ln is closed; with pprof
// it answers the profiling endpoints (/debug/pprof/...) on the same
// listener too.
func (p *Plane) Serve(ln net.Listener, pprof bool) error {
	rs := p.routes
	if pprof {
		rs = maps.Clone(rs)
		addPprof(rs)
	}
	return newResponder(rs).serve(ln)
}

// ServePprof answers the profiling endpoints alone on ln until ln is
// closed.
func ServePprof(ln net.Listener) error {
	rs := routes{}
	addPprof(rs)
	return newResponder(rs).serve(ln)
}

func (p *Plane) handleMetrics(w *response, _ url.Values) {
	p.rt.collect()
	w.ctype = "text/plain; version=0.0.4; charset=utf-8"
	_ = WritePrometheus(w, p.cfg.Registry)
}

// instrumentJSON is one instrument in the typed JSON snapshot.
type instrumentJSON struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Value  float64 `json:"value,omitempty"`   // counter, gauge
	Count  uint64  `json:"count,omitempty"`   // histogram
	MeanUS float64 `json:"mean_us,omitempty"` // histogram, microseconds
	P50US  float64 `json:"p50_us,omitempty"`  // "
	P95US  float64 `json:"p95_us,omitempty"`  // "
	P99US  float64 `json:"p99_us,omitempty"`  // "
	MaxUS  float64 `json:"max_us,omitempty"`  // "
	SumUS  float64 `json:"sum_us,omitempty"`  // "
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (p *Plane) handleMetricsJSON(w *response, _ url.Values) {
	p.rt.collect()
	snap := p.cfg.Registry.Snapshot()
	out := struct {
		Role        string           `json:"role"`
		Node        uint64           `json:"node,omitempty"`
		Instruments []instrumentJSON `json:"instruments"`
	}{Role: p.cfg.Role, Node: p.cfg.Node, Instruments: make([]instrumentJSON, 0, len(snap))}
	for _, in := range snap {
		j := instrumentJSON{Name: in.Name, Kind: in.Kind.String()}
		switch in.Kind {
		case metrics.KindCounter:
			j.Value = float64(in.Counter)
		case metrics.KindGauge:
			j.Value = in.Gauge
		case metrics.KindHistogram:
			s := in.Hist
			j.Count = s.Count
			j.MeanUS, j.P50US, j.P95US = us(s.Mean), us(s.P50), us(s.P95)
			j.P99US, j.MaxUS, j.SumUS = us(s.P99), us(s.Max), us(s.Sum)
		}
		out.Instruments = append(out.Instruments, j)
	}
	writeJSON(w, out)
}

func (p *Plane) handleSessions(w *response, _ url.Values) {
	var sessions []SessionSummary
	if p.cfg.Sessions != nil {
		sessions = p.cfg.Sessions()
	}
	writeJSON(w, struct {
		Role     string           `json:"role"`
		Node     uint64           `json:"node,omitempty"`
		Count    int              `json:"count"`
		Sessions []SessionSummary `json:"sessions"`
	}{p.cfg.Role, p.cfg.Node, len(sessions), sessions})
}

func (p *Plane) handleStreams(w *response, _ url.Values) {
	var streams []StreamSummary
	if p.cfg.Streams != nil {
		streams = p.cfg.Streams()
	}
	writeJSON(w, struct {
		Role    string          `json:"role"`
		Node    uint64          `json:"node,omitempty"`
		Count   int             `json:"count"`
		Streams []StreamSummary `json:"streams"`
	}{p.cfg.Role, p.cfg.Node, len(streams), streams})
}

// TraceJSON is one slow-frame exemplar in /debug/arbd/slow responses. Spans
// are microseconds, keyed by stage name; traces across a router and the
// shard behind it join on (session, seq).
type TraceJSON struct {
	Session     uint64             `json:"session"`
	Seq         uint64             `json:"seq"`
	Start       time.Time          `json:"start"`
	TotalUS     float64            `json:"total_us"`
	Blame       string             `json:"blame"`
	Spans       map[string]float64 `json:"spans_us"`
	Dropped     bool               `json:"dropped,omitempty"`
	Shed        bool               `json:"shed,omitempty"`
	RenderError bool               `json:"render_error,omitempty"`
}

func traceJSON(rec *FrameRecord) TraceJSON {
	t := TraceJSON{
		Session:     rec.Session,
		Seq:         rec.Seq,
		Start:       time.Unix(0, rec.Start),
		TotalUS:     float64(rec.Total) / float64(time.Microsecond),
		Blame:       rec.Blame().String(),
		Spans:       make(map[string]float64, int(NumStages)),
		Dropped:     rec.Dropped,
		Shed:        rec.Shed,
		RenderError: rec.Err,
	}
	for s := Stage(0); s < NumStages; s++ {
		t.Spans[s.String()] = float64(rec.Spans[s]) / float64(time.Microsecond)
	}
	return t
}

func (p *Plane) handleSlow(w *response, q url.Values) {
	n := 16
	if s := q.Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			w.error(400, "bad n")
			return
		}
		n = v
	}
	var recs []FrameRecord
	var threshold time.Duration
	if p.cfg.Recorder != nil {
		recs = p.cfg.Recorder.Slow(n)
		threshold = p.cfg.Recorder.SlowThreshold()
	}
	out := struct {
		Role        string      `json:"role"`
		Node        uint64      `json:"node,omitempty"`
		ThresholdUS float64     `json:"threshold_us"`
		Records     []TraceJSON `json:"records"`
	}{Role: p.cfg.Role, Node: p.cfg.Node, ThresholdUS: us(threshold),
		Records: make([]TraceJSON, 0, len(recs))}
	for i := range recs {
		out.Records = append(out.Records, traceJSON(&recs[i]))
	}
	writeJSON(w, out)
}

func writeJSON(w *response, v any) {
	w.ctype = "application/json"
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

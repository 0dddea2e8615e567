package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"arbd/internal/metrics"
)

func planeFixture() (*Plane, *metrics.Registry, *Recorder) {
	reg := metrics.NewRegistry()
	reg.Counter("server.frames.done").Add(5)
	rec := NewRecorder(reg)
	at := time.Now()
	fl := rec.Begin(11, at.Add(-5*time.Millisecond))
	fl.SetSeq(2)
	fl.MarkAt(StageWrite, at)
	fl.FinishAt(at)
	p := NewPlane(PlaneConfig{
		Role:     "shard",
		Node:     3,
		Registry: reg,
		Recorder: rec,
		Sessions: func() []SessionSummary {
			return []SessionSummary{{ID: 11, Frames: 9, Overruns: 1, Level: "full"}}
		},
		Streams: func() []StreamSummary {
			return []StreamSummary{{Session: 11, IntervalMS: 33, Delta: true, Pushes: 2}}
		},
	})
	// The fixture's instruments hold still between scrapes, so two serving
	// paths can be compared byte for byte: its runtime reads land in a
	// registry nothing serves, and its own runtime gauges stay 0
	// (TestRuntimeGauges reads them).
	p.rt = newRuntimeCollector(metrics.NewRegistry())
	return p, reg, rec
}

// get serves p on a fresh listener and GETs path from it.
func get(t *testing.T, p *Plane, path string) *httptest.ResponseRecorder {
	t.Helper()
	base, client := servePlane(t, p, false)
	return fetch(t, client, "GET", base+path)
}

// TestPlaneMetricsEndpoint checks /metrics: content type and the registry's
// instruments present. No node has a backlog to report, so the plane
// exports no backlog gauge.
func TestPlaneMetricsEndpoint(t *testing.T) {
	p, _, _ := planeFixture()
	w := get(t, p, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		"arbd_server_frames_done 5",
		"arbd_obs_frames_recorded 1",
		`arbd_obs_frame_total_seconds{quantile="0.99"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, "arbd_core_load_backlog") {
		t.Fatalf("/metrics exports a backlog gauge:\n%s", body)
	}
}

// TestPlaneDebugEndpoints checks the JSON surfaces: typed metrics, session
// and stream summaries, and the slow-trace records with per-stage spans.
func TestPlaneDebugEndpoints(t *testing.T) {
	p, _, _ := planeFixture()

	var m struct {
		Role        string `json:"role"`
		Node        uint64 `json:"node"`
		Instruments []struct {
			Name string `json:"name"`
			Kind string `json:"kind"`
		} `json:"instruments"`
	}
	if err := json.Unmarshal(get(t, p, "/debug/arbd/metrics").Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Role != "shard" || m.Node != 3 || len(m.Instruments) == 0 {
		t.Fatalf("metrics json = %+v", m)
	}

	var sess struct {
		Count    int              `json:"count"`
		Sessions []SessionSummary `json:"sessions"`
	}
	if err := json.Unmarshal(get(t, p, "/debug/arbd/sessions").Body.Bytes(), &sess); err != nil {
		t.Fatal(err)
	}
	if sess.Count != 1 || sess.Sessions[0].ID != 11 || sess.Sessions[0].Level != "full" {
		t.Fatalf("sessions json = %+v", sess)
	}

	var str struct {
		Streams []StreamSummary `json:"streams"`
	}
	if err := json.Unmarshal(get(t, p, "/debug/arbd/streams").Body.Bytes(), &str); err != nil {
		t.Fatal(err)
	}
	if len(str.Streams) != 1 || !str.Streams[0].Delta || str.Streams[0].IntervalMS != 33 {
		t.Fatalf("streams json = %+v", str)
	}

	var slow struct {
		Role    string      `json:"role"`
		Records []TraceJSON `json:"records"`
	}
	if err := json.Unmarshal(get(t, p, "/debug/arbd/slow?n=4").Body.Bytes(), &slow); err != nil {
		t.Fatal(err)
	}
	if len(slow.Records) != 1 {
		t.Fatalf("%d slow records, want 1", len(slow.Records))
	}
	tr := slow.Records[0]
	if tr.Session != 11 || tr.Seq != 2 {
		t.Fatalf("trace identity = (%d, %d)", tr.Session, tr.Seq)
	}
	if tr.TotalUS < 5000 {
		t.Fatalf("trace total %vµs, want >= 5000 (backdated begin)", tr.TotalUS)
	}
	if len(tr.Spans) != int(NumStages) {
		t.Fatalf("trace has %d spans, want %d", len(tr.Spans), NumStages)
	}
	var sum float64
	for _, v := range tr.Spans {
		sum += v
	}
	if diff := sum - tr.TotalUS; diff > 1 || diff < -1 {
		t.Fatalf("span sum %vµs != total %vµs", sum, tr.TotalUS)
	}
	if tr.Blame == "" || tr.Blame == "unknown" {
		t.Fatalf("trace blame = %q", tr.Blame)
	}

	if w := get(t, p, "/debug/arbd/slow?n=bogus"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad n: status = %d", w.Code)
	}
}

package server

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"arbd/internal/core"
	"arbd/internal/obs"
	"arbd/internal/sensor"
)

// servePlane serves p on a loopback listener for the rest of the test and
// returns its address.
func servePlane(t *testing.T, p *obs.Plane) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go p.Serve(ln, false)
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// scrape GETs path from a plane served at addr and records the response.
func scrape(t *testing.T, addr, path string) *httptest.ResponseRecorder {
	t.Helper()
	resp, err := scrapeClient.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	w := httptest.NewRecorder()
	for k, v := range resp.Header {
		w.Header()[k] = v
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		t.Fatal(err)
	}
	return w
}

// scrapeClient keeps no idle connection, so a scrape leaves no goroutine
// behind on either side.
var scrapeClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}

// promify mirrors the exporter's name sanitation, so the test can assert
// registry coverage without reaching into the obs package's internals.
func promify(name string) string {
	var b strings.Builder
	b.WriteString("arbd_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' {
			b.WriteByte(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

type slowResponse struct {
	Role        string          `json:"role"`
	Node        uint64          `json:"node"`
	ThresholdUS float64         `json:"threshold_us"`
	Records     []obs.TraceJSON `json:"records"`
}

// TestObsSlowFrameTraceE2E runs a streaming client through a router over two
// one-worker shards, wedges the owning shard's scheduler with a deliberately
// slow job, and asserts the queued-behind frame surfaces in the shard's
// /debug/arbd/slow with a queue-blamed stage breakdown whose span sum matches
// the observed latency — while /metrics on both the shard and the router
// expose every registry instrument in well-formed Prometheus text format.
func TestObsSlowFrameTraceE2E(t *testing.T) {
	tc := startCluster(t, 2, func(i int, o *ShardOptions) {
		// One render worker per shard: a single wedged job stalls the queue,
		// which is exactly the latency the recorder must attribute.
		o.workers = 1
	}, RouterOptions{})

	cl, err := Dial(tc.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	frames, err := cl.Subscribe(context.Background(), SubscribeOptions{Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Keep the client reading so pushes flow and write completions settle
	// flights.
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range frames {
		}
	}()

	// Wait for the first pushes, then locate the session's owning shard.
	deadline := time.Now().Add(10 * time.Second)
	var sess *core.Session
	owner := -1
	for time.Now().Before(deadline) && sess == nil {
		for i, sh := range tc.shards {
			sh.eng.platform.ForEachSession(func(s *core.Session) bool {
				sess, owner = s, i
				return false
			})
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sess == nil {
		t.Fatal("no session appeared on any shard")
	}
	sh := tc.shards[owner]
	plane := servePlane(t, sh.ObsPlane())

	// Give the recorder a few settled frames so the rolling threshold warms,
	// then wedge the single worker: the next paced frame queues behind the
	// sleep and crosses the slow threshold by an order of magnitude.
	time.Sleep(50 * time.Millisecond)
	const wedge = 80 * time.Millisecond
	if err := sh.eng.sched.Submit(sess,
		func(*core.Frame) { time.Sleep(wedge) },
		func(error) {}); err != nil {
		t.Fatal(err)
	}

	// Scrape until the queue-blamed trace lands in the exemplar store.
	var trace *obs.TraceJSON
	for time.Now().Before(deadline) && trace == nil {
		var resp slowResponse
		if err := json.Unmarshal(scrape(t, plane, "/debug/arbd/slow?n=64").Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Role != "shard" || resp.Node != uint64(sh.id) {
			t.Fatalf("slow response identity = %s/%d", resp.Role, resp.Node)
		}
		for i := range resp.Records {
			r := &resp.Records[i]
			if r.Session == sess.ID && r.Blame == "queue" && r.Spans["queue"] >= 20_000 {
				trace = r
				break
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if trace == nil {
		t.Fatal("wedged frame never surfaced as a queue-blamed slow trace")
	}
	if trace.Seq == 0 {
		t.Fatal("slow trace carries no push seq to join on")
	}
	if trace.Dropped || trace.Shed || trace.RenderError {
		t.Fatalf("slow trace flags = %+v, want a delivered frame", trace)
	}
	var sum float64
	for _, v := range trace.Spans {
		sum += v
	}
	// The recorder's contract: a delivered frame's span sum equals its total
	// (the trace closes at the write completion that defines it).
	if diff := sum - trace.TotalUS; diff > trace.TotalUS*0.01+1 || diff < -(trace.TotalUS*0.01+1) {
		t.Fatalf("span sum %.0fµs vs total %.0fµs — stages do not account for the latency", sum, trace.TotalUS)
	}
	if trace.TotalUS < 20_000 {
		t.Fatalf("slow trace total %.0fµs, want >= 20ms (the wedge)", trace.TotalUS)
	}

	// The shard's /metrics must expose every registry instrument, well
	// formed.
	mw := scrape(t, plane, "/metrics")
	if ct := mw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	body := mw.Body.String()
	for _, in := range sh.eng.platform.Metrics().Snapshot() {
		name := in.Name
		if !strings.Contains(body, promify(name)) {
			t.Fatalf("shard /metrics missing instrument %q", name)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if sp := strings.LastIndex(line, " "); sp <= 0 || !strings.HasPrefix(line, "arbd_") {
			t.Fatalf("malformed /metrics line: %q", line)
		}
	}

	// The shard's session and stream summaries cover the live subscription.
	var sessions struct {
		Sessions []obs.SessionSummary `json:"sessions"`
	}
	if err := json.Unmarshal(scrape(t, plane, "/debug/arbd/sessions").Body.Bytes(), &sessions); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range sessions.Sessions {
		found = found || s.ID == sess.ID
	}
	if !found {
		t.Fatalf("session %d missing from /debug/arbd/sessions: %+v", sess.ID, sessions)
	}
	var streams struct {
		Streams []obs.StreamSummary `json:"streams"`
	}
	if err := json.Unmarshal(scrape(t, plane, "/debug/arbd/streams").Body.Bytes(), &streams); err != nil {
		t.Fatal(err)
	}
	if len(streams.Streams) != 1 || streams.Streams[0].Session != sess.ID || streams.Streams[0].Pushes == 0 {
		t.Fatalf("shard stream summaries = %+v", streams)
	}

	// The router's plane serves the same surfaces for its own half: every
	// router instrument exported, and its slow store holds traces joinable
	// on the same (session, seq) space (router flights carry rebased seqs).
	rplane := servePlane(t, tc.router.ObsPlane())
	rbody := scrape(t, rplane, "/metrics").Body.String()
	for _, in := range tc.router.Metrics().Snapshot() {
		name := in.Name
		if !strings.Contains(rbody, promify(name)) {
			t.Fatalf("router /metrics missing instrument %q", name)
		}
	}
	var rslow slowResponse
	if err := json.Unmarshal(scrape(t, rplane, "/debug/arbd/slow").Body.Bytes(), &rslow); err != nil {
		t.Fatal(err)
	}
	if rslow.Role != "router" {
		t.Fatalf("router slow role = %q", rslow.Role)
	}
	for _, r := range rslow.Records {
		if r.Session == sess.ID && r.Seq == trace.Seq {
			// Cross-node join confirmed: both halves of this push's journey
			// are addressable by (session, seq).
			break
		}
	}

	if err := cl.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	_ = cl.Close()
	<-drained
}

// TestObsPolledFramesRecorded pins that request/reply frames fly like
// streamed ones, down the same delivery path: on both session-serving roles
// every polled frame leaves one delivered flight record keyed by (session,
// request seq) whose spans — a real outbox wait among them — account for
// its total, and through a router every forwarded reply leaves a second
// record on the router, joining the shard's on (session, seq). A poll-only
// deployment is as visible to /debug/arbd/slow and the arbd_obs_*
// instruments as a streaming one.
func TestObsPolledFramesRecorded(t *testing.T) {
	srv, standalone := startServer(t)
	tc := startCluster(t, 1, nil, RouterOptions{})
	for _, role := range []struct {
		name string
		addr string
		recs []*obs.Recorder // every node a reply crosses, rendering node first
	}{
		{"standalone", standalone, []*obs.Recorder{srv.eng.rec}},
		{"router→shard", tc.addr, []*obs.Recorder{tc.shards[0].eng.rec, tc.router.rec}},
	} {
		t.Run(role.name, func(t *testing.T) {
			cl, err := Dial(role.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if err := cl.SendGPS(sensor.GPSFix{Time: time.Now(), Position: center, AccuracyM: 3}); err != nil {
				t.Fatal(err)
			}
			const polls = 5
			for i := 0; i < polls; i++ {
				if _, _, err := cl.RequestFrame(); err != nil {
					t.Fatal(err)
				}
			}
			var seqs map[uint64]bool // the rendering node's; every later hop must match
			for hop, rec := range role.recs {
				// A reply is written before its flight settles: poll for the last.
				var mine []obs.FrameRecord
				waitFor(t, "the polled frames' flight records", func() bool {
					mine = mine[:0]
					for _, r := range rec.Records(nil) {
						if r.Session == cl.SessionID() {
							mine = append(mine, r)
						}
					}
					return len(mine) == polls
				})
				got := make(map[uint64]bool)
				for _, r := range mine {
					if r.Seq == 0 || got[r.Seq] {
						t.Fatalf("hop %d: record seq %d: want each request's own seq", hop, r.Seq)
					}
					got[r.Seq] = true
					if r.Err || r.Dropped || r.Shed || r.Spans[obs.StageOutbox] <= 0 || r.Spans[obs.StageWrite] <= 0 {
						t.Fatalf("hop %d: polled frame record = %+v, want delivered through the outbox", hop, r)
					}
					if rendered := r.Spans[obs.StageRender] > 0; rendered != (hop == 0) {
						t.Fatalf("hop %d: polled frame record = %+v, want a render span on the rendering node only", hop, r)
					}
					var sum int64
					for _, span := range r.Spans {
						sum += span
					}
					if d := sum - r.Total; d > r.Total/100+1000 || d < -(r.Total/100+1000) {
						t.Fatalf("hop %d: span sum %dns vs total %dns — stages do not account for the latency", hop, sum, r.Total)
					}
				}
				if hop == 0 {
					seqs = got
				} else if !reflect.DeepEqual(got, seqs) {
					t.Fatalf("hop %d recorded seqs %v, the rendering node %v: records do not join on (session, seq)", hop, got, seqs)
				}
			}
		})
	}
}

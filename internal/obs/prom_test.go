package obs

import (
	"io"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"arbd/internal/metrics"
)

// promName is the sanitized Prometheus name of a registry name.
func promName(name string) string { return string(appendPromName(nil, name)) }

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"server.frames.done":     "arbd_server_frames_done",
		"core.load.backlog":      "arbd_core_load_backlog",
		"weird-name/with spaces": "arbd_weird_name_with_spaces",
		"0day":                   "arbd_0day",
		"already_fine":           "arbd_already_fine",
		"router.migration.pause": "arbd_router_migration_pause",
		"caps.OK.Mixed":          "arbd_caps_OK_Mixed",
		"trailing.":              "arbd_trailing_",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// promLine matches one sample line of the text exposition format: a metric
// name, an optional label set, and a float value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z0-9_]+="[^"]*"(,[a-zA-Z0-9_]+="[^"]*")*\})? -?[0-9.eE+-]+$`)

// TestWritePrometheusRoundTrip renders a populated registry and re-parses
// the output: every instrument appears under its sanitized name with HELP
// and TYPE lines, histograms carry quantile labels plus _sum/_count, and
// every non-comment line is a well-formed sample.
func TestWritePrometheusRoundTrip(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("server.frames.done").Add(42)
	reg.Gauge("core.load.backlog").Set(17.5)
	h := reg.Histogram("server.frame.latency")
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}

	var sb strings.Builder
	if err := WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	// Parse back: TYPE declarations and samples.
	types := map[string]string{}
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line: %q", line)
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed sample line: %q", line)
		}
		sp := strings.LastIndex(line, " ")
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}

	if types["arbd_server_frames_done"] != "counter" {
		t.Fatalf("counter TYPE = %q", types["arbd_server_frames_done"])
	}
	if samples["arbd_server_frames_done"] != 42 {
		t.Fatalf("counter sample = %v, want 42", samples["arbd_server_frames_done"])
	}
	if types["arbd_core_load_backlog"] != "gauge" {
		t.Fatalf("gauge TYPE = %q", types["arbd_core_load_backlog"])
	}
	if samples["arbd_core_load_backlog"] != 17.5 {
		t.Fatalf("gauge sample = %v, want 17.5", samples["arbd_core_load_backlog"])
	}
	if types["arbd_server_frame_latency_seconds"] != "summary" {
		t.Fatalf("histogram TYPE = %q", types["arbd_server_frame_latency_seconds"])
	}
	if samples[`arbd_server_frame_latency_seconds_count`] != 100 {
		t.Fatalf("summary count = %v, want 100", samples[`arbd_server_frame_latency_seconds_count`])
	}
	// Sum of 1..100 ms = 5.05 s.
	if got := samples[`arbd_server_frame_latency_seconds_sum`]; got < 5.04 || got > 5.06 {
		t.Fatalf("summary sum = %v, want ≈5.05", got)
	}
	for _, q := range []string{"0.5", "0.95", "0.99"} {
		key := `arbd_server_frame_latency_seconds{quantile="` + q + `"}`
		v, ok := samples[key]
		if !ok {
			t.Fatalf("missing quantile sample %s", key)
		}
		if v <= 0 || v > 0.2 {
			t.Fatalf("quantile %s = %v s, outside (0, 0.2]", q, v)
		}
	}
	// Quantiles are monotone.
	p50 := samples[`arbd_server_frame_latency_seconds{quantile="0.5"}`]
	p99 := samples[`arbd_server_frame_latency_seconds{quantile="0.99"}`]
	if p50 > p99 {
		t.Fatalf("p50 %v > p99 %v", p50, p99)
	}
}

// scrapeRegistry is a registry shaped like a shard's: 25 instruments of all
// three kinds, with names that need sanitizing.
func scrapeRegistry() *metrics.Registry {
	reg := metrics.NewRegistry()
	for i := 0; i < 15; i++ {
		reg.Counter("server.frames.done-" + strconv.Itoa(i)).Add(int64(i * 1000))
	}
	for i := 0; i < 5; i++ {
		reg.Gauge("core.load/backlog." + strconv.Itoa(i)).Set(float64(i) + 0.25)
	}
	for i := 0; i < 5; i++ {
		h := reg.Histogram("server.frame.latency." + strconv.Itoa(i))
		for k := 1; k <= 100; k++ {
			h.Observe(time.Duration(k*(i+1)) * time.Microsecond)
		}
	}
	return reg
}

// writePrometheusReference is the exposition as it was first written, line
// by line with string concatenation; WritePrometheus must match it byte for
// byte.
func writePrometheusReference(reg *metrics.Registry) string {
	seconds := func(d time.Duration) string { return strconv.FormatFloat(d.Seconds(), 'g', -1, 64) }
	var b strings.Builder
	for _, in := range reg.Snapshot() {
		name := promName(in.Name)
		switch in.Kind {
		case metrics.KindCounter:
			b.WriteString("# HELP " + name + " Counter " + in.Name + "\n")
			b.WriteString("# TYPE " + name + " counter\n")
			b.WriteString(name + " " + strconv.FormatInt(in.Counter, 10) + "\n")
		case metrics.KindGauge:
			b.WriteString("# HELP " + name + " Gauge " + in.Name + "\n")
			b.WriteString("# TYPE " + name + " gauge\n")
			b.WriteString(name + " " + strconv.FormatFloat(in.Gauge, 'g', -1, 64) + "\n")
		case metrics.KindHistogram:
			name += "_seconds"
			s := in.Hist
			b.WriteString("# HELP " + name + " Latency summary " + in.Name + "\n")
			b.WriteString("# TYPE " + name + " summary\n")
			b.WriteString(name + `{quantile="0.5"} ` + seconds(s.P50) + "\n")
			b.WriteString(name + `{quantile="0.95"} ` + seconds(s.P95) + "\n")
			b.WriteString(name + `{quantile="0.99"} ` + seconds(s.P99) + "\n")
			b.WriteString(name + "_sum " + seconds(s.Sum) + "\n")
			b.WriteString(name + "_count " + strconv.FormatUint(s.Count, 10) + "\n")
		}
	}
	return b.String()
}

// TestWritePrometheusMatchesReference compares the exposition byte for byte
// with the reference encoder, twice, so a reused buffer is covered.
func TestWritePrometheusMatchesReference(t *testing.T) {
	reg := scrapeRegistry()
	want := writePrometheusReference(reg)
	for i := 0; i < 2; i++ {
		var sb strings.Builder
		if err := WritePrometheus(&sb, reg); err != nil {
			t.Fatal(err)
		}
		if got := sb.String(); got != want {
			t.Fatalf("scrape %d differs from the reference:\n%s\nwant:\n%s", i, got, want)
		}
	}
}

// TestWritePrometheusAllocs holds a scrape of a 25-instrument registry to a
// handful of allocations: the registry snapshot, nothing per line.
func TestWritePrometheusAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	reg := scrapeRegistry()
	allocs := testing.AllocsPerRun(100, func() {
		if err := WritePrometheus(io.Discard, reg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Fatalf("a scrape allocates %.1f objects, want <= 10", allocs)
	}
}

// TestWritePrometheusCoversRegistry checks no instrument is skipped: every
// registered name appears in the exposition under its sanitized form.
func TestWritePrometheusCoversRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("a.counter").Inc()
	reg.Gauge("b.gauge").Set(1)
	reg.Histogram("c.hist").Observe(time.Millisecond)
	reg.Counter("server.stream.pushes")
	reg.Gauge("server.stream.pacers")

	var sb strings.Builder
	if err := WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, in := range reg.Snapshot() {
		name := in.Name
		if !strings.Contains(text, promName(name)) {
			t.Fatalf("instrument %q (as %q) missing from exposition:\n%s", name, promName(name), text)
		}
	}
}

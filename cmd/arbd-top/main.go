// Command arbd-top is a live terminal view over one or more arbd-server
// introspection planes (the `-obs` endpoints): per-node frame and push
// rates, shed and drop rates and p99 frame latency, plus the slowest
// recent frames with their stage blame — the flight recorder's answer to
// "where did that frame's time go".
//
// Usage:
//
//	arbd-top -addrs 127.0.0.1:7660                        # one node
//	arbd-top -addrs 127.0.0.1:7660,127.0.0.1:7661,...     # router + shards
//	arbd-top -addrs 127.0.0.1:7660 -interval 2s -slow 10
//	arbd-top -addrs 127.0.0.1:7660 -n 1                   # one snapshot, no clear
//
// It consumes the typed JSON surfaces (/debug/arbd/metrics, /debug/arbd/slow)
// rather than parsing Prometheus text.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"arbd/internal/metrics"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "arbd-top:", err)
		os.Exit(1)
	}
}

// instrument mirrors one entry of /debug/arbd/metrics.
type instrument struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Value  float64 `json:"value"`
	Count  uint64  `json:"count"`
	P99US  float64 `json:"p99_us"`
	MeanUS float64 `json:"mean_us"`
}

type metricsResponse struct {
	Role        string       `json:"role"`
	Node        uint64       `json:"node"`
	Instruments []instrument `json:"instruments"`
}

// trace mirrors one /debug/arbd/slow record.
type trace struct {
	Session     uint64             `json:"session"`
	Seq         uint64             `json:"seq"`
	TotalUS     float64            `json:"total_us"`
	Blame       string             `json:"blame"`
	Spans       map[string]float64 `json:"spans_us"`
	Dropped     bool               `json:"dropped"`
	Shed        bool               `json:"shed"`
	RenderError bool               `json:"render_error"`
}

type slowResponse struct {
	Role        string  `json:"role"`
	Node        uint64  `json:"node"`
	ThresholdUS float64 `json:"threshold_us"`
	Records     []trace `json:"records"`
}

// sample is one scrape of one endpoint, flattened for rate math.
type sample struct {
	at       time.Time
	role     string
	node     uint64
	counters map[string]float64
	p99      map[string]float64 // histogram p99, microseconds
	slow     slowResponse
	err      error
}

func scrape(client *http.Client, addr string, slowN int) sample {
	s := sample{at: time.Now(), counters: map[string]float64{}, p99: map[string]float64{}}
	var mr metricsResponse
	if s.err = getJSON(client, "http://"+addr+"/debug/arbd/metrics", &mr); s.err != nil {
		return s
	}
	s.role, s.node = mr.Role, mr.Node
	for _, in := range mr.Instruments {
		switch in.Kind {
		case "counter":
			s.counters[in.Name] += in.Value
		case "histogram":
			s.p99[in.Name] = in.P99US
		}
	}
	s.err = getJSON(client, fmt.Sprintf("http://%s/debug/arbd/slow?n=%d", addr, slowN), &s.slow)
	return s
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// rate returns the per-second delta of a counter between two samples,
// summing the given names (roles expose different subsets).
func rate(prev, cur sample, names ...string) float64 {
	dt := cur.at.Sub(prev.at).Seconds()
	if dt <= 0 {
		return 0
	}
	var d float64
	for _, n := range names {
		d += cur.counters[n] - prev.counters[n]
	}
	if d < 0 {
		d = 0 // endpoint restarted between scrapes
	}
	return d / dt
}

func run() error {
	var (
		addrs    = flag.String("addrs", "127.0.0.1:7660", "comma-separated obs endpoints (arbd-server -obs addresses)")
		interval = flag.Duration("interval", time.Second, "refresh interval")
		iters    = flag.Int("n", 0, "iterations before exiting (0 = run until interrupted)")
		slowN    = flag.Int("slow", 8, "slow-frame traces to show across all nodes")
	)
	flag.Parse()
	switch {
	case *slowN < 1:
		return fmt.Errorf("-slow %d: want at least 1 trace (the plane refuses fewer)", *slowN)
	case *iters < 0:
		return fmt.Errorf("-n %d: want 0 (run until interrupted) or a positive count", *iters)
	case *interval <= 0:
		return fmt.Errorf("-interval %v: want a positive refresh interval", *interval)
	}
	targets := strings.Split(*addrs, ",")
	for i := range targets {
		targets[i] = strings.TrimSpace(targets[i])
	}
	client := &http.Client{Timeout: 5 * time.Second}

	prev := make([]sample, len(targets))
	for i, a := range targets {
		prev[i] = scrape(client, a, *slowN)
	}
	clear := *iters != 1
	for it := 0; *iters == 0 || it < *iters; it++ {
		time.Sleep(*interval)
		cur := make([]sample, len(targets))
		for i, a := range targets {
			cur[i] = scrape(client, a, *slowN)
		}
		if clear {
			fmt.Print("\x1b[2J\x1b[H")
		}
		render(targets, prev, cur, *slowN)
		prev = cur
	}
	return nil
}

func render(targets []string, prev, cur []sample, slowN int) {
	tbl := metrics.NewTable(fmt.Sprintf("arbd-top  %s", time.Now().Format("15:04:05")),
		"node", "addr", "frames/s", "push/s", "shed/s", "drop/s", "frame p99")
	var slow []trace
	slowNode := map[int]string{}
	for i, a := range targets {
		p, c := prev[i], cur[i]
		if c.err != nil {
			tbl.AddRow("-", a, "-", "-", "-", "-", "-", fmt.Sprintf("unreachable: %v", c.err))
			continue
		}
		node := c.role
		if c.node != 0 {
			node = fmt.Sprintf("%s/%d", c.role, c.node)
		}
		// frames/s: rendered frames where a platform runs; the router renders
		// nothing, so its recorder's settled flights stand in.
		frames := rate(p, c, "server.frames.done")
		if c.role == "router" {
			frames = rate(p, c, "obs.frames.recorded")
		}
		tbl.AddRow(node, a,
			fmt.Sprintf("%.1f", frames),
			fmt.Sprintf("%.1f", rate(p, c, "server.stream.pushes")),
			fmt.Sprintf("%.1f", rate(p, c, "server.frames.shed", "server.stream.shed", "router.frames.shed")),
			fmt.Sprintf("%.1f", rate(p, c, "server.stream.dropped", "router.pushes.dropped")),
			fmt.Sprintf("%.2fms", c.p99["obs.frame.total"]/1000))
		for j := range c.slow.Records {
			slowNode[len(slow)] = node
			slow = append(slow, c.slow.Records[j])
		}
	}
	fmt.Println(tbl.String())

	// The slowest frames across every scraped node, worst first, with the
	// stage that owns the time.
	order := make([]int, len(slow))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return slow[order[a]].TotalUS > slow[order[b]].TotalUS })
	if len(order) > slowN {
		order = order[:slowN]
	}
	st := metrics.NewTable("slow frames (stage blame)",
		"node", "session", "seq", "total", "blame", "admission", "queue", "render", "encode", "outbox", "write", "outcome")
	for _, i := range order {
		r := slow[i]
		outcome := "delivered"
		switch {
		case r.Dropped:
			outcome = "dropped"
		case r.Shed:
			outcome = "shed"
		case r.RenderError:
			outcome = "render error"
		}
		st.AddRow(slowNode[i], r.Session, r.Seq,
			fmt.Sprintf("%.2fms", r.TotalUS/1000), r.Blame,
			ms(r.Spans["admission"]), ms(r.Spans["queue"]), ms(r.Spans["render"]),
			ms(r.Spans["encode"]), ms(r.Spans["outbox"]), ms(r.Spans["write"]), outcome)
	}
	if st.NumRows() > 0 {
		fmt.Println(st.String())
	}
}

func ms(us float64) string { return fmt.Sprintf("%.2f", us/1000) }

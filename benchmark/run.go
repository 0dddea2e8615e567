package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

const (
	warmup = 2 * time.Second
	// Set-ups per run; the median is reported. At least minSetups, then more
	// while they are cheap: a 20 ms set-up is mostly process-spawn noise.
	minSetups    = 5
	maxSetups    = 40
	setupBudget  = 1500 * time.Millisecond
	sampleEvery  = 20 * time.Millisecond // /metrics sampling: 50 Hz
	genLagLimit  = 5.0                   // ms: a later open-loop generator invalidates the run
	drainTimeout = 5 * time.Second
	// strandedAllowance is the share of sent interactions that may fail to
	// come out of the analytics consumer before the run counts as broken.
	strandedAllowance = 0.01
)

// result is what one run of one workload measured.
type result struct {
	Workload string
	Seed     int64
	Seconds  float64

	Correct   bool
	Attempted int64
	Failed    int64
	// Invalid marks a run whose generator, not the servers, limited it.
	Invalid string
	Note    string // first oracle violation, if any
	// Counts breaks Failed, and the frames that were shed or lost rather
	// than failed, down by cause.
	Counts string

	EndToEnd map[string]float64
	// Layer holds the per-layer metrics the multi-process run itself
	// yields (client tails, server counters, generator self-accounting);
	// the traced replay adds the rest.
	Layer map[string]float64
	// Timings states, for each timed quantity, the sample count, the median
	// and the highest percentile the sample supports (milliseconds).
	Timings map[string]summary
	// Budget is the traced run's accounting, ready to print: the frame
	// split into its layers, and a sensor event split into its layers.
	Budget []string

	// Mix of the measured window, for the traced run's derived rows.
	deltaShare float64 // delivered frames that were delta pushes
	gazeShare  float64 // sensor events that became interaction records
	steps      int     // script steps the busiest frame-receiving session consumed
}

// obsSample is one 50 Hz reading of the shards' /metrics pages.
type obsSample struct {
	at       int64 // unix nanos, midpoint of the scrape
	consumed float64
	bad      float64
	backlog  float64
	flushP99 float64 // seconds
	took     time.Duration
}

// sampler polls every shard's /metrics on a fixed period until stopped.
type sampler struct {
	hc      *http.Client
	shards  []string
	samples []obsSample
	errs    int
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
}

func startSampler(shards []*serverProc) *sampler {
	s := &sampler{hc: &http.Client{Timeout: 2 * time.Second}, stop: make(chan struct{}), done: make(chan struct{})}
	for _, p := range shards {
		s.shards = append(s.shards, p.obs)
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if smp, err := s.read(); err != nil {
					s.errs++
				} else {
					s.samples = append(s.samples, smp)
				}
			}
		}
	}()
	return s
}

// read scrapes every shard once and folds the pages into one sample.
func (s *sampler) read() (obsSample, error) {
	var smp obsSample
	t0 := time.Now()
	for _, addr := range s.shards {
		m, err := scrape(s.hc, addr)
		if err != nil {
			return smp, err
		}
		smp.consumed += m["arbd_core_interactions_consumed"]
		smp.bad += m["arbd_core_interactions_bad"]
		smp.backlog += m["arbd_core_load_backlog"]
		smp.flushP99 = math.Max(smp.flushP99, m["arbd_core_load_flush_p99_seconds"])
	}
	smp.took = time.Since(t0)
	smp.at = t0.Add(smp.took / 2).UnixNano()
	return smp, nil
}

// close stops the sampler and waits for it. Idempotent.
func (s *sampler) close() {
	s.once.Do(func() {
		close(s.stop)
		<-s.done
		s.hc.CloseIdleConnections()
	})
}

// edge is the state read at each end of the measured window.
type edge struct {
	at        time.Time
	serverCPU time.Duration
	selfCPU   time.Duration
	rx        int64
	events    int64
	counters  map[string]float64 // /metrics of every process, summed
}

func readEdge(c *cluster, g *generator, hc *http.Client) (edge, error) {
	e := edge{at: time.Now(), selfCPU: selfCPU(), rx: g.rxBytes(), events: g.eventsSent.Load(),
		counters: map[string]float64{}}
	var err error
	if e.serverCPU, err = c.cpu(); err != nil {
		return e, err
	}
	for _, p := range c.procs {
		m, err := scrape(hc, p.obs)
		if err != nil {
			return e, fmt.Errorf("%s: %w", p.name, err)
		}
		for k, v := range m {
			e.counters[k] += v
		}
	}
	return e, nil
}

// readings is what a run read around its measured window and after the drain.
type readings struct {
	setups        []float64 // seconds per set-up round
	before, after edge
	rssMB         float64
	drained       obsSample // the shards once the analytics consumer stood still
}

// runWorkload runs one workload once against fresh server processes and
// returns what it measured. Every process and goroutine it starts has ended
// when it returns.
func runWorkload(ctx context.Context, serverBin string, w *workload, sc *script, seconds float64) (*result, error) {
	orc := newOracle(w.World)
	defer startKeepAwake(ctx)()

	// Set-up, several times over: spawn → listeners up → handshake → first
	// frame on every session. The last one is kept and measured.
	var (
		win readings
		c   *cluster
		g   *generator
	)
	for begin, round, last := time.Now(), 0, false; !last; round++ {
		last = round+1 >= maxSetups || (round+1 >= minSetups && time.Since(begin) >= setupBudget)
		t0 := time.Now()
		var err error
		if c, err = startCluster(ctx, serverBin, w.World, w.Routed); err != nil {
			return nil, err
		}
		if g, err = newGenerator(w, sc, orc, c.front.addr); err == nil {
			err = g.establish(20 * time.Second)
		}
		if err != nil {
			if g != nil {
				g.close()
			}
			c.stop()
			return nil, fmt.Errorf("%s set-up: %w", w.Name, err)
		}
		win.setups = append(win.setups, time.Since(t0).Seconds())
		if !last {
			g.close()
			c.stop()
		}
	}
	// Deferred in the order an early return needs: sends stop, the sampler
	// stops, connections close, servers are reaped.
	defer c.stop()
	defer g.close()
	hc := &http.Client{Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	smp := startSampler(c.shards)
	defer smp.close()
	g.startSchedule()

	if err := sleepCtx(ctx, warmup); err != nil {
		return nil, err
	}
	var err error
	if win.before, err = readEdge(c, g, hc); err != nil {
		return nil, err
	}
	g.winStart.Store(win.before.at.UnixNano())
	if err := sleepCtx(ctx, time.Duration(seconds*float64(time.Second))); err != nil {
		return nil, err
	}
	g.winEnd.Store(time.Now().UnixNano())
	if win.after, err = readEdge(c, g, hc); err != nil {
		return nil, err
	}
	if win.rssMB, err = c.peakRSSMB(); err != nil {
		return nil, err
	}

	// Drain: no new sends; every interaction sent since the processes
	// started must come out of the analytics consumer, none malformed.
	g.quiesce()
	if win.drained, err = awaitDrain(smp, len(g.sentAt)); err != nil {
		return nil, err
	}
	smp.close()
	g.close()
	return g.report(&win, smp), nil
}

// awaitDrain samples the shards until every sent interaction has been
// consumed, or the consumed count has stood still for half a second — ten
// times the telemetry batcher's flush delay, so nothing more is coming.
func awaitDrain(smp *sampler, sent int) (obsSample, error) {
	var last obsSample
	still := time.Now()
	for deadline := time.Now().Add(drainTimeout); ; {
		cur, err := smp.read()
		if err != nil {
			return cur, fmt.Errorf("drain scrape: %w", err)
		}
		if cur.consumed != last.consumed {
			still = time.Now()
		}
		last = cur
		if int(last.consumed) >= sent || time.Since(still) > 500*time.Millisecond || time.Now().After(deadline) {
			return last, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	select {
	case <-time.After(d):
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// report turns the raw window readings into named metrics.
func (g *generator) report(win *readings, smp *sampler) *result {
	w, before, after := g.w, win.before, win.after
	window := after.at.Sub(before.at).Seconds()
	delta := func(name string) float64 { return after.counters[name] - before.counters[name] }

	rec := g.merged()
	sent, last := len(g.sentAt), win.drained
	if last.bad != 0 {
		rec.violate("%d malformed interaction records", int(last.bad))
	}
	// Telemetry that never came out of the consumer. At the seed commit a
	// small share is stranded by a defect in internal/mq (README, known
	// gaps), so up to strandedAllowance is reported as mq.stranded_records
	// rather than failing the run; anything beyond is a broken pipeline.
	stranded := int64(math.Abs(float64(sent) - last.consumed))
	var telemetryLost int64
	if float64(stranded) > strandedAllowance*float64(sent) {
		rec.violate("%d interactions sent, %d consumed after drain (backlog %d)", sent, int(last.consumed), int(last.backlog))
		telemetryLost = stranded
	}

	// Frames due and on time. Polled: every request that completed in the
	// window was due. Streamed: one frame per interval per session — or
	// what was received, if the server pushed more.
	due, onTime := rec.pollDone+g.pollMissed, rec.pollOnTime
	for _, s := range g.sessions {
		if s.role != roleStream {
			continue
		}
		d := int64(math.Round(window / s.interval.Seconds()))
		due += max(d, s.recv)
		onTime += s.onTime
	}
	frames := float64(rec.frames)
	events := float64(after.events - before.events)
	cpuUS := float64(after.serverCPU-before.serverCPU) / float64(time.Microsecond)
	genCPUUS := float64(after.selfCPU-before.selfCPU) / float64(time.Microsecond)

	// Context staleness: at each in-window sample, how old is the newest
	// interaction the analytics consumer has taken in?
	var stale, scrapeMS, backlog []float64
	consumedScale := 1.0
	if last.consumed > 0 {
		consumedScale = float64(sent) / last.consumed
	}
	for _, s := range smp.samples {
		if s.at < before.at.UnixNano() || s.at >= after.at.UnixNano() {
			continue
		}
		scrapeMS = append(scrapeMS, float64(s.took)/1e6)
		backlog = append(backlog, s.backlog)
		// The consumed counter runs low by the records the mq defect
		// skips; rescale by the final sent/consumed ratio so the drift
		// does not read as staleness.
		n := int(math.Round(s.consumed * consumedScale))
		if n < 1 {
			continue
		}
		stale = append(stale, float64(s.at-g.sentAt[min(n, len(g.sentAt))-1])/1e6)
	}
	backlog = append(backlog, rec.backlog...)
	staleSum := summarize(stale)
	rtt := summarize(rec.rttMS)

	// server.frames.shed counts every job the scheduler shed, a stream's
	// included (server.stream.shed is a subset of it).
	shed := delta("arbd_server_frames_shed") + delta("arbd_router_frames_shed")
	dropped := delta("arbd_server_stream_dropped") + delta("arbd_router_pushes_dropped")
	// Failed operations are those whose outcome is wrong whenever it arrives:
	// an error reply, an oracle violation, a telemetry record lost. They fail
	// the run. A frame the servers shed at the admission deadline, or dropped
	// from a full outbox (a seq gap at the client), is the servers' designed
	// answer to running late — on a shared box a neighbour's time slice is
	// enough — so it is a miss in on_time_share, which has a bound, and
	// counts into the per-layer failed_share, which has none.
	if rec.errs > 0 && rec.firstViolation == "" {
		rec.firstViolation = fmt.Sprintf("%d frame requests answered with an error", rec.errs)
	}
	failed := rec.errs + rec.violations + telemetryLost
	untimely := rec.lost + int64(shed)
	attempted := due + int64(events)

	res := &result{
		Workload: w.Name, Seed: g.sc.Seed, Seconds: window,
		Correct: failed == 0, Attempted: attempted, Failed: failed, Note: rec.firstViolation,
		Counts: fmt.Sprintf("failed: %d error replies, %d oracle violations, %d telemetry records lost; untimely: %d frames shed, %d pushes lost to a seq gap",
			rec.errs, rec.violations, telemetryLost, int64(shed), rec.lost),
		EndToEnd: map[string]float64{
			"setup_s":                  median(win.setups),
			"frames_per_s":             frames / window,
			"on_time_share":            float64(onTime) / float64(max(due, 1)),
			"bytes_per_frame":          float64(after.rx-before.rx) / math.Max(frames, 1),
			"server_cpu_us_per_frame":  cpuUS / math.Max(frames, 1),
			"server_cpu_us_per_event":  cpuUS / math.Max(events, 1),
			"server_rss_mb":            win.rssMB,
			"sensor_events_per_s":      events / window,
			"context_staleness_p50_ms": staleSum.P50,
			"context_staleness_p95_ms": percentile(sortedCopy(stale), 95),
		},
		Timings: map[string]summary{"rtt": rtt, "staleness": staleSum, "gap": summarize(rec.gapMS)},
	}

	var interactions int
	for _, d := range g.sentAt {
		if d >= before.at.UnixNano() && d < after.at.UnixNano() {
			interactions++
		}
	}
	for _, s := range g.sessions {
		if s.role != roleFlood {
			res.steps = max(res.steps, s.step)
		}
	}
	res.deltaShare = float64(rec.deltaPushes) / math.Max(frames, 1)
	res.gazeShare = float64(interactions) / math.Max(events, 1)

	lag := make([]float64, len(g.lagMS))
	for i, v := range g.lagMS {
		lag[i] = float64(v)
	}
	sort.Float64s(lag)
	res.Layer = map[string]float64{
		"failed_share":           float64(failed+untimely) / float64(max(attempted, 1)),
		"client.rtt_p50_ms":      rtt.P50,
		"client.rtt_p99_ms":      percentile(sortedCopy(rec.rttMS), 99),
		"client.gap_p99_ms":      percentile(sortedCopy(rec.gapMS), 99),
		"client.jitter_p99_ms":   percentile(sortedCopy(rec.jitterMS), 99),
		"gen.lag_p99_ms":         percentile(lag, 99),
		"gen.cpu_share":          genCPUUS / math.Max(genCPUUS+cpuUS, 1),
		"obs.scrape_ms":          median(scrapeMS),
		"server.frames_shed":     shed,
		"server.pushes_dropped":  dropped,
		"server.pacers":          after.counters["arbd_server_stream_pacers"],
		"obs.frames_dropped":     delta("arbd_obs_frames_dropped"),
		"mq.backlog_p95_records": percentile(sortedCopy(backlog), 95),
		"server.flush_latency_p99_us": math.Max(after.counters["arbd_core_load_flush_p99_seconds"]*1e6,
			float64(rec.flushP99)/float64(time.Microsecond)),
		"mq.stranded_records": float64(stranded),
		// Session.Frame as the servers' own histogram timed it, mean.
		"core.frame_us_in_server": 1e6 * delta("arbd_core_frame_latency_seconds_sum") /
			math.Max(delta("arbd_core_frame_latency_seconds_count"), 1),
		"core.keyframe_share": float64(rec.keyframes) / float64(max(rec.keyframes+rec.deltaPushes, 1)),
	}
	switch {
	case w.Poll == 0 && res.Layer["gen.lag_p99_ms"] > genLagLimit:
		// Only where the open-loop schedule is the offered load: beside a
		// saturating closed loop the scheduler waits a time slice like
		// everyone else, and only the background interactions shift.
		res.Invalid = fmt.Sprintf("generator ran late: open-loop send lag p99 %.2f ms > %.0f ms",
			res.Layer["gen.lag_p99_ms"], genLagLimit)
	case res.Layer["gen.cpu_share"] > 0.5:
		res.Invalid = fmt.Sprintf("the generator was the busy side: %.0f%% of all CPU", 100*res.Layer["gen.cpu_share"])
	}
	return res
}

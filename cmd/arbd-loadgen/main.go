// Command arbd-loadgen drives an arbd-server with simulated devices:
// each client walks the city, streams GPS/IMU at device rates, and pulls
// overlay frames either by polling (request/reply, the default) or by a
// subscription (-stream: the server owns the frame clock and
// pushes at the target FPS). The target may be a standalone server or a
// router fronting shard nodes — the client protocol is identical, so
// pointing -addr at a router exercises the full multi-node forward path
// (router sheds count as shed, not as errors).
//
// Usage:
//
//	arbd-loadgen -addr 127.0.0.1:7600 -clients 16 -duration 10s -fps 10
//	arbd-loadgen -addr 127.0.0.1:7600 -clients 16 -stream
//	arbd-loadgen -addr 127.0.0.1:7600 -stream -clients 64 \
//	    -churn 3s -admin 127.0.0.1:7650 -churn-shard 2=127.0.0.1:7702
//	arbd-loadgen -addr 127.0.0.1:7600 -stream -obs-scrape 127.0.0.1:7660
//
// With -obs-scrape pointed at the server's -obs introspection endpoint, the
// run also samples the server-side /metrics frame counters before and after
// the run and reports the server's frames/s next to the rate the
// clients observed — the quickest way to see whether a throughput gap is
// loss in flight (outbox drops, shed pushes) or the server not producing.
//
// In -stream mode the latency line reports inter-frame gaps (the cadence
// the device actually experienced) instead of request round-trips, plus the
// received wire bytes per pushed frame — the number protocol v4's delta
// encoding shrinks.
//
// With -churn (router targets only), the load generator also exercises
// dynamic membership while it drives traffic: every -churn interval it
// drains the -churn-shard via the router's -admin endpoint, waits one
// interval, and joins it back — so the run measures frame delivery
// through live shard leave/join cycles. Client errors still fail the run:
// churn must be invisible to devices.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arbd/internal/geo"
	"arbd/internal/metrics"
	"arbd/internal/sensor"
	"arbd/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "arbd-loadgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr       = flag.String("addr", "127.0.0.1:7600", "server address")
		clients    = flag.Int("clients", 8, "concurrent simulated devices")
		duration   = flag.Duration("duration", 10*time.Second, "run length")
		fps        = flag.Int("fps", 10, "frame requests per second per client")
		stream     = flag.Bool("stream", false, "subscribe to pushed frames instead of polling")
		churn      = flag.Duration("churn", 0, "drain/rejoin the -churn-shard on this interval while driving load (needs -admin)")
		adminAddr  = flag.String("admin", "", "router admin endpoint for -churn")
		churnShard = flag.String("churn-shard", "", "shard to cycle during -churn, as id=host:port")
		obsScrape  = flag.String("obs-scrape", "", "server obs endpoint (arbd-server -obs) to sample /metrics across the run")
	)
	flag.Parse()
	// A run that drives no load must not report success.
	switch {
	case *fps < 1:
		return fmt.Errorf("-fps %d: want at least 1 frame per second per client", *fps)
	case *clients < 1:
		return fmt.Errorf("-clients %d: want at least 1 client", *clients)
	case *duration <= 0:
		return fmt.Errorf("-duration %v: want a positive run length", *duration)
	}

	if *churn > 0 {
		stopChurn, err := startChurn(*adminAddr, *churnShard, *churn)
		if err != nil {
			return err
		}
		defer stopChurn()
	}
	metric := "frame rtt"
	if *stream {
		metric = "frame gap"
	}
	before, okBefore := scrapeObs(*obsScrape)
	res := runLoad(*addr, *clients, *duration, *fps, *stream)
	after, okAfter := scrapeObs(*obsScrape)
	s := res.hist.Snapshot()
	fmt.Printf("clients=%d duration=%v fps=%d stream=%v\n", *clients, *duration, *fps, *stream)
	fmt.Printf("frames=%d shed=%d errors=%d\n", res.frames, res.shed, res.errors)
	if *stream && res.frames > 0 {
		fmt.Printf("rx bytes/frame=%.0f\n", float64(res.rxBytes)/float64(res.frames))
	}
	fmt.Printf("%s: p50=%v p95=%v p99=%v max=%v\n", metric, s.P50, s.P95, s.P99, s.Max)
	if okBefore && okAfter {
		// Two views of the same run: what devices saw arrive vs what the
		// server's own counters say it produced. A gap points at loss
		// between render and the device (outbox drops, shed pushes).
		fmt.Printf("frames/s: client=%.1f server=%.1f (scraped %s)\n",
			float64(res.frames)/res.elapsed.Seconds(),
			(after-before)/res.elapsed.Seconds(), *obsScrape)
	}
	if res.errors > 0 {
		return fmt.Errorf("%d client errors", res.errors)
	}
	return nil
}

// startChurn runs the membership churn loop in the background: drain the
// shard, wait one interval, join it back, wait, repeat. Returned stop
// leaves the membership as found (rejoining the shard if the loop stopped
// mid-drain).
func startChurn(adminAddr, shard string, interval time.Duration) (stop func(), err error) {
	if adminAddr == "" || shard == "" {
		return nil, fmt.Errorf("-churn needs both -admin and -churn-shard (id=host:port)")
	}
	idStr, addr, ok := strings.Cut(strings.TrimSpace(shard), "=")
	if !ok {
		return nil, fmt.Errorf("bad -churn-shard %q, want id=host:port", shard)
	}
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("bad -churn-shard id %q: %w", idStr, err)
	}
	ac, err := server.DialAdmin(adminAddr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if _, err := ac.Membership(); err != nil {
		ac.Close()
		return nil, fmt.Errorf("querying membership at %s: %w", adminAddr, err)
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		out := false // whether the shard is currently drained out
		cycle := func() bool {
			select {
			case <-done:
				return false
			case <-time.After(interval):
			}
			var err error
			if out {
				_, err = ac.Join(server.Member{ID: id, Addr: addr})
			} else {
				_, err = ac.Drain(id)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "arbd-loadgen: churn (drained=%v): %v\n", out, err)
				return false
			}
			out = !out
			fmt.Fprintf(os.Stderr, "arbd-loadgen: churn: shard %d drained=%v\n", id, out)
			return true
		}
		for cycle() {
		}
		if out {
			if _, err := ac.Join(server.Member{ID: id, Addr: addr}); err != nil {
				fmt.Fprintf(os.Stderr, "arbd-loadgen: churn: restoring shard %d: %v\n", id, err)
			}
		}
	}()
	return func() {
		close(done)
		<-finished
		ac.Close()
	}, nil
}

// scrapeObs samples the obs endpoint's delivered-frame counter, reporting
// failures to stderr instead of failing the run: a flaky scrape should not
// sink a load test.
func scrapeObs(addr string) (float64, bool) {
	if addr == "" {
		return 0, false
	}
	v, err := obsFrames(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "arbd-loadgen: obs scrape %s: %v\n", addr, err)
		return 0, false
	}
	return v, true
}

// obsFrames GETs the plane's Prometheus /metrics and returns the server's
// cumulative delivered-frame counter: arbd_server_frames_done where a
// platform renders, falling back to arbd_obs_frames_recorded on routers
// (which render nothing but settle one flight per forwarded push).
func obsFrames(addr string) (float64, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s /metrics: HTTP %d", addr, resp.StatusCode)
	}
	var done, recorded float64
	haveDone := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		switch name {
		case "arbd_server_frames_done":
			done, haveDone = v, true
		case "arbd_obs_frames_recorded":
			recorded = v
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if haveDone {
		return done, nil
	}
	return recorded, nil
}

type loadResult struct {
	frames  int64
	shed    int64
	errors  int64
	rxBytes int64         // wire bytes received across all streaming clients
	elapsed time.Duration // measured wall time, including connection setup
	hist    *metrics.Histogram
}

// runLoad drives n concurrent device clients against the server for the
// given duration and aggregates end-to-end frame stats. In streaming mode
// each client subscribes once at the target FPS and consumes pushed
// frames while its sensor loop keeps feeding the walk; the histogram then
// holds inter-frame gaps rather than request round-trips, and every
// connection is wrapped in a byte counter so the run reports received
// wire bytes per pushed frame.
func runLoad(addr string, n int, duration time.Duration, fps int, streaming bool) loadResult {
	var (
		hist    metrics.Histogram
		frames  metrics.Counter
		shedCtr metrics.Counter
		errsCtr metrics.Counter
		rxBytes atomic.Int64
		wg      sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(duration)
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var cl *server.Client
			var err error
			if streaming {
				cl, err = dialCounted(addr, &rxBytes)
			} else {
				cl, err = server.Dial(addr)
			}
			if err != nil {
				errsCtr.Inc()
				return
			}
			defer cl.Close()
			walker := sensor.NewWalker(sensor.WalkerConfig{Center: geo.CityCenter, RadiusM: 800, Seed: int64(c)})
			gps := sensor.NewGPS(int64(c), 5)
			imu := sensor.NewIMU(int64(c))
			tick := time.Second / time.Duration(fps)
			if streaming {
				if streamClient(cl, walker, gps, imu, tick, fps, deadline, &hist, &frames) != nil {
					errsCtr.Inc()
				}
				return
			}
			i := 0
			for time.Now().Before(deadline) {
				now := time.Now()
				truth := walker.Step(tick)
				if i%fps == 0 { // GPS at 1 Hz
					if err := cl.SendGPS(gps.Fix(now, truth.Position)); err != nil {
						errsCtr.Inc()
						return
					}
				}
				if err := cl.SendIMU(imu.Sample(now, truth, tick)); err != nil {
					errsCtr.Inc()
					return
				}
				_, rtt, err := cl.RequestFrame()
				switch {
				case err == nil:
					hist.Observe(rtt)
					frames.Inc()
				case strings.Contains(err.Error(), server.ErrFrameShed.Error()):
					// Overload shedding is the server protecting itself,
					// not a client failure: count it and keep driving load.
					// Matched against the exported error text so a rewording
					// breaks the build-time reference, not this classifier.
					shedCtr.Inc()
				default:
					errsCtr.Inc()
					return
				}
				i++
				if rem := tick - time.Since(now); rem > 0 {
					time.Sleep(rem)
				}
			}
		}(c)
	}
	wg.Wait()
	return loadResult{
		frames:  frames.Value(),
		shed:    shedCtr.Value(),
		errors:  errsCtr.Value(),
		rxBytes: rxBytes.Load(),
		elapsed: time.Since(start),
		hist:    &hist,
	}
}

// dialCounted dials like server.Dial but wraps the connection in a byte
// counter so -stream runs can report received wire bytes per pushed frame.
func dialCounted(addr string, rx *atomic.Int64) (*server.Client, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return server.NewClient(context.Background(), &countingConn{Conn: raw, rx: rx}, server.DialOptions{})
}

// countingConn counts bytes read off the wire.
type countingConn struct {
	net.Conn
	rx *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rx.Add(int64(n))
	return n, err
}

// streamClient is one device in -stream mode: subscribe once, then consume
// pushes while the sensor loop ticks. Server-side shedding and cadence
// degradation show up as stretched gaps, not errors.
func streamClient(cl *server.Client, walker *sensor.Walker, gps *sensor.GPS, imu *sensor.IMU,
	tick time.Duration, fps int, deadline time.Time, hist *metrics.Histogram, frames *metrics.Counter) error {
	truth := walker.Step(tick)
	if err := cl.SendGPS(gps.Fix(time.Now(), truth.Position)); err != nil {
		return err
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()
	ch, err := cl.Subscribe(ctx, server.SubscribeOptions{Interval: tick})
	if err != nil {
		return err
	}
	sensors := time.NewTicker(tick)
	defer sensors.Stop()
	last := time.Time{}
	i := 0
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				// Channel closed: clean when the deadline cancelled the
				// context, an error otherwise.
				if time.Now().Before(deadline) {
					if serr := cl.StreamErr(); serr != nil {
						return serr
					}
				}
				return nil
			}
			now := time.Now()
			if !last.IsZero() {
				hist.Observe(now.Sub(last))
			}
			last = now
			frames.Inc()
		case now := <-sensors.C:
			if !now.Before(deadline) {
				return nil
			}
			truth = walker.Step(tick)
			if i%fps == 0 {
				if err := cl.SendGPS(gps.Fix(now, truth.Position)); err != nil {
					return err
				}
			}
			if err := cl.SendIMU(imu.Sample(now, truth, tick)); err != nil {
				return err
			}
			i++
		}
	}
}

package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"arbd/internal/geo"
)

// world is the synthetic city a shard is started on. The city seed is fixed:
// the city is server configuration, not workload input, and holding it still
// keeps per-frame cost from moving with --seed.
type world struct {
	POIs    int
	RadiusM float64
}

const (
	worldSeed = 1
	cityLat   = 22.3364
	cityLon   = 114.2655
)

// cityConfig is the city exactly as cmd/arbd-server builds it from the
// flags a shard is started with.
func (w world) cityConfig() geo.CityConfig {
	return geo.CityConfig{Center: geo.Point{Lat: cityLat, Lon: cityLon}, RadiusM: w.RadiusM,
		NumPOIs: w.POIs, TallRatio: 0.2, Seed: worldSeed}
}

var (
	// dense: ~1,400 POIs inside a 250 m query at the centre, so the
	// geospatial query and layout dominate a frame.
	denseWorld = world{POIs: 5000, RadiusM: 3000}
	// sparse: a frame is cheap, so serving, wire and ingest costs show.
	sparseWorld = world{POIs: 80, RadiusM: 2000}
)

// serverProc is one launched arbd-server process.
type serverProc struct {
	name string
	cmd  *exec.Cmd
	addr string // protocol listener
	obs  string // introspection plane

	mu   sync.Mutex
	tail []string // last stderr lines, for diagnostics
	done chan struct{}
	err  error
}

var (
	listenRE = regexp.MustCompile(`listening on (\S+)`)
	obsRE    = regexp.MustCompile(`obs on http://([^/\s]+)/`)
)

// startServer launches the server binary with loopback listeners on free
// ports and waits until it has logged both bound addresses. The process dies
// with the benchmark (Pdeathsig) even if the benchmark is killed outright.
func startServer(ctx context.Context, bin, name string, args ...string) (*serverProc, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-obs", "127.0.0.1:0"}, args...)
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env = append(cmd.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &serverProc{name: name, cmd: cmd, done: make(chan struct{})}
	ready := make(chan struct{})
	go p.readLog(stderr, ready)
	select {
	case <-ready:
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening: %v\n%s", name, p.err, p.logTail())
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not listen within 30s\n%s", name, p.logTail())
	case <-ctx.Done():
		p.stop()
		return nil, ctx.Err()
	}
}

// readLog drains the server's stderr for the life of the process, picking
// the bound addresses out of its start-up lines, then reaps the process.
func (p *serverProc) readLog(r io.Reader, ready chan<- struct{}) {
	sc := bufio.NewScanner(r)
	announced := false
	for sc.Scan() {
		line := sc.Text()
		p.mu.Lock()
		if len(p.tail) == 20 {
			p.tail = p.tail[1:]
		}
		p.tail = append(p.tail, line)
		p.mu.Unlock()
		if announced {
			continue
		}
		if m := obsRE.FindStringSubmatch(line); m != nil {
			p.obs = m[1]
		} else if m := listenRE.FindStringSubmatch(line); m != nil {
			// The role's "listening on" line is logged after the obs line.
			p.addr = m[1]
			announced = true
			close(ready)
		}
	}
	p.err = p.cmd.Wait()
	close(p.done)
}

func (p *serverProc) logTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// stop asks the server to shut down, kills it if it lingers, and returns
// only once it has been reaped.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		return
	case <-time.After(3 * time.Second):
	}
	_ = p.cmd.Process.Kill()
	<-p.done
}

// cluster is the set of server processes one workload runs against.
type cluster struct {
	procs  []*serverProc
	shards []*serverProc // the processes that host a platform
	front  *serverProc   // what the generator dials
}

func (c *cluster) stop() {
	// Front first: a router logs reconnect noise if its shards go first.
	for i := len(c.procs) - 1; i >= 0; i-- {
		c.procs[i].stop()
	}
}

func shardArgs(id int, w world) []string {
	return []string{"-role", "shard", "-shard-id", strconv.Itoa(id),
		"-pois", strconv.Itoa(w.POIs), "-radius", strconv.FormatFloat(w.RadiusM, 'f', -1, 64),
		"-seed", strconv.Itoa(worldSeed)}
}

// startCluster launches fresh processes: one shard, or with routed set two
// shards behind a router.
func startCluster(ctx context.Context, bin string, w world, routed bool) (*cluster, error) {
	c := &cluster{}
	nShards := 1
	if routed {
		nShards = 2
	}
	for id := 1; id <= nShards; id++ {
		p, err := startServer(ctx, bin, fmt.Sprintf("shard-%d", id), shardArgs(id, w)...)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.procs = append(c.procs, p)
		c.shards = append(c.shards, p)
	}
	c.front = c.shards[0]
	if routed {
		members := make([]string, len(c.shards))
		for i, s := range c.shards {
			members[i] = fmt.Sprintf("%d=%s", i+1, s.addr)
		}
		p, err := startServer(ctx, bin, "router", "-role", "router", "-shards", strings.Join(members, ","))
		if err != nil {
			c.stop()
			return nil, err
		}
		c.procs = append(c.procs, p)
		c.front = p
	}
	return c, nil
}

// cpu sums user+system CPU time over every server process.
func (c *cluster) cpu() (time.Duration, error) {
	var total time.Duration
	for _, p := range c.procs {
		d, err := procCPU(p.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		total += d
	}
	return total, nil
}

// peakRSSMB sums the processes' peak resident sets.
func (c *cluster) peakRSSMB() (float64, error) {
	var kb uint64
	for _, p := range c.procs {
		v, err := procPeakRSSKB(p.cmd.Process.Pid)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

// Command arbd-server runs the ARBD platform behind a TCP endpoint speaking
// the wire protocol (PROTOCOL.md): every connection opens with the hello
// handshake, then clients stream sensor envelopes and receive overlay frames
// by request/reply or by server-pushed subscription streams. See
// cmd/arbd-loadgen for a matching client (-stream drives the subscription
// path).
//
// Two session-serving roles run the same connection loop over one
// frame-serving engine (internal/server.Engine):
//
//	standalone — client-facing: one session per client connection (default)
//	shard      — backend: owns a partition of the session ID space; a
//	             router's connection multiplexes many sessions
//
// and two more sit in front of them:
//
//	router     — owns client connections; places sessions on shards by a
//	             rendezvous ring and forwards envelopes, shedding a frame
//	             request before the hop once its shard has fallen a whole
//	             admission deadline behind
//	admin      — one-shot control-plane client: join/drain shards against
//	             a router's admin endpoint, or print the membership
//
// Membership is dynamic (protocol v3): a router started with -admin exposes
// a control endpoint; shards join a live router with -join, and draining a
// shard migrates its live sessions (state and streams) to
// the surviving shards before the shard detaches. The endpoint answers
// requests and pushes nothing: a router's -obs plane exports the current
// epoch as the router.membership.epoch gauge. Each membership flag belongs
// to the roles that use it (-shard-id: shard; -shards: router; -admin:
// router, admin; -join: shard, admin; -drain: admin; -advertise: shard
// with -join), and one the role would ignore is refused before anything
// binds, as is -join with -drain on role admin.
//
// Usage:
//
//	arbd-server -addr :7600 -pois 5000 -seed 1
//	arbd-server -role shard -shard-id 1 -addr :7701
//	arbd-server -role shard -shard-id 2 -addr :7702
//	arbd-server -role router -addr :7600 -admin :7650 -shards 1=127.0.0.1:7701,2=127.0.0.1:7702
//
//	# grow the fleet: start a shard that registers itself with the router
//	arbd-server -role shard -shard-id 3 -addr :7703 -join 127.0.0.1:7650
//
//	# drain shard 2 (live sessions migrate off first), then stop it
//	arbd-server -role admin -admin 127.0.0.1:7650 -drain 2
//
//	# inspect the membership epoch
//	arbd-server -role admin -admin 127.0.0.1:7650
//
//	# any serving role: expose the introspection plane (/metrics in
//	# Prometheus text format, /debug/arbd/{sessions,streams,slow}) — the
//	# surface cmd/arbd-top and Prometheus scrape
//	arbd-server -addr :7600 -obs 127.0.0.1:7660
//
//	# any role: expose the profiling endpoints (/debug/pprof/...) that
//	# go tool pprof reads; pointing -pprof at the -obs address folds both
//	# onto one listener
//	arbd-server -addr :7600 -pprof 127.0.0.1:6060
//
// A router process hosts no platform: world flags (-pois, -seed, ...) apply
// to standalone and shard roles. Point arbd-loadgen at a router exactly as
// at a standalone server — the client protocol is identical.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"arbd/internal/core"
	"arbd/internal/geo"
	"arbd/internal/obs"
	"arbd/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "arbd-server:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr      = flag.String("addr", "127.0.0.1:7600", "listen address")
		role      = flag.String("role", "standalone", "server role: standalone | shard | router | admin")
		shardID   = flag.Uint64("shard-id", 1, "this shard's ring member ID (role=shard)")
		shards    = flag.String("shards", "", "initial shard membership for role=router: id=host:port,id=host:port")
		admin     = flag.String("admin", "", "router: membership admin listen address; admin: router admin endpoint to dial")
		join      = flag.String("join", "", "shard: router admin endpoint to register with; admin: shard to add as id=host:port")
		drain     = flag.Uint64("drain", 0, "admin: shard ID to drain and remove")
		advertise = flag.String("advertise", "", "shard: address to announce on -join (default: the bound -addr)")
		seed      = flag.Int64("seed", 1, "world seed")
		pois      = flag.Int("pois", 5000, "synthetic city POI count")
		radius    = flag.Float64("radius", 3000, "city radius, meters")
		pprofAddr = flag.String("pprof", "", "serve the profiling endpoints (/debug/pprof/...) on this address (e.g. 127.0.0.1:6060; empty = off)")
		obsAddr   = flag.String("obs", "", "serve the introspection plane (/metrics, /debug/arbd/*) on this address (empty = off)")
	)
	flag.Parse()
	// A serving role must build the world its flags name: the platform
	// would silently substitute its defaults for a zero count or radius.
	if *role == "standalone" || *role == "shard" {
		switch {
		case *pois < 1:
			return fmt.Errorf("-pois %d: want at least 1 POI", *pois)
		case !(*radius > 0):
			return fmt.Errorf("-radius %v: want a positive city radius", *radius)
		}
	}
	// Member ID 0 names no shard (-drain 0 is "no drain"), so no flag may
	// give a shard that ID.
	if *role == "shard" && *shardID == 0 {
		return fmt.Errorf("-shard-id 0: shard IDs start at 1")
	}
	if err := checkMembershipFlags(*role, *join != "", *drain != 0); err != nil {
		return err
	}

	// Profiling applies to every role — bring it up before the role switch
	// so routers and the one-shot admin client get it too. Its listener
	// serves /debug/pprof/... and nothing else. When -pprof and -obs name
	// the same address, the plane's listener serves both instead of binding
	// twice.
	foldPprof := *pprofAddr != "" && *pprofAddr == *obsAddr
	if *pprofAddr != "" && !foldPprof {
		if err := serveHTTP(*pprofAddr, "pprof", obs.ServePprof); err != nil {
			return err
		}
	}
	// serveObs brings up the role's introspection plane once the role has
	// built it.
	serveObs := func(plane *obs.Plane) error {
		if *obsAddr == "" {
			return nil
		}
		return serveHTTP(*obsAddr, "obs", func(ln net.Listener) error { return plane.Serve(ln, foldPprof) })
	}

	switch *role {
	case "router":
		return runRouter(*addr, *admin, *shards, serveObs)
	case "admin":
		return runAdmin(*admin, *join, *drain)
	}

	platform, err := core.NewPlatform(core.Config{
		Seed: *seed,
		City: geo.CityConfig{
			Center:    geo.CityCenter,
			RadiusM:   *radius,
			NumPOIs:   *pois,
			TallRatio: 0.2,
		},
	})
	if err != nil {
		return err
	}
	if err := platform.Start(); err != nil {
		return err
	}
	defer func() {
		if err := platform.Stop(); err != nil {
			log.Printf("stopping platform: %v", err)
		}
	}()

	switch *role {
	case "standalone":
		srv := server.New(platform, log.Default())
		bound, err := srv.Listen(*addr)
		if err != nil {
			return err
		}
		if err := serveObs(srv.ObsPlane()); err != nil {
			return err
		}
		log.Printf("arbd-server listening on %s (%d POIs, seed %d)", bound, *pois, *seed)
		awaitSignal()
		return srv.Close()
	case "shard":
		sh := server.NewShard(platform, log.Default(), server.ShardOptions{ID: *shardID})
		bound, err := sh.Listen(*addr)
		if err != nil {
			return err
		}
		if err := serveObs(sh.ObsPlane()); err != nil {
			return err
		}
		log.Printf("arbd-server shard %d listening on %s (%d POIs, seed %d)", *shardID, bound, *pois, *seed)
		if *join != "" {
			announce := *advertise
			if announce == "" {
				announce = bound
			}
			epoch, err := registerShard(*join, server.Member{ID: *shardID, Addr: announce})
			if err != nil {
				_ = sh.Close()
				return fmt.Errorf("joining via %s: %w", *join, err)
			}
			log.Printf("arbd-server shard %d joined membership epoch %d (announced %s)",
				*shardID, epoch, announce)
		}
		awaitSignal()
		return sh.Close()
	default:
		return fmt.Errorf("unknown role %q (standalone | shard | router | admin)", *role)
	}
}

func runRouter(addr, adminAddr, shards string, serveObs func(*obs.Plane) error) error {
	members, err := parseMembers(shards)
	if err != nil {
		return fmt.Errorf("-shards: %w", err)
	}
	r, err := server.NewRouter(members, log.Default(), nil, server.RouterOptions{})
	if err != nil {
		return err
	}
	if err := r.Connect(); err != nil {
		return err
	}
	bound, err := r.Listen(addr)
	if err != nil {
		return err
	}
	if err := serveObs(r.ObsPlane()); err != nil {
		return err
	}
	if adminAddr != "" {
		adminBound, err := r.ListenAdmin(adminAddr)
		if err != nil {
			return err
		}
		log.Printf("arbd-server router admin endpoint on %s", adminBound)
	}
	log.Printf("arbd-server router listening on %s (%d shards)", bound, len(members))
	awaitSignal()
	return r.Close()
}

// membershipRoles names the roles each membership flag applies to.
var membershipRoles = map[string][]string{
	"shard-id": {"shard"},
	"shards":   {"router"},
	"admin":    {"router", "admin"},
	"join":     {"shard", "admin"},
	"drain":    {"admin"},
}

// checkMembershipFlags refuses a membership flag the role would ignore —
// a shard given -admin instead of -join would start and never join — and
// the one-shot admin asked to do two changes at once.
func checkMembershipFlags(role string, join, drain bool) error {
	var err error
	flag.Visit(func(f *flag.Flag) {
		roles, ok := membershipRoles[f.Name]
		if err == nil && ok && !slices.Contains(roles, role) {
			err = fmt.Errorf("-%s: applies to role %s, not %s", f.Name, strings.Join(roles, " or "), role)
		}
		if err == nil && f.Name == "advertise" && (role != "shard" || !join) {
			err = fmt.Errorf("-advertise: applies to role shard with -join")
		}
	})
	if err == nil && role == "admin" && join && drain {
		err = fmt.Errorf("-drain: role admin runs one change; -join and -drain are exclusive")
	}
	return err
}

// runAdmin is the one-shot control-plane client: join, drain, or query.
func runAdmin(target, join string, drain uint64) error {
	m, err := parseMember(join)
	if join != "" && err != nil {
		return fmt.Errorf("-join: %w", err)
	}
	if target == "" {
		return fmt.Errorf("role=admin needs -admin (the router's admin endpoint)")
	}
	ac, err := server.DialAdmin(target, 5*time.Second)
	if err != nil {
		return err
	}
	defer ac.Close()
	switch {
	case join != "":
		view, err := ac.Join(m)
		if err != nil {
			return err
		}
		fmt.Printf("joined shard %d; epoch %d, members %s\n", m.ID, view.Epoch, formatMembers(view.Members))
	case drain != 0:
		view, err := ac.Drain(drain)
		if err != nil {
			return err
		}
		fmt.Printf("drained shard %d; epoch %d, members %s\n", drain, view.Epoch, formatMembers(view.Members))
	default:
		view, err := ac.Membership()
		if err != nil {
			return err
		}
		fmt.Printf("epoch %d, members %s\n", view.Epoch, formatMembers(view.Members))
	}
	return nil
}

// registerShard announces a freshly started shard to a router's admin
// endpoint, returning the resulting epoch.
func registerShard(adminAddr string, m server.Member) (uint64, error) {
	ac, err := server.DialAdmin(adminAddr, 5*time.Second)
	if err != nil {
		return 0, err
	}
	defer ac.Close()
	view, err := ac.Join(m)
	if err != nil {
		return 0, err
	}
	return view.Epoch, nil
}

func formatMembers(members []server.Member) string {
	parts := make([]string, 0, len(members))
	for _, m := range members {
		parts = append(parts, fmt.Sprintf("%d=%s", m.ID, m.Addr))
	}
	return strings.Join(parts, ",")
}

// parseMember parses "3=127.0.0.1:7703".
func parseMember(s string) (server.Member, error) {
	id, a, ok := strings.Cut(strings.TrimSpace(s), "=")
	if !ok {
		return server.Member{}, fmt.Errorf("bad shard entry %q, want id=host:port", s)
	}
	n, err := strconv.ParseUint(id, 10, 64)
	if err != nil {
		return server.Member{}, fmt.Errorf("bad shard id in %q: %w", s, err)
	}
	if n == 0 {
		return server.Member{}, fmt.Errorf("bad shard id in %q: shard IDs start at 1", s)
	}
	return server.Member{ID: n, Addr: a}, nil
}

// parseMembers parses "1=127.0.0.1:7701,2=127.0.0.1:7702".
func parseMembers(s string) ([]server.Member, error) {
	if s == "" {
		return nil, fmt.Errorf("role=router needs -shards (id=host:port,...)")
	}
	var members []server.Member
	for _, part := range strings.Split(s, ",") {
		m, err := parseMember(part)
		if err != nil {
			return nil, err
		}
		members = append(members, m)
	}
	return members, nil
}

// serveHTTP binds addr synchronously (a bad address fails startup loudly)
// and runs serve on the listener for the life of the process.
func serveHTTP(addr, what string, serve func(net.Listener) error) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("%s listen: %w", what, err)
	}
	log.Printf("arbd-server %s on http://%s/", what, ln.Addr())
	go func() {
		if err := serve(ln); err != nil {
			log.Printf("%s server: %v", what, err)
		}
	}()
	return nil
}

func awaitSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
}

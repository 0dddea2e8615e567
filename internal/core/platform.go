// Package core implements the paper's primary contribution: the convergence
// platform that feeds AR front-ends from big-data backends. A Platform owns
// the substrates — POI store, incremental analytics, recommender, semantic
// interpreter — and Sessions run the per-frame loop: fuse sensors → query
// geospatial and analytic context → interpret it into semantic tags → lay
// out the AR overlay, all under a frame deadline with graceful degradation
// (§4.1). Interactions are the one telemetry a session produces, folded into
// the analytics inside the sensor call that senses them, so the next frame
// draws them; a GPS fix only moves its tracking.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"arbd/internal/analytics"
	"arbd/internal/arml"
	"arbd/internal/geo"
	"arbd/internal/metrics"
	"arbd/internal/recommend"
	"arbd/internal/render"
	"arbd/internal/sim"
)

// Platform errors.
var (
	ErrStarted    = errors.New("core: platform already started")
	ErrNotStarted = errors.New("core: platform not started")
)

// Config parameterises a Platform.
type Config struct {
	Seed int64
	// City describes the synthetic world; Center must be set.
	City geo.CityConfig

	// Test hooks; zero takes the default named beside each.
	maxAnnotations int       // overlay size cap (defaultMaxAnnotations)
	clock          sim.Clock // times frames (the wall clock)
}

// Frame policy (§4.1).
const (
	// frameDeadline is the per-frame latency budget: 30 fps.
	frameDeadline = 33 * time.Millisecond
	// annotationRadiusM bounds the context query around the user.
	annotationRadiusM = 250.0
	// defaultMaxAnnotations caps the overlay size.
	defaultMaxAnnotations = 20
)

func (c *Config) defaults() {
	if c.maxAnnotations <= 0 {
		c.maxAnnotations = defaultMaxAnnotations
	}
	if c.clock == nil {
		c.clock = sim.RealClock{}
	}
	if c.City.NumPOIs <= 0 {
		c.City.NumPOIs = 2000
	}
	if c.City.RadiusM <= 0 {
		c.City.RadiusM = 3000
	}
}

// Platform is the ARBD convergence system.
type Platform struct {
	cfg  Config
	reg  *metrics.Registry
	pois *geo.Store

	// crowd maintains per-POI interaction aggregates incrementally — the
	// context analytics overlays draw on.
	crowd *analytics.View
	// hot tracks trending POIs with a space-saving sketch. The sketch is
	// single-writer, so hotMu covers every fold's Add against every
	// session's TopK reads, and the key table beside it.
	hot   *analytics.SpaceSaving
	hotMu sync.RWMutex
	// keys holds the poi-<id> analytics key of every POI that has been
	// interacted with, made on its first interaction: the sketch and the
	// view share the one string, and a fold of a known POI allocates
	// nothing. Targets are checked first, so it never outgrows the store.
	keys map[uint64]string
	// consumed counts folded interactions: each is visible to the next
	// frame once it is counted.
	consumed *metrics.Counter

	interp   *arml.Interpreter
	interpMu sync.RWMutex
	rec      recommend.Recommender
	recMu    sync.RWMutex

	// frameLat is resolved once: every Frame call observes it, so none
	// pays a registry lookup.
	frameLat *metrics.Histogram
	// geoReused and geoSeeded count frames whose geo query re-measured
	// the session's kept POI set and frames that walked the R-tree.
	geoReused, geoSeeded *metrics.Counter

	// sessions is the sharded live-session registry; nextSess hands out
	// IDs without touching any lock.
	sessions *sessionRegistry
	nextSess atomic.Uint64
	// occluders is the shared static occluder set: the city never changes,
	// so sessions reference one slice instead of rebuilding it each.
	occluders []render.Occluder

	mu      sync.Mutex
	started bool
}

// NewPlatform builds a platform over a generated synthetic city.
func NewPlatform(cfg Config) (*Platform, error) {
	cfg.defaults()
	// A zero-value center means the config was never filled in; the real
	// (0,0) coordinate is open ocean, so rejecting it loses nothing.
	if !cfg.City.Center.Valid() || cfg.City.Center == (geo.Point{}) {
		return nil, fmt.Errorf("core: city center %v invalid or unset", cfg.City.Center)
	}
	cfg.City.Seed = cfg.Seed
	pois, err := geo.LoadStore(geo.GenerateCity(cfg.City))
	if err != nil {
		return nil, fmt.Errorf("core: loading city: %w", err)
	}
	p := &Platform{
		cfg:      cfg,
		reg:      metrics.NewRegistry(),
		pois:     pois,
		crowd:    analytics.NewView(),
		hot:      analytics.NewSpaceSaving(64),
		keys:     make(map[uint64]string),
		interp:   arml.RetailVocabulary(),
		sessions: newSessionRegistry(defaultRegistryShards),
	}
	p.frameLat = p.reg.Histogram("core.frame.latency")
	p.geoReused = p.reg.Counter("core.geo.reused")
	p.geoSeeded = p.reg.Counter("core.geo.seeded")
	p.consumed = p.reg.Counter("core.interactions.consumed")
	p.occluders = render.OccludersFromPOIs(p.pois.All(), 30)
	return p, nil
}

// POIs exposes the platform's POI store.
func (p *Platform) POIs() *geo.Store { return p.pois }

// Metrics exposes the platform registry.
func (p *Platform) Metrics() *metrics.Registry { return p.reg }

// CrowdView exposes the incrementally-maintained interaction view.
func (p *Platform) CrowdView() *analytics.View { return p.crowd }

// SetRecommender installs the recommendation model sessions consult.
func (p *Platform) SetRecommender(r recommend.Recommender) {
	p.recMu.Lock()
	defer p.recMu.Unlock()
	p.rec = r
}

// SetInterpreter replaces the semantic vocabulary (default: retail).
func (p *Platform) SetInterpreter(in *arml.Interpreter) {
	p.interpMu.Lock()
	defer p.interpMu.Unlock()
	p.interp = in
}

// interpreter returns the current semantic vocabulary.
func (p *Platform) interpreter() *arml.Interpreter {
	p.interpMu.RLock()
	defer p.interpMu.RUnlock()
	return p.interp
}

// Start marks the platform started. It starts no goroutine: every
// interaction is folded into the sketch and the crowd view inside the
// sensor call that records it, started or not. It fails with ErrStarted on
// a second call.
func (p *Platform) Start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return ErrStarted
	}
	p.started = true
	return nil
}

// Stop has nothing to drain or stop: every fold completed inside its sensor
// call. It fails with ErrNotStarted before Start, and returns nil after.
func (p *Platform) Stop() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started {
		return ErrNotStarted
	}
	return nil
}

// WaitAnalyticsIdle returns nil at once: every fold completes before the
// sensor call that made it returns, so the crowd view and the sketch
// already hold every interaction recorded. It is kept for callers that
// wait on it.
func (p *Platform) WaitAnalyticsIdle(time.Duration) error { return nil }

// HotPOIs returns the trending POI keys.
func (p *Platform) HotPOIs(k int) []analytics.HeavyHitter {
	p.hotMu.RLock()
	defer p.hotMu.RUnlock()
	return p.hot.TopK(k)
}

// HotPOIsInto is HotPOIs appending into dst — the frame hot path snapshots
// the sketch into per-session scratch so steady-state frames allocate
// nothing here.
func (p *Platform) HotPOIsInto(dst []analytics.HeavyHitter, k int) []analytics.HeavyHitter {
	p.hotMu.RLock()
	defer p.hotMu.RUnlock()
	return p.hot.TopKInto(dst, k)
}

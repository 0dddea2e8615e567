// Package core implements the paper's primary contribution: the convergence
// platform that feeds AR front-ends from big-data backends. A Platform owns
// the substrates — POI store, message broker, stream analytics, recommender,
// semantic interpreter — and Sessions run the per-frame loop: fuse sensors →
// query geospatial and analytic context → interpret it into semantic tags →
// lay out the AR overlay, all under a frame deadline with graceful
// degradation (§4.1). Interactions are the one telemetry a session
// publishes; a GPS fix only moves its tracking.
package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arbd/internal/analytics"
	"arbd/internal/arml"
	"arbd/internal/geo"
	"arbd/internal/metrics"
	"arbd/internal/mq"
	"arbd/internal/recommend"
	"arbd/internal/render"
	"arbd/internal/sim"
	"arbd/internal/stream"
)

// Platform errors.
var (
	ErrStarted    = errors.New("core: platform already started")
	ErrNotStarted = errors.New("core: platform not started")
)

// TopicInteractions is the platform broker's one topic: the telemetry
// sessions publish. Its consumer group releases what it commits, so the
// topic holds only what the analytics plane has not yet folded.
const TopicInteractions = "telemetry.interactions"

// telemetryPartitions is the partition count of the interaction topic.
const telemetryPartitions = 4

// Config parameterises a Platform.
type Config struct {
	Seed int64
	// City describes the synthetic world; Center must be set.
	City geo.CityConfig

	// Test hooks; zero takes the default named beside each.
	maxAnnotations int       // overlay size cap (defaultMaxAnnotations)
	clock          sim.Clock // times frames and broker records (the wall clock)
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
	cfg    Config
	reg    *metrics.Registry
	pois   *geo.Store
	broker *mq.Broker

	// crowd maintains per-POI interaction aggregates incrementally — the
	// context analytics overlays draw on.
	crowd *analytics.View
	// hot tracks trending POIs with a space-saving sketch; the sketch
	// itself is single-writer, so hotMu covers the consumer's Adds against
	// every session's TopK reads.
	hot   *analytics.SpaceSaving
	hotMu sync.RWMutex

	interp   *arml.Interpreter
	interpMu sync.RWMutex
	rec      recommend.Recommender
	recMu    sync.RWMutex

	pipe *stream.Pipeline
	// interactions is the cached broker handle of the interaction topic:
	// every session publishes through it, skipping the broker's per-call
	// topic lookup.
	interactions *mq.Topic
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
	stopped bool
	group   *mq.Group // analytics consumer group (set at Start)
	cancel  context.CancelFunc
	done    chan struct{}
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
		broker:   mq.NewBroker(mq.WithClock(cfg.clock)),
		crowd:    analytics.NewView(),
		hot:      analytics.NewSpaceSaving(64),
		interp:   arml.RetailVocabulary(),
		sessions: newSessionRegistry(defaultRegistryShards),
	}
	p.frameLat = p.reg.Histogram("core.frame.latency")
	p.geoReused = p.reg.Counter("core.geo.reused")
	p.geoSeeded = p.reg.Counter("core.geo.seeded")
	p.occluders = render.OccludersFromPOIs(p.pois.All(), 30)
	if err := p.broker.CreateTopic(TopicInteractions, mq.TopicConfig{Partitions: telemetryPartitions}); err != nil {
		return nil, err
	}
	if p.interactions, err = p.broker.Topic(TopicInteractions); err != nil {
		return nil, err
	}
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

// Start launches the analytics plane, one goroutine: a consumer group over
// the interaction topic, which folds each record into the crowd pipeline's
// windows inline (a closed window updates the crowd view before the next
// record is folded). Frame serving works without Start, but context tags
// will be empty.
func (p *Platform) Start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return ErrStarted
	}
	p.started = true

	p.pipe = stream.NewPipeline("crowd", stream.WithRegistry(p.reg))
	p.pipe.Source("interactions").
		Window("per-poi-1m", 4, stream.Tumbling(time.Minute), stream.Sum()).
		Sink("crowd-view", func(e stream.Event) {
			p.crowd.Apply(analytics.Row{Group: e.Key, Value: e.Value})
		})
	if err := p.pipe.Start(); err != nil {
		return err
	}

	group, err := p.broker.NewGroup(TopicInteractions)
	if err != nil {
		return err
	}
	p.group = group
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	p.done = make(chan struct{})
	c := &crowdConsumer{
		p:        p,
		keys:     make(map[string]string),
		consumed: p.reg.Counter("core.interactions.consumed"),
		bad:      p.reg.Counter("core.interactions.bad"),
	}
	go func() {
		defer close(p.done)
		_ = group.Consume(ctx, 256, c.handle)
	}()
	return nil
}

// crowdConsumer is the analytics plane's reader of the interaction topic.
// It runs on the one consumer goroutine, so its key table and scratch need
// no lock.
type crowdConsumer struct {
	p *Platform
	// keys interns poi-<id> keys, filled the first time a record names the
	// POI. Only keys of POIs in the store enter it, so it never outgrows
	// the store.
	keys map[string]string
	// batch is the decoded poll, reused across polls so the sketch updates
	// take ONE hotMu acquisition per batch — under sustained ingest,
	// per-record lock traffic on hotMu was contending directly with every
	// frame's TopK reads.
	batch    []decodedInteraction
	consumed *metrics.Counter
	bad      *metrics.Counter
}

type decodedInteraction struct {
	key    string
	weight float64
	at     time.Time
}

// handle folds one polled batch into the trending sketch and the crowd
// pipeline.
//
//arbd:hotpath
func (c *crowdConsumer) handle(recs []mq.Record) error {
	c.batch = c.batch[:0]
	for i := range recs {
		key, weight, err := decodeInteraction(recs[i].Value)
		if err != nil {
			c.bad.Inc()
			continue
		}
		c.batch = append(c.batch, decodedInteraction{key: c.intern(key), weight: weight, at: recs[i].Time})
	}
	p := c.p
	if len(c.batch) > 0 {
		p.hotMu.Lock()
		for i := range c.batch {
			p.hot.Add(c.batch[i].key)
		}
		p.hotMu.Unlock()
	}
	for i := range c.batch {
		d := &c.batch[i]
		if err := p.pipe.Push("interactions", stream.Event{Key: d.key, Time: d.at, Value: d.weight}); err != nil {
			return err
		}
	}
	c.consumed.Add(int64(len(recs)))
	return nil
}

// intern returns the string form of a record's key, from the key table when
// the key names a POI it has seen.
//
//arbd:hotpath
func (c *crowdConsumer) intern(key []byte) string {
	//arbd:alloc-ok a map index by string(bytes) is compiled to a lookup that copies nothing
	if s, ok := c.keys[string(key)]; ok {
		return s
	}
	return c.internMiss(key)
}

// internMiss copies a key the table does not hold, and enters it when it
// is the poi-<id> key of a POI of the store. Any other key — a record
// imported with a session snapshot from a node that did not check its
// targets — is copied and forgotten.
func (c *crowdConsumer) internMiss(key []byte) string {
	s := string(key)
	id, err := strconv.ParseUint(strings.TrimPrefix(s, poiKeyPrefix), 10, 64)
	if err == nil && string(appendPOIKey(nil, id)) == s && c.p.checkTarget(id) == nil {
		c.keys[s] = s
	}
	return s
}

// Stop drains the analytics plane. Safe to call once after Start.
func (p *Platform) Stop() error {
	p.mu.Lock()
	if !p.started {
		p.mu.Unlock()
		return ErrNotStarted
	}
	if p.stopped {
		p.mu.Unlock()
		return nil
	}
	p.stopped = true
	p.mu.Unlock()
	p.cancel()
	<-p.done
	return p.pipe.Drain()
}

// WaitAnalyticsIdle blocks until the consumer has caught up with the
// interaction topic: every record consumed is in its window state, and
// every window it closed is in the crowd view (used by tests and examples
// for determinism).
func (p *Platform) WaitAnalyticsIdle(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	consumedCtr := p.reg.Counter("core.interactions.consumed")
	for {
		lag := int64(0)
		for pi := 0; pi < telemetryPartitions; pi++ {
			_, newest, err := p.interactions.Offsets(pi)
			if err != nil {
				return err
			}
			lag += newest
		}
		consumed := consumedCtr.Value()
		if consumed >= lag {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("core: analytics still %d behind after %v", lag-consumed, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// LoadSignal summarises backend pressure for admission control: how far the
// analytics consumer lags the interaction topic. The frame scheduler polls
// it to shed frames earlier when the big-data plane falls behind — a frame
// whose context analytics are stale is the paper's timeliness failure even
// if it renders on time.
type LoadSignal struct {
	// FlushLatency is always 0: telemetry is published inside the sensor
	// call, so there is no batch flush to time. The field keeps its MsgLoad
	// slot, and admission ignores it.
	FlushLatency time.Duration
	// Backlog counts interaction records produced but not yet consumed by
	// the analytics plane (0 before Start).
	Backlog int64
}

// LoadSignal reports the platform's current backend pressure.
func (p *Platform) LoadSignal() LoadSignal {
	var sig LoadSignal
	p.mu.Lock()
	g := p.group
	p.mu.Unlock()
	if g != nil {
		if lag, err := g.Lag(); err == nil {
			sig.Backlog = lag
		}
	}
	return sig
}

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

package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"arbd/internal/analytics"
	"arbd/internal/arml"
	"arbd/internal/geo"
	"arbd/internal/render"
	"arbd/internal/sensor"
	"arbd/internal/tracking"
	"arbd/internal/wire"
)

// DegradeLevel is the timeliness controller's state: when frames blow the
// deadline the session sheds work instead of stalling (§4.1). Level zero is
// full quality.
type DegradeLevel int

// Degradation levels.
const (
	DegradeNone DegradeLevel = iota
	DegradeRadius
	DegradeInterp
)

// String names the level for stats output.
func (d DegradeLevel) String() string {
	switch d {
	case DegradeNone:
		return "full"
	case DegradeRadius:
		return "reduced-radius"
	case DegradeInterp:
		return "skip-interpretation"
	default:
		return fmt.Sprintf("degrade(%d)", int(d))
	}
}

// Session is one device's connection to the platform. All methods are safe
// for concurrent use: a single mutex serialises the session's own state
// (tracking, gaze, degradation), which keeps per-session ordering while the
// platform scales across sessions.
type Session struct {
	ID       uint64
	platform *Platform
	key      []byte // broker routing key of its telemetry: session-<id>

	mu     sync.Mutex
	fuser  *tracking.Fuser
	gaze   map[uint64]float64 // annotation dwell, ms
	camera render.Camera
	occl   []render.Occluder // shared, read-only platform slice

	level DegradeLevel
	// base is what the session keeps of its last layout between frames
	// (keepLayout): the delta base of its next frame. It stays nil until a
	// frame lays out an annotation.
	base     []keptAnnotation
	frames   uint64
	overruns uint64
	// kept is nil only on the fully allocating reference path that
	// TestFrameScratchEquivalence compares the reusing frames against.
	kept *keptFrames
	// own is the scratch Session.Frame renders with, made on its first
	// call: frames the scheduler renders borrow their worker's instead.
	own *FrameScratch
}

// keptFrames is what a session keeps of its frames between calls besides
// its delta base (Session.base), guarded by Session.mu.
type keptFrames struct {
	frame Frame // the returned *Frame itself is reused
	// near is the POI set the geo query re-measures while the pose stays
	// near where it was found. It is derived from the store and the pose,
	// so a snapshot leaves it out and the restored session seeds afresh.
	near geo.NearCache
}

// FrameScratch holds the buffers one frame fills and drops, so a session
// rendering at device rates allocates nothing per frame in steady state.
// Nothing in it outlives the frame that filled it, so sessions whose frames
// never overlap — those one scheduler worker renders — share one scratch.
// It is not safe for concurrent use.
type FrameScratch struct {
	pois    []geo.POI
	dists   []float64 // dists[i]: pois[i]'s distance from the pose, as the query measured it
	best    []int32   // best[i]: pois[i]'s index in the store
	anns    []render.Annotation
	laid    []render.Annotation // the frame's layout, Frame.Annotations
	layout  render.LayoutScratch
	tags    map[uint64][]arml.Tag
	metrics map[string]float64
	rec     []uint64
	key     []byte                  // analytics key scratch (poi-<id>)
	hot     []analytics.HeavyHitter // sketch TopK snapshot scratch
	// prev is Session.Frame's copy of the previous frame's delta base,
	// which the session's own no longer holds once the frame is kept.
	prev []keptAnnotation
}

// keptAnnotation is what a session keeps of one laid-out annotation between
// frames: the fields EncodeFrameInto writes, which are the ones a delta
// diffs, and nothing the layout only needed on the way (80 bytes against
// render.Annotation's 152).
type keptAnnotation struct {
	ID     uint64
	Label  string
	X, Y   float64
	W, H   float64
	Anchor geo.Point
	XRay   bool
}

// NewFrameScratch returns an empty frame scratch; its buffers grow to what
// the largest frame rendered with it needs.
func NewFrameScratch() *FrameScratch {
	return &FrameScratch{
		tags:    make(map[uint64][]arml.Tag),
		metrics: make(map[string]float64, 4),
	}
}

// freshScratch returns buffers no frame has touched: the reference path's.
func freshScratch() (*FrameScratch, *keptFrames) { return NewFrameScratch(), new(keptFrames) }

// NewSession opens a session for a device, registers it in the sharded
// session registry, and returns it. The session owns the device's tracking
// state.
func (p *Platform) NewSession() *Session {
	s := p.buildSession(p.nextSess.Add(1))
	p.sessions.add(s)
	return s
}

// SessionOrNew returns the live session with the given ID, creating and
// registering one if absent. This is the shard-node path: the router mints
// session IDs and a single backend connection multiplexes many sessions, so
// the shard resolves each envelope's session by ID instead of owning one
// session per connection. Safe for concurrent use; when two callers race on
// the same new ID exactly one session wins and both get it.
func (p *Platform) SessionOrNew(id uint64) *Session {
	if s, ok := p.sessions.get(id); ok {
		return s
	}
	// Keep platform-assigned IDs ahead of externally minted ones so a later
	// NewSession cannot collide with a router-assigned session.
	for {
		cur := p.nextSess.Load()
		if cur >= id || p.nextSess.CompareAndSwap(cur, id) {
			break
		}
	}
	s, _ := p.sessions.addIfAbsent(p.buildSession(id))
	return s
}

// buildSession constructs (but does not register) a session with the ID.
func (p *Platform) buildSession(id uint64) *Session {
	key := fmt.Sprintf("session-%d", id)
	return &Session{
		ID:       id,
		platform: p,
		key:      []byte(key),
		fuser:    tracking.NewFuser(p.cfg.City.Center, p.pois),
		gaze:     make(map[uint64]float64),
		camera:   render.DefaultCamera,
		occl:     p.occluders,
		kept:     new(keptFrames),
	}
}

// OnGPS feeds a position fix into tracking. The fix leaves the session only
// as its fused pose: nothing is published, so a node keeps no log of where
// its users have been. It never fails; the error result is kept for
// callers that treat every sensor call alike.
func (s *Session) OnGPS(fix sensor.GPSFix) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fuser.OnGPS(fix)
	return nil
}

// OnIMU feeds an inertial sample into tracking.
func (s *Session) OnIMU(samp sensor.IMUSample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fuser.OnIMU(samp)
}

// OnVision feeds camera landmark observations into tracking.
func (s *Session) OnVision(now time.Time, obs []sensor.LandmarkObservation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fuser.OnVision(now, obs)
}

// OnGaze accumulates dwell on an annotation and records it as an implicit
// interaction (gazing at a shop is a signal, §3.1). A target that names no
// POI is refused with an error wrapping geo.ErrPOINotFound, before it
// touches any state.
func (s *Session) OnGaze(sample sensor.GazeSample) error {
	if sample.TargetID == 0 {
		return nil
	}
	if err := s.platform.checkTarget(sample.TargetID); err != nil {
		return err
	}
	s.mu.Lock()
	s.gaze[sample.TargetID] += sample.DwellMS
	s.mu.Unlock()
	if sample.DwellMS < 1500 {
		return nil // only sustained attention becomes telemetry
	}
	return s.recordInteraction(sample.TargetID, 0.3)
}

// RecordInteraction publishes an explicit user-POI interaction (purchase,
// check-in, tap) to the analytics plane. A poiID that names no POI is
// refused with an error wrapping geo.ErrPOINotFound.
//
//arbd:hotpath
func (s *Session) RecordInteraction(poiID uint64, weight float64) error {
	if err := s.platform.checkTarget(poiID); err != nil {
		return err
	}
	return s.recordInteraction(poiID, weight)
}

// recordInteraction publishes an interaction with a checked target to the
// broker inside the sensor call that produced it, keyed by the session,
// through the platform's cached mq.Topic handle: no per-call topic-map
// lookup. The record is encoded on the stack: the broker copies it. Once
// the sensor call returns its record is on the broker, so a session
// snapshot carries no telemetry.
//
//arbd:hotpath
func (s *Session) recordInteraction(poiID uint64, weight float64) error {
	var b [interactionRecordMax]byte
	values := [1][]byte{appendInteraction(b[:0], poiID, s.ID, weight)}
	_, err := s.platform.interactions.ProduceBatch(s.key, values[:])
	return err
}

// checkTarget reports whether id names a POI of the store. Every gaze and
// interaction target is checked, so nothing keyed by target — a session's
// gaze map, the interaction topic, the window state, the crowd view, the
// consumer's key table — grows past the store.
func (p *Platform) checkTarget(id uint64) error {
	if _, err := p.pois.Get(id); err != nil {
		return fmt.Errorf("core: interaction target: %w", err)
	}
	return nil
}

// Pose returns the fused pose estimate.
func (s *Session) Pose() sensor.Pose {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fuser.Pose()
}

// Level returns the current degradation level.
func (s *Session) Level() DegradeLevel {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.level
}

// Stats summarises session health.
type Stats struct {
	Frames   uint64
	Overruns uint64
	Level    DegradeLevel
}

// Stats returns session counters.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Frames: s.frames, Overruns: s.overruns, Level: s.level}
}

// Frame is one rendered overlay. The struct belongs to the session and
// stays valid until its next frame. Its slices and maps belong to the
// scratch the frame was rendered with: see Session.Frame and
// Session.FrameVisit for how long each holds.
type Frame struct {
	Time time.Time
	Pose sensor.Pose
	// Annotations is the laid-out overlay, at most maxAnnotations long.
	Annotations []render.Annotation
	// TagsFor maps annotation IDs to their semantic tags (when
	// interpretation ran).
	TagsFor map[uint64][]arml.Tag
	// Recommended lists recommended POI IDs in rank order (empty without a
	// recommender).
	Recommended []uint64
	Elapsed     time.Duration
	Level       DegradeLevel
	// Index counts the session's frames: the Nth rendered frame has Index N.
	// Delta encoders key off it — two frames diff cleanly only when their
	// indices are consecutive (an interleaved render for another consumer
	// replaces the session's delta base).
	Index uint64
	// base is the previous frame's layout as the session kept it: the
	// frame's delta base. It is nil until the session has laid out an
	// annotation.
	base []keptAnnotation
}

// Frame runs the per-frame pipeline at the fused pose and returns the
// overlay. It implements the timeliness loop: measure, and if over budget,
// degrade the next frame; if comfortably under budget, recover.
//
// Frame renders with a scratch the session makes on the first call and
// keeps, and copies the frame's delta base into it before the session keeps
// the new one, so the whole returned *Frame — the struct itself, its slices
// and its maps — stays valid until the session's next Frame call, and no
// longer: consume (or deep-copy) a frame before requesting the next one.
// A frame rendered through FrameVisit in between replaces the struct too.
//
//arbd:hotpath
func (s *Session) Frame(now time.Time) (*Frame, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.own == nil {
		s.own = NewFrameScratch()
	}
	f, err := s.frameLocked(now, s.own)
	if err != nil {
		return nil, err
	}
	// Keeping the new layout overwrites the delta base, which the caller
	// still reads. An empty one has nothing to overwrite.
	if len(f.base) > 0 {
		s.own.prev = append(s.own.prev[:0], f.base...)
		f.base = s.own.prev
	}
	s.keepLayout(f.Annotations)
	return f, nil
}

// FrameVisit renders one frame with the caller's scratch sc and invokes
// visit with it before releasing the session lock, so visit observes the
// frame atomically with respect to the session's next frame. Asynchronous
// servers (the shard role) encode the wire response inside visit: without
// the lock, a pipelined second frame request could re-enter the session on
// another worker and overwrite its layout mid-encode. visit must not call
// back into the session.
//
// Inside visit every field of the frame is valid. Once visit returns, the
// session keeps the layout's encoded fields as its next delta base, which
// overwrites this frame's. After FrameVisit returns, the struct stays valid
// until the session's next frame, but Annotations is nil: the layout lived
// in sc, as TagsFor and Recommended do, and is valid only inside visit. A
// caller that wants the layout afterwards copies it inside visit. sc must
// not render two frames at once: a scheduler worker lends its one scratch
// to every frame it runs.
//
//arbd:hotpath
func (s *Session) FrameVisit(now time.Time, sc *FrameScratch, visit func(*Frame)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.frameLocked(now, sc)
	if err != nil {
		return err
	}
	visit(f)
	s.keepLayout(f.Annotations)
	f.Annotations, f.base = nil, nil
	return nil
}

// keepLayout copies the encoded fields of a frame's layout into the
// session's delta base. The base grows to fit, never doubled: its length
// never exceeds maxAnnotations. Callers hold s.mu, and nothing reads the
// frame's base any more.
//
//arbd:hotpath
func (s *Session) keepLayout(laid []render.Annotation) {
	if cap(s.base) < len(laid) {
		// Grow to fit, not to double: the base outlives the frame.
		s.base = slices.Grow(s.base[:0:0], len(laid))
	}
	s.base = s.base[:len(laid)]
	for i := range laid {
		a := &laid[i]
		s.base[i] = keptAnnotation{ID: a.ID, Label: a.Label, X: a.X, Y: a.Y, W: a.W, H: a.H, Anchor: a.Anchor, XRay: a.XRay}
	}
}

// frameLocked is the frame pipeline, filling sc; callers hold s.mu and
// keep the frame's layout (keepLayout) once nothing reads its base.
//
//arbd:hotpath
func (s *Session) frameLocked(now time.Time, sc *FrameScratch) (*Frame, error) {
	start := s.platform.cfg.clock.Now()
	pose := s.fuser.Pose()
	// Everything the frame measures, it measures from here: the query's
	// distances ride with the POIs into the annotations and the layout.
	from := geo.OriginAt(pose.Position)

	kept, ref := s.kept, s.kept == nil
	if ref {
		sc, kept = freshScratch() // the reference path: fresh buffers per frame
	}

	radius := annotationRadiusM
	maxAnn := s.platform.cfg.maxAnnotations
	if s.level >= DegradeRadius {
		radius /= 2
		maxAnn /= 2
	}

	// 1. Geospatial context: the nearest 3×maxAnn POIs in radius. The cap
	// is the query's limit, so a dense city costs what the frame keeps, not
	// what the radius holds. A frame with no room for annotations (a
	// maxAnnotations of 1 halved by degradation) asks for nothing. The
	// session re-measures the set it kept from an earlier frame while that
	// provably holds the answer; the reference path asks the index cold.
	pois, dists := sc.pois[:0], sc.dists[:0]
	switch {
	case maxAnn <= 0:
	case ref:
		pois, dists = s.platform.pois.QueryNearestInto(pois, dists, &from, radius, 0, maxAnn*3)
	default:
		var reused bool
		pois, dists, reused = s.platform.pois.QueryNearestReuse(&kept.near, &sc.best, pois, dists, &from, radius, maxAnn*3)
		if reused {
			s.platform.geoReused.Inc()
		} else {
			s.platform.geoSeeded.Inc()
		}
	}
	sc.pois, sc.dists = pois, dists

	// 2. Interpretation: analytics → semantic tags (skipped at the deepest
	// degradation level).
	tags := sc.tags
	clear(tags)
	if s.level < DegradeInterp {
		interp := s.platform.interpreter()
		// One sketch snapshot per frame, not per POI: TopK copies and
		// sorts the sketch under the hot lock. The snapshot lands in a
		// scratch slice so steady-state frames don't allocate.
		hottest := s.platform.HotPOIsInto(sc.hot[:0], 1)
		sc.hot = hottest
		for i := range pois {
			m := s.contextMetrics(sc, &pois[i], hottest)
			if len(m) == 0 {
				continue
			}
			if fired := interp.Interpret(m); len(fired) > 0 {
				tags[pois[i].ID] = fired
			}
		}
	}

	// 3. Recommendations re-ranked by live context.
	recommended := sc.rec[:0]
	s.platform.recMu.RLock()
	rec := s.platform.rec
	s.platform.recMu.RUnlock()
	if rec != nil {
		for _, score := range rec.Recommend(s.ID, 5) {
			recommended = append(recommended, score.ItemID)
		}
	}
	sc.rec = recommended

	// 4. Layout, into the scratch: the session's delta base stays intact
	// until the caller keeps this layout.
	anns := render.AnnotationsMeasuredInto(sc.anns[:0], &from, pois, dists)
	sc.anns = anns
	for i := range anns {
		if t, ok := tags[anns[i].ID]; ok {
			anns[i].Priority *= 1.5 // tagged content is more relevant
			//arbd:alloc-ok fires only on interpretation-tag hits, and Label is a string by API contract
			anns[i].Label = anns[i].Label + " [" + t[0].Value + "]"
		}
	}
	laid := render.LayoutAnchoredInto(sc.laid[:0], &sc.layout, s.camera, pose, anns, s.occl, render.LayoutOptions{})
	if len(laid) > maxAnn {
		laid = laid[:maxAnn]
	}
	sc.laid = laid

	elapsed := s.platform.cfg.clock.Since(start)
	s.frames++
	s.adapt(elapsed)
	s.platform.frameLat.Observe(elapsed)

	// The Frame struct itself is kept too: the same *Frame is returned
	// every call (fresh per call on the reference path), which removes the
	// last steady-state heap allocation of the hot path.
	f := &kept.frame
	*f = Frame{
		Time:        now,
		Pose:        pose,
		Annotations: laid,
		TagsFor:     tags,
		Recommended: recommended,
		Elapsed:     elapsed,
		Level:       s.level,
		Index:       s.frames,
		base:        s.base,
	}
	return f, nil
}

// adapt moves the degradation level: one step harsher on overrun, one step
// back toward full quality when under half the budget.
func (s *Session) adapt(elapsed time.Duration) {
	switch {
	case elapsed > frameDeadline:
		s.overruns++
		if s.level < DegradeInterp {
			s.level++
		}
	case elapsed < frameDeadline/2 && s.level > DegradeNone:
		s.level--
	}
}

// contextMetrics assembles the metric map for one POI from the live
// analytics views, reusing the scratch key buffer and metric map across
// POIs. hottest is the frame's shared HotPOIs(1) snapshot. The returned map
// is valid until the next contextMetrics call on the same scratch.
//
//arbd:hotpath
func (s *Session) contextMetrics(sc *FrameScratch, poi *geo.POI, hottest []analytics.HeavyHitter) map[string]float64 {
	sc.key = appendPOIKey(sc.key[:0], poi.ID)
	stats, ok := s.platform.crowd.GetKey(sc.key)
	if !ok {
		return nil
	}
	m := sc.metrics
	clear(m)
	m["visits"] = stats.Sum
	// Crowding is this POI's traffic relative to the hottest POI.
	if len(hottest) > 0 && hottest[0].Count > 0 {
		m["crowding"] = stats.Sum / float64(hottest[0].Count)
	}
	return m
}

// GazeTargets returns the IDs of the current layout's annotations in
// priority order, for feeding the gaze simulator.
func (s *Session) GazeTargets() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]uint64, 0, len(s.base))
	for _, a := range s.base {
		out = append(out, a.ID)
	}
	return out
}

// poiKeyPrefix starts every analytics key: POI 42 groups as "poi-42".
const poiKeyPrefix = "poi-"

// poiKeyMax is the longest poi-<id> key: the prefix and 20 digits.
const poiKeyMax = len(poiKeyPrefix) + 20

// appendPOIKey appends the poi-<id> analytics key to dst.
//
//arbd:hotpath
func appendPOIKey(dst []byte, id uint64) []byte {
	dst = append(dst, poiKeyPrefix...)
	return strconv.AppendUint(dst, id, 10)
}

// interactionRecordMax sizes the stack buffer an interaction record is
// encoded into: the poi-<id> key (one length byte: the key is under 128
// bytes), the user ID and the weight. The record is encoded field by field
// as a wire.Buffer would encode it — a length-prefixed key, a uvarint,
// little-endian float64 bits — so the bytes on the broker do not depend on
// which encoder wrote them.
const interactionRecordMax = 1 + poiKeyMax + binary.MaxVarintLen64 + 8

// appendInteraction appends an interaction telemetry record to dst.
//
//arbd:hotpath
func appendInteraction(dst []byte, poiID, user uint64, weight float64) []byte {
	lenAt := len(dst)
	dst = appendPOIKey(append(dst, 0), poiID)
	dst[lenAt] = byte(len(dst) - lenAt - 1)
	dst = binary.AppendUvarint(dst, user)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(weight))
}

// decodeInteraction reads an interaction record's key and weight. The key
// aliases p.
//
//arbd:hotpath
func decodeInteraction(p []byte) (key []byte, weight float64, err error) {
	r := wire.NewReader(p)
	if key, err = r.Bytes8(); err != nil {
		return nil, 0, r.Err(err, "poi key")
	}
	if _, err = r.Uvarint(); err != nil {
		return nil, 0, r.Err(err, "user")
	}
	if weight, err = r.Float64(); err != nil {
		return nil, 0, r.Err(err, "weight")
	}
	return key, weight, nil
}

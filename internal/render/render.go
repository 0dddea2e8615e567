// Package render implements the AR annotation layer: screen-space projection
// of geo-anchored content, occlusion testing against building geometry, and
// the anchored layout engine every frame runs. It places labels
// priority-first next to their anchors, avoids box collisions and screen
// edges, and draws occluded anchors in X-ray style, which answers the
// clutter of floating bubbles the paper criticises (§2.1, citing MacIntyre's
// "POIs are pointless"). Experiment E6 (internal/repro) scores it against
// that bubble baseline.
package render

import (
	"math"
	"slices"
	"sort"

	"arbd/internal/geo"
	"arbd/internal/sensor"
)

// ScreenPos is a projected location in pixels plus depth in meters.
type ScreenPos struct {
	X     float64
	Y     float64
	Depth float64
}

// Camera is a pinhole projection model.
type Camera struct {
	FOVDeg float64 // horizontal field of view
	Width  int     // screen width, px
	Height int     // screen height, px
}

// DefaultCamera matches a 2017-era phone in landscape.
var DefaultCamera = Camera{FOVDeg: 60, Width: 1280, Height: 720}

// VFOVDeg returns the vertical field of view implied by the aspect ratio.
func (c Camera) VFOVDeg() float64 {
	return c.FOVDeg * float64(c.Height) / float64(c.Width)
}

// Project maps an annotation's anchor (with its height above ground) onto
// the screen for the pose, whose position from stands at; ok is false when
// the anchor is outside the view frustum. An annotation already measured
// from there pays for the bearing only. The bearing is returned for the
// occlusion test, which would otherwise measure it again.
//
//arbd:hotpath
func (c Camera) Project(pose sensor.Pose, from *geo.Origin, a *Annotation) (pos ScreenPos, bearing float64, ok bool) {
	dist := a.distanceFrom(from)
	if dist < 0.5 {
		return ScreenPos{}, 0, false
	}
	bearing = from.Bearing(a.Anchor)
	rel := wrap180(bearing - pose.HeadingDeg)
	if math.Abs(rel) > c.FOVDeg/2 {
		return ScreenPos{}, 0, false
	}
	elev := math.Atan2(a.AnchorHM-pose.AltitudeM, dist)*180/math.Pi - pose.PitchDeg
	if math.Abs(elev) > c.VFOVDeg()/2 {
		return ScreenPos{}, 0, false
	}
	x := float64(c.Width)/2 + rel/c.FOVDeg*float64(c.Width)
	y := float64(c.Height)/2 - elev/c.VFOVDeg()*float64(c.Height)
	return ScreenPos{X: x, Y: y, Depth: dist}, bearing, true
}

func wrap180(d float64) float64 {
	d = math.Mod(d+540, 360) - 180
	if d == -180 {
		return 180
	}
	return d
}

// Annotation is one piece of virtual content anchored to a world location.
type Annotation struct {
	ID       uint64
	Label    string
	Anchor   geo.Point
	AnchorHM float64 // anchor height above ground (label attaches here)
	Priority float64 // higher = more important, placed first

	// Layout outputs.
	Pos      ScreenPos // anchor projection
	X, Y     float64   // top-left of the label box after layout
	W, H     float64   // label box size, px
	Placed   bool
	Occluded bool    // anchor hidden behind geometry
	XRay     bool    // drawn despite occlusion, in see-through style
	LeaderPx float64 // distance from box centre to anchor

	// measured is the anchor's distance from a viewer, carried from whoever
	// measured it first (the geo query, through AnnotationsMeasuredInto) so a
	// layout from the same position does not measure it again. Zero on
	// hand-built annotations. An annotation that carries one must not have
	// its Anchor changed.
	measured sighting
}

// sighting is a distance together with the point it was measured from. It
// holds only for a viewer standing exactly there: an annotation built at one
// pose and laid out at another is measured afresh. The zero value carries
// nothing (a carried distance of exactly zero reads as none and is measured
// again, to the same zero).
type sighting struct {
	from geo.Point
	dist float64
}

// distanceFrom returns the anchor's distance from the origin: the carried
// one when it was measured from there, a fresh one otherwise.
//
//arbd:hotpath
func (a *Annotation) distanceFrom(from *geo.Origin) float64 {
	if a.measured.dist != 0 && a.measured.from == from.Point() {
		return a.measured.dist
	}
	return from.Distance(a.Anchor)
}

// overlapsAt reports whether a's box, its top-left at (x, y), intersects the
// placed box b.
func overlapsAt(a *Annotation, x, y float64, b *Annotation) bool {
	return x < b.X+b.W && b.X < x+a.W && y < b.Y+b.H && b.Y < y+a.H
}

// Occluder is a building-like obstacle: a vertical slab at a location.
type Occluder struct {
	Location geo.Point
	HeightM  float64
	WidthM   float64 // horizontal extent (default 20)
}

// OccludersFromPOIs treats tall POIs as occluding buildings.
func OccludersFromPOIs(pois []geo.POI, minHeightM float64) []Occluder {
	return OccludersFromPOIsInto(nil, pois, minHeightM)
}

// OccludersFromPOIsInto is OccludersFromPOIs appending into dst. Results
// overwrite dst's contents from length zero; the returned slice shares dst's
// storage when capacity allows.
func OccludersFromPOIsInto(dst []Occluder, pois []geo.POI, minHeightM float64) []Occluder {
	out := dst[:0]
	for _, p := range pois {
		if p.HeightMeters >= minHeightM {
			out = append(out, Occluder{Location: p.Location, HeightM: p.HeightMeters, WidthM: 20})
		}
	}
	return out
}

// IsOccluded reports whether the sight line from the pose to the target
// (top at heightM) passes behind any occluder. It is the per-target
// reference; LayoutAnchoredInto runs the same test occluder-first.
//
//arbd:test-api per-target occlusion reference for render's layout tests and E6's clutter score
func IsOccluded(pose sensor.Pose, target geo.Point, heightM float64, occluders []Occluder) bool {
	from := geo.OriginAt(pose.Position)
	dT := from.Distance(target)
	if dT < 1 {
		return false
	}
	bT := from.Bearing(target)
	for _, o := range occluders {
		dO := from.Distance(o.Location)
		if dO < 1 || dO >= dT-1 {
			continue
		}
		if o.seenAt(dO, from.Bearing(o.Location)).hides(pose.AltitudeM, dT, bT, heightM) {
			return true
		}
	}
	return false
}

// sightOccluder is an occluder as one pose sees it. None of it depends on
// the target, which is what lets a layout compute it once per frame instead
// of once per label.
type sightOccluder struct {
	dist      float64 // metres from the pose
	bearing   float64 // degrees clockwise from north
	halfAngle float64 // half the slab's angular width, degrees
	heightM   float64
}

// seenAt places o as a viewer sees it dist metres away on the given bearing.
//
//arbd:hotpath
func (o Occluder) seenAt(dist, bearing float64) sightOccluder {
	w := o.WidthM
	if w <= 0 {
		w = 20
	}
	return sightOccluder{
		dist:      dist,
		bearing:   bearing,
		halfAngle: math.Atan2(w/2, dist) * 180 / math.Pi,
		heightM:   o.HeightM,
	}
}

// hides reports whether the occluder, already known to stand between the
// pose and the target (1 <= dist < dT-1), blocks the sight line from
// altitudeM at the pose to the target's top at heightM, dT metres away on
// bearing bT.
//
//arbd:hotpath
func (s sightOccluder) hides(altitudeM, dT, bT, heightM float64) bool {
	if math.Abs(wrap180(s.bearing-bT)) > s.halfAngle {
		return false
	}
	// Sight-line height where it crosses the occluder's distance.
	lineH := altitudeM + (heightM-altitudeM)*(s.dist/dT)
	return lineH < s.heightM
}

// Label geometry.
const (
	LabelW, LabelH = 140, 36 // label box size, px
	maxLeaderPx    = 120     // max box displacement from its anchor
)

// LayoutOptions configures the anchored layout engine. It has no field:
// every layout uses the label geometry above and draws occluded anchors in
// X-ray style.
type LayoutOptions struct{}

// candidateOffsets are tried in order around the anchor: above, then sides,
// then below, at increasing leader lengths.
var candidateOffsets = [][2]float64{
	{0, -30}, {0, -60}, {70, -30}, {-70, -30}, {80, 0}, {-80, 0},
	{0, -90}, {90, -60}, {-90, -60}, {0, 40}, {100, 40}, {-100, 40}, {0, -120},
}

// LayoutScratch holds the intermediate buffers LayoutAnchoredInto reuses
// across frames: the projected-and-visible working set and the occluders that
// can hide any of it as the pose sees them. The zero value is ready to use; a
// scratch must not be shared between concurrent layout calls.
type LayoutScratch struct {
	visible []visibleAnnotation
	sight   []sightOccluder
}

// visibleAnnotation is an annotation on screen together with the bearing its
// projection measured, which the occlusion test needs again.
type visibleAnnotation struct {
	Annotation
	bearing float64 // of the anchor from the pose, degrees clockwise from north
}

// sort.Interface over the visible working set: nearer and higher-priority
// content first.
func (sc *LayoutScratch) Len() int { return len(sc.visible) }
func (sc *LayoutScratch) Less(i, j int) bool {
	if sc.visible[i].Priority != sc.visible[j].Priority {
		return sc.visible[i].Priority > sc.visible[j].Priority
	}
	return sc.visible[i].Pos.Depth < sc.visible[j].Pos.Depth
}
func (sc *LayoutScratch) Swap(i, j int) {
	sc.visible[i], sc.visible[j] = sc.visible[j], sc.visible[i]
}

// LayoutAnchoredInto places annotations priority-first, avoiding box
// collisions and screen edges, X-ray-marking occluded anchors, and keeping
// labels near their anchors with short leader lines. It appends into dst
// with reusable intermediate buffers. dst and sc may both be nil
// (allocating fresh buffers); results overwrite dst's contents from length
// zero and the returned slice shares dst's storage when capacity allows.
func LayoutAnchoredInto(dst []Annotation, sc *LayoutScratch, cam Camera, pose sensor.Pose, anns []Annotation, occluders []Occluder, _ LayoutOptions) []Annotation {
	if sc == nil {
		sc = &LayoutScratch{}
	}
	// Project everything first; the deepest label on screen bounds which
	// occluders can matter.
	from := geo.OriginAt(pose.Position)
	visible := sc.visible[:0]
	maxDepth := 0.0
	for _, a := range anns {
		pos, bearing, ok := cam.Project(pose, &from, &a)
		if !ok {
			continue
		}
		a.Pos = pos
		a.W, a.H = LabelW, LabelH
		maxDepth = math.Max(maxDepth, pos.Depth)
		visible = append(visible, visibleAnnotation{Annotation: a, bearing: bearing})
	}
	sc.occlude(pose, &from, visible, maxDepth, occluders)
	sc.visible = visible
	sort.Stable(sc)

	out := dst
	if cap(out) < len(visible) {
		out = make([]Annotation, 0, len(visible))
	}
	out = out[:0]
	for i := range visible {
		a := visible[i].Annotation
		if tryPlace(cam, &a, out) {
			a.Placed = true
			out = append(out, a)
		}
	}
	return out
}

// occlude runs the occlusion test over visible — labels on screen, none
// deeper than maxDepth, seen from the pose's position, which from stands at —
// and marks the hidden ones occluded and X-ray. An occluder hides a label
// only from strictly in front of it, so one at or beyond maxDepth-1 hides
// nothing this frame; the rest are placed relative to the pose once, not
// once per label.
//
//arbd:hotpath
func (sc *LayoutScratch) occlude(pose sensor.Pose, from *geo.Origin, visible []visibleAnnotation, maxDepth float64, occluders []Occluder) {
	if len(visible) == 0 {
		return
	}
	// Room for a street's worth up front: a cold scratch then grows once,
	// not once per doubling; a warm one already has it.
	sight := slices.Grow(sc.sight[:0], 16)
	near := geo.RectAround(pose.Position, maxDepth)
	for _, o := range occluders {
		if !near.Contains(o.Location) {
			continue
		}
		if dO, bO := from.Polar(o.Location); dO >= 1 && dO < maxDepth-1 {
			sight = append(sight, o.seenAt(dO, bO))
		}
	}
	sc.sight = sight
	for j := range visible {
		a := &visible[j]
		// The projection measured what IsOccluded would measure again.
		if dT := a.Pos.Depth; dT >= 1 {
			for i := range sight {
				if sight[i].dist < dT-1 && sight[i].hides(pose.AltitudeM, dT, a.bearing, a.AnchorHM) {
					a.Occluded = true
					break
				}
			}
		}
		if a.Occluded {
			a.XRay = true
		}
	}
}

// tryPlace finds a's label a box clear of the screen edges and of placed,
// the labels placed before it.
func tryPlace(cam Camera, a *Annotation, placed []Annotation) bool {
	for _, off := range candidateOffsets {
		x := a.Pos.X + off[0] - a.W/2
		y := a.Pos.Y + off[1] - a.H/2
		leader := math.Hypot(off[0], off[1])
		if leader > maxLeaderPx {
			continue
		}
		if x < 0 || y < 0 || x+a.W > float64(cam.Width) || y+a.H > float64(cam.Height) {
			continue
		}
		collides := false
		for i := range placed {
			if overlapsAt(a, x, y, &placed[i]) {
				collides = true
				break
			}
		}
		if !collides {
			a.X, a.Y, a.LeaderPx = x, y, leader
			return true
		}
	}
	return false
}

// Jitter measures mean label movement in pixels between two consecutive
// layouts, matching annotations by ID. Stable layouts score low.
func Jitter(prev, cur []Annotation) float64 {
	if len(prev) == 0 || len(cur) == 0 {
		return 0
	}
	var sum float64
	n := 0
	// Typical AR overlays hold a few dozen labels at most: a quadratic ID
	// match is both faster there and allocation-free, which matters on the
	// frame hot path. Large layouts fall back to the map.
	if len(prev) <= 64 {
		for i := range cur {
			for j := range prev {
				if prev[j].ID == cur[i].ID {
					sum += math.Hypot(cur[i].X-prev[j].X, cur[i].Y-prev[j].Y)
					n++
					break
				}
			}
		}
	} else {
		prevByID := make(map[uint64]*Annotation, len(prev))
		for i := range prev {
			prevByID[prev[i].ID] = &prev[i]
		}
		for i := range cur {
			p, ok := prevByID[cur[i].ID]
			if !ok {
				continue
			}
			sum += math.Hypot(cur[i].X-p.X, cur[i].Y-p.Y)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// AnnotationsFromPOIsInto builds annotations for POIs, prioritised by
// inverse distance from the viewer (nearer content matters more in AR).
// Labels anchor at facade viewing height (2-8 m) rather than rooftops so
// nearby content stays inside a phone camera's narrow vertical FOV. Results
// overwrite dst's contents from length zero; the returned slice shares dst's
// storage when capacity allows.
func AnnotationsFromPOIsInto(dst []Annotation, pose sensor.Pose, pois []geo.POI) []Annotation {
	from := geo.OriginAt(pose.Position)
	return AnnotationsMeasuredInto(dst, &from, pois, nil)
}

// AnnotationsMeasuredInto is AnnotationsFromPOIsInto for a viewer standing at
// from whose POIs came out of geo.Store.QueryNearestInto around the same
// origin: dists[i] is the distance of pois[i] as the query measured it, and is
// not measured again (nil dists: measured here). Either way each annotation
// carries its distance with the point it was measured from, so laying it out
// from the same position measures only the bearing.
//
//arbd:hotpath
func AnnotationsMeasuredInto(dst []Annotation, from *geo.Origin, pois []geo.POI, dists []float64) []Annotation {
	out := dst[:0]
	for i := range pois {
		p := &pois[i]
		var d float64
		if dists != nil {
			d = dists[i]
		} else {
			d = from.Distance(p.Location)
		}
		anchorH := math.Max(2, math.Min(p.HeightMeters*0.4, 8))
		out = append(out, Annotation{
			ID:       p.ID,
			Label:    p.Name,
			Anchor:   p.Location,
			AnchorHM: anchorH,
			Priority: 1000 / (d + 10),
			measured: sighting{from: from.Point(), dist: d},
		})
	}
	return out
}

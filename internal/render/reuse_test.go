package render

import (
	"fmt"
	"sort"
	"testing"

	"arbd/internal/geo"
	"arbd/internal/sensor"
	"arbd/internal/sim"
)

func annEqual(a, b Annotation) bool {
	return a.ID == b.ID && a.Label == b.Label && a.Anchor == b.Anchor &&
		a.AnchorHM == b.AnchorHM && a.Priority == b.Priority &&
		a.X == b.X && a.Y == b.Y && a.W == b.W && a.H == b.H &&
		a.Placed == b.Placed && a.Occluded == b.Occluded &&
		a.XRay == b.XRay && a.LeaderPx == b.LeaderPx
}

// TestIntoVariantsEquivalence runs the full annotate→layout chain through
// the allocating and buffer-reusing forms over several scenes, reusing the
// same buffers and scratch throughout, and requires identical output.
func TestIntoVariantsEquivalence(t *testing.T) {
	var (
		pois    []geo.POI
		annBuf  []Annotation
		laidBuf []Annotation
		occlBuf []Occluder
		scratch LayoutScratch
	)
	for scene := 0; scene < 4; scene++ {
		pois = pois[:0]
		for i := 0; i < 40+scene*25; i++ {
			id := uint64(scene*1000 + i + 1)
			pois = append(pois, poiAt(id, float64(i*7%360), 30+float64(i*13%400), 5+float64(i%40)))
		}

		wantOccl := OccludersFromPOIs(pois, 30)
		occlBuf = OccludersFromPOIsInto(occlBuf, pois, 30)
		if len(occlBuf) != len(wantOccl) {
			t.Fatalf("scene %d: occluders %d, want %d", scene, len(occlBuf), len(wantOccl))
		}
		for i := range wantOccl {
			if occlBuf[i] != wantOccl[i] {
				t.Fatalf("scene %d: occluder %d differs", scene, i)
			}
		}

		wantAnns := AnnotationsFromPOIsInto(nil, pose, pois)
		annBuf = AnnotationsFromPOIsInto(annBuf, pose, pois)
		if len(annBuf) != len(wantAnns) {
			t.Fatalf("scene %d: annotations %d, want %d", scene, len(annBuf), len(wantAnns))
		}
		for i := range wantAnns {
			if !annEqual(annBuf[i], wantAnns[i]) {
				t.Fatalf("scene %d: annotation %d differs: got %+v want %+v",
					scene, i, annBuf[i], wantAnns[i])
			}
		}

		wantLaid := LayoutAnchoredInto(nil, nil, cam, pose, wantAnns, wantOccl, LayoutOptions{})
		laidBuf = LayoutAnchoredInto(laidBuf, &scratch, cam, pose, annBuf, occlBuf, LayoutOptions{})
		if len(laidBuf) != len(wantLaid) {
			t.Fatalf("scene %d: laid %d, want %d", scene, len(laidBuf), len(wantLaid))
		}
		for i := range wantLaid {
			if !annEqual(laidBuf[i], wantLaid[i]) {
				t.Fatalf("scene %d: laid %d differs: got %+v want %+v",
					scene, i, laidBuf[i], wantLaid[i])
			}
		}
	}
}

// layoutAnchoredReference is the anchored layout with the occlusion test
// label-first: IsOccluded against every occluder of the city, once per
// projected label. LayoutAnchoredInto must place exactly what this places.
func layoutAnchoredReference(cam Camera, pose sensor.Pose, anns []Annotation, occluders []Occluder) []Annotation {
	var visible []Annotation
	for _, a := range anns {
		pos, ok := projectPoint(cam, pose, a.Anchor, a.AnchorHM)
		if !ok {
			continue
		}
		a.Pos = pos
		a.W, a.H = LabelW, LabelH
		a.Occluded = IsOccluded(pose, a.Anchor, a.AnchorHM, occluders)
		a.XRay = a.Occluded
		visible = append(visible, a)
	}
	sort.SliceStable(visible, func(i, j int) bool {
		if visible[i].Priority != visible[j].Priority {
			return visible[i].Priority > visible[j].Priority
		}
		return visible[i].Pos.Depth < visible[j].Pos.Depth
	})
	out := make([]Annotation, 0, len(visible))
	for _, a := range visible {
		if tryPlace(cam, &a, out) {
			a.Placed = true
			out = append(out, a)
		}
	}
	return out
}

// TestLayoutMatchesPerLabelOcclusion is the differential test of the
// per-frame occluder list: over seeded poses in the dense 5,000-POI city
// (~1,000 occluders), for the frame's own working set (nearest 60 in 250 m)
// and for a deep one (everything in 2 km, so the pruning rectangle is
// large), the layout equals the reference.
// Poses pitched at the sky cover the frame with no label on screen.
func TestLayoutMatchesPerLabelOcclusion(t *testing.T) {
	city := geo.GenerateCity(geo.CityConfig{Center: origin, RadiusM: 3000, NumPOIs: 5000, TallRatio: 0.2, Seed: 1})
	store, err := geo.LoadStore(city)
	if err != nil {
		t.Fatal(err)
	}
	occl := OccludersFromPOIs(city, 30)
	rng := sim.NewRand(21)
	var (
		laid    []Annotation
		scratch LayoutScratch
		seen    struct{ frames, empty, placed, occluded int }
	)
	for i := 0; i < 80; i++ {
		p := sensor.Pose{
			Position:   geo.Destination(origin, rng.Uniform(0, 360), rng.Uniform(0, 1500)),
			HeadingDeg: rng.Uniform(0, 360),
			PitchDeg:   rng.Uniform(-5, 10),
			AltitudeM:  1.6,
		}
		radius, limit := 250.0, 60
		switch {
		case i%10 == 0:
			p.PitchDeg = 80
		case i%8 == 1:
			radius, limit = 2000, 0
		}
		// The frame's own path: the query's distances carried on the
		// annotations, against a reference that measures everything itself.
		from := geo.OriginAt(p.Position)
		pois, dists := store.QueryNearestInto(nil, nil, &from, radius, 0, limit)
		anns := AnnotationsMeasuredInto(nil, &from, pois, dists)
		want := layoutAnchoredReference(cam, p, anns, occl)
		laid = LayoutAnchoredInto(laid, &scratch, cam, p, anns, occl, LayoutOptions{})
		requireSameLayout(t, fmt.Sprintf("pose %d", i), laid, want)
		for k := range want {
			if want[k].Occluded {
				seen.occluded++
			}
		}
		seen.frames++
		seen.placed += len(want)
		if len(want) == 0 {
			seen.empty++
		}
	}
	// The comparison is only worth its name if both outcomes occur.
	if seen.empty == 0 || seen.occluded == 0 || seen.occluded == seen.placed {
		t.Fatalf("degenerate scene set: %+v", seen)
	}
}

// TestLayoutAnchoredIntoSteadyStateAllocs checks that with warmed buffers
// the layout engine allocates nothing per frame.
func TestLayoutAnchoredIntoSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	var pois []geo.POI
	for i := 0; i < 80; i++ {
		pois = append(pois, poiAt(uint64(i+1), float64(i*5%360), 30+float64(i*11%350), 5+float64(i%35)))
	}
	occl := OccludersFromPOIs(pois, 30)
	anns := AnnotationsFromPOIsInto(nil, pose, pois)
	var laid []Annotation
	var sc LayoutScratch
	for i := 0; i < 4; i++ {
		laid = LayoutAnchoredInto(laid, &sc, cam, pose, anns, occl, LayoutOptions{})
	}
	allocs := testing.AllocsPerRun(50, func() {
		laid = LayoutAnchoredInto(laid, &sc, cam, pose, anns, occl, LayoutOptions{})
	})
	if allocs > 0 {
		t.Fatalf("LayoutAnchoredInto allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

// TestJitterSmallAndLargePathsAgree pins the allocation-free quadratic
// path to the map-based fallback.
func TestJitterSmallAndLargePathsAgree(t *testing.T) {
	mk := func(n int, dx float64) []Annotation {
		out := make([]Annotation, n)
		for i := range out {
			out[i] = Annotation{ID: uint64(i + 1), X: float64(i)*10 + dx, Y: float64(i) * 5}
		}
		return out
	}
	// 100 annotations exercises the map path; its 64-element prefix the
	// quadratic path. Matching IDs move by exactly (3,0) in both.
	prev, cur := mk(100, 0), mk(100, 3)
	if got := Jitter(prev, cur); got < 2.99 || got > 3.01 {
		t.Fatalf("map-path jitter = %v, want 3", got)
	}
	if got := Jitter(prev[:40], cur[:40]); got < 2.99 || got > 3.01 {
		t.Fatalf("quadratic-path jitter = %v, want 3", got)
	}
}

// stripSightings returns anns as hand-built annotations have them: nothing
// carried, everything measured by the layout itself.
func stripSightings(anns []Annotation) []Annotation {
	out := append([]Annotation(nil), anns...)
	for i := range out {
		out[i].measured = sighting{}
	}
	return out
}

func requireSameLayout(t *testing.T, what string, got, want []Annotation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: placed %d, want %d", what, len(got), len(want))
	}
	for k := range want {
		if !annEqual(got[k], want[k]) || got[k].Pos != want[k].Pos {
			t.Fatalf("%s: annotation %d differs:\n got %+v\nwant %+v", what, k, got[k], want[k])
		}
	}
}

// TestLayoutCarriedSightingsEquivalence pins the carry rule on the dense
// city: a layout over annotations carrying the query's distances equals the
// layout over the same annotations carrying nothing, field for field; and a
// carried distance is trusted only from the point it was measured
// from — annotations built at pose A and laid out at pose B lay out as if
// built fresh.
func TestLayoutCarriedSightingsEquivalence(t *testing.T) {
	city := geo.GenerateCity(geo.CityConfig{Center: origin, RadiusM: 3000, NumPOIs: 5000, TallRatio: 0.2, Seed: 1})
	store, err := geo.LoadStore(city)
	if err != nil {
		t.Fatal(err)
	}
	occl := OccludersFromPOIs(city, 30)
	rng := sim.NewRand(33)
	var (
		scratch LayoutScratch
		placed  int
	)
	for i := 0; i < 60; i++ {
		poseA := sensor.Pose{
			Position:   geo.Destination(origin, rng.Uniform(0, 360), rng.Uniform(0, 1500)),
			HeadingDeg: rng.Uniform(0, 360),
			PitchDeg:   rng.Uniform(-5, 10),
			AltitudeM:  1.6,
		}
		from := geo.OriginAt(poseA.Position)
		pois, dists := store.QueryNearestInto(nil, nil, &from, 250, 0, 60)
		carrying := AnnotationsMeasuredInto(nil, &from, pois, dists)
		for k := range carrying {
			if got := carrying[k].measured; got.from != poseA.Position || got.dist != dists[k] {
				t.Fatalf("pose %d: annotation %d carries %+v, want the query's %v from the pose", i, k, got, dists[k])
			}
		}
		var opts LayoutOptions

		want := LayoutAnchoredInto(nil, nil, cam, poseA, stripSightings(carrying), occl, opts)
		got := LayoutAnchoredInto(nil, &scratch, cam, poseA, carrying, occl, opts)
		requireSameLayout(t, "carried vs stripped", got, want)
		placed += len(want)
		// The measured-here builder carries too, and must agree as well.
		requireSameLayout(t, "AnnotationsFromPOIs", LayoutAnchoredInto(nil, nil, cam, poseA, AnnotationsFromPOIsInto(nil, poseA, pois), occl, opts), want)

		// Stale carry: same annotations, viewer a few metres on and turned.
		poseB := poseA
		poseB.Position = geo.Destination(poseA.Position, rng.Uniform(0, 360), rng.Uniform(0.5, 40))
		poseB.HeadingDeg = rng.Uniform(0, 360)
		wantB := LayoutAnchoredInto(nil, nil, cam, poseB, stripSightings(carrying), occl, opts)
		requireSameLayout(t, "built at A, laid out at B", LayoutAnchoredInto(nil, &scratch, cam, poseB, carrying, occl, opts), wantB)
		// Laid-out annotations still carry pose A's distance; feeding them back
		// in at B must not reuse it either.
		requireSameLayout(t, "laid out at A, then at B", LayoutAnchoredInto(nil, nil, cam, poseB, got, occl, opts), LayoutAnchoredInto(nil, nil, cam, poseB, stripSightings(got), occl, opts))
	}
	if placed == 0 {
		t.Fatal("degenerate scene set: nothing placed")
	}
}

// TestProjectMatchesCarriedProjection: the public per-point Project and the
// layout's projection of a carrying annotation give the same screen position,
// anchors closer than the half-metre cut-off included.
func TestProjectMatchesCarriedProjection(t *testing.T) {
	var pois []geo.POI
	for i := 0; i < 120; i++ {
		pois = append(pois, poiAt(uint64(i+1), float64(i*3%360), 0.2+float64(i*7%300), 5+float64(i%35)))
	}
	from := geo.OriginAt(pose.Position)
	for _, a := range AnnotationsFromPOIsInto(nil, pose, pois) {
		wantPos, wantOK := projectPoint(cam, pose, a.Anchor, a.AnchorHM)
		pos, bearing, ok := cam.Project(pose, &from, &a)
		if ok != wantOK || pos != wantPos {
			t.Fatalf("annotation %d: projected to %+v %v, Project gives %+v %v", a.ID, pos, ok, wantPos, wantOK)
		}
		if ok && bearing != geo.BearingDegrees(pose.Position, a.Anchor) {
			t.Fatalf("annotation %d: projection reports bearing %v, BearingDegrees %v", a.ID, bearing, geo.BearingDegrees(pose.Position, a.Anchor))
		}
	}
}

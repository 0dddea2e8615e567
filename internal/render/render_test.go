package render

import (
	"math"
	"testing"

	"arbd/internal/geo"
	"arbd/internal/sensor"
)

var (
	origin = geo.Point{Lat: 22.3364, Lon: 114.2655}
	pose   = sensor.Pose{Position: origin, HeadingDeg: 0, AltitudeM: 1.6}
	cam    = DefaultCamera
)

func poiAt(id uint64, bearing, dist, height float64) geo.POI {
	return geo.POI{
		ID:           id,
		Name:         "poi",
		Location:     geo.Destination(origin, bearing, dist),
		HeightMeters: height,
	}
}

func TestProjectCenterAhead(t *testing.T) {
	target := geo.Destination(origin, 0, 50)
	pos, ok := cam.Project(pose, target, 1.6)
	if !ok {
		t.Fatal("dead-ahead target not visible")
	}
	if math.Abs(pos.X-640) > 2 {
		t.Fatalf("X = %.1f, want ~640", pos.X)
	}
	if math.Abs(pos.Y-360) > 2 {
		t.Fatalf("Y = %.1f, want ~360 (eye level)", pos.Y)
	}
	if math.Abs(pos.Depth-50) > 1 {
		t.Fatalf("depth = %.1f", pos.Depth)
	}
}

func TestProjectHorizontalMapping(t *testing.T) {
	// 15° right of axis on a 60° FOV, 1280 px screen → 640 + 15/60*1280 = 960.
	target := geo.Destination(origin, 15, 50)
	pos, ok := cam.Project(pose, target, 1.6)
	if !ok {
		t.Fatal("in-FOV target not visible")
	}
	if math.Abs(pos.X-960) > 3 {
		t.Fatalf("X = %.1f, want ~960", pos.X)
	}
}

func TestProjectRejectsOutsideFrustum(t *testing.T) {
	if _, ok := cam.Project(pose, geo.Destination(origin, 90, 50), 1.6); ok {
		t.Fatal("target 90° off-axis visible")
	}
	if _, ok := cam.Project(pose, geo.Destination(origin, 180, 50), 1.6); ok {
		t.Fatal("target behind visible")
	}
	// Far above the vertical FOV at close range.
	if _, ok := cam.Project(pose, geo.Destination(origin, 0, 10), 100); ok {
		t.Fatal("target far above VFOV visible")
	}
	// Too close.
	if _, ok := cam.Project(pose, origin, 1.6); ok {
		t.Fatal("zero-distance target visible")
	}
}

func TestProjectHigherTargetsHigherOnScreen(t *testing.T) {
	low, ok1 := cam.Project(pose, geo.Destination(origin, 0, 60), 2)
	high, ok2 := cam.Project(pose, geo.Destination(origin, 0, 60), 12)
	if !ok1 || !ok2 {
		t.Fatal("targets not visible")
	}
	if high.Y >= low.Y {
		t.Fatalf("higher target not higher on screen: %.1f vs %.1f", high.Y, low.Y)
	}
}

func TestIsOccluded(t *testing.T) {
	// A 40 m building at 30 m dead ahead hides a 10 m target at 100 m.
	occ := []Occluder{{Location: geo.Destination(origin, 0, 30), HeightM: 40, WidthM: 20}}
	target := geo.Destination(origin, 0, 100)
	if !IsOccluded(pose, target, 10, occ) {
		t.Fatal("target behind tall building not occluded")
	}
	// Same target off to the side is clear.
	side := geo.Destination(origin, 40, 100)
	if IsOccluded(pose, side, 10, occ) {
		t.Fatal("side target occluded")
	}
	// A short wall does not block the sight line to a tall target's top.
	lowOcc := []Occluder{{Location: geo.Destination(origin, 0, 30), HeightM: 3, WidthM: 20}}
	if IsOccluded(pose, target, 50, lowOcc) {
		t.Fatal("short occluder blocked tall target")
	}
	// Occluders behind the target don't count.
	behind := []Occluder{{Location: geo.Destination(origin, 0, 150), HeightM: 100, WidthM: 20}}
	if IsOccluded(pose, target, 10, behind) {
		t.Fatal("occluder behind target blocked it")
	}
}

func TestOccludersFromPOIs(t *testing.T) {
	pois := []geo.POI{poiAt(1, 0, 50, 80), poiAt(2, 0, 60, 5)}
	occ := OccludersFromPOIs(pois, 30)
	if len(occ) != 1 || occ[0].HeightM != 80 {
		t.Fatalf("occluders = %v", occ)
	}
}

// denseScene builds n annotations clustered in the camera's view.
func denseScene(n int) []Annotation {
	var anns []Annotation
	for i := 0; i < n; i++ {
		bearing := -25 + 50*float64(i)/float64(n)
		dist := 30 + float64(i%7)*20
		anns = append(anns, Annotation{
			ID:       uint64(i + 1),
			Label:    "a",
			Anchor:   geo.Destination(origin, bearing, dist),
			AnchorHM: 5,
			Priority: float64(n - i),
		})
	}
	return anns
}

func TestLayoutBubblesOverlapHeavily(t *testing.T) {
	laid := LayoutBubbles(cam, pose, denseScene(60))
	if len(laid) == 0 {
		t.Fatal("nothing drawn")
	}
	m := MeasureClutter(cam, pose, laid, nil)
	if m.OverlapFraction < 0.1 {
		t.Fatalf("dense bubbles overlap = %.3f; expected heavy clutter", m.OverlapFraction)
	}
}

func TestLayoutAnchoredAvoidsOverlap(t *testing.T) {
	laid := LayoutAnchored(cam, pose, denseScene(60), nil, LayoutOptions{})
	if len(laid) == 0 {
		t.Fatal("nothing drawn")
	}
	m := MeasureClutter(cam, pose, laid, nil)
	if m.OverlapFraction > 1e-9 {
		t.Fatalf("anchored layout overlap = %.4f, want 0", m.OverlapFraction)
	}
	if m.OffscreenBoxes != 0 {
		t.Fatalf("offscreen boxes = %d", m.OffscreenBoxes)
	}
	// It must draw less than the bubble engine (it culls what cannot fit)
	// but a reasonable share.
	if len(laid) < 10 {
		t.Fatalf("anchored layout drew only %d", len(laid))
	}
}

func TestLayoutAnchoredPrefersHighPriority(t *testing.T) {
	anns := denseScene(100)
	laid := LayoutAnchored(cam, pose, anns, nil, LayoutOptions{})
	if len(laid) == 0 {
		t.Fatal("nothing drawn")
	}
	drawn := map[uint64]bool{}
	for _, a := range laid {
		drawn[a.ID] = true
	}
	// The top-priority annotation (ID 1) must always be drawn.
	if !drawn[1] {
		t.Fatal("highest-priority annotation culled")
	}
}

func TestLayoutOccludedHandling(t *testing.T) {
	occluders := []Occluder{{Location: geo.Destination(origin, 0, 20), HeightM: 60, WidthM: 40}}
	anns := []Annotation{{
		ID: 1, Anchor: geo.Destination(origin, 0, 100), AnchorHM: 5, Priority: 1,
	}}
	// Anchored: drawn, marked X-ray.
	laid := LayoutAnchored(cam, pose, anns, occluders, LayoutOptions{})
	if len(laid) != 1 || !laid[0].XRay || !laid[0].Occluded {
		t.Fatalf("x-ray handling: %+v", laid)
	}
	// Bubbles: drawn with a violation.
	bl := LayoutBubbles(cam, pose, anns)
	m := MeasureClutter(cam, pose, bl, occluders)
	if m.OcclusionViolations != 1 {
		t.Fatalf("bubble occlusion violations = %d, want 1", m.OcclusionViolations)
	}
}

func TestAnchoredBeatsBubblesOnClutter(t *testing.T) {
	city := geo.GenerateCity(geo.CityConfig{Center: origin, RadiusM: 300, NumPOIs: 400, TallRatio: 0.3, Seed: 5})
	occluders := OccludersFromPOIs(city, 30)
	anns := AnnotationsFromPOIs(pose, city)
	bubbles := MeasureClutter(cam, pose, LayoutBubbles(cam, pose, anns), occluders)
	anchored := MeasureClutter(cam, pose, LayoutAnchored(cam, pose, anns, occluders, LayoutOptions{}), occluders)
	if anchored.OverlapFraction >= bubbles.OverlapFraction {
		t.Fatalf("anchored overlap %.3f not below bubbles %.3f",
			anchored.OverlapFraction, bubbles.OverlapFraction)
	}
	if anchored.OcclusionViolations >= bubbles.OcclusionViolations && bubbles.OcclusionViolations > 0 {
		t.Fatalf("anchored violations %d not below bubbles %d",
			anchored.OcclusionViolations, bubbles.OcclusionViolations)
	}
}

func TestJitterStableWhenStill(t *testing.T) {
	anns := denseScene(30)
	a := LayoutAnchored(cam, pose, anns, nil, LayoutOptions{})
	b := LayoutAnchored(cam, pose, anns, nil, LayoutOptions{})
	if j := Jitter(a, b); j != 0 {
		t.Fatalf("jitter with identical pose = %.2f", j)
	}
}

func TestJitterGrowsWithMotion(t *testing.T) {
	anns := denseScene(30)
	a := LayoutAnchored(cam, pose, anns, nil, LayoutOptions{})
	moved := pose
	moved.HeadingDeg += 2
	b := LayoutAnchored(cam, moved, anns, nil, LayoutOptions{})
	if j := Jitter(a, b); j <= 0 {
		t.Fatalf("jitter after turn = %.2f, want > 0", j)
	}
	if j := Jitter(nil, b); j != 0 {
		t.Fatal("jitter against empty prev not 0")
	}
}

func TestAnnotationsFromPOIs(t *testing.T) {
	pois := []geo.POI{poiAt(1, 0, 20, 50), poiAt(2, 0, 200, 50)}
	anns := AnnotationsFromPOIs(pose, pois)
	if len(anns) != 2 {
		t.Fatalf("anns = %d", len(anns))
	}
	if anns[0].Priority <= anns[1].Priority {
		t.Fatal("nearer POI not prioritised")
	}
	if anns[0].AnchorHM > 8 || anns[0].AnchorHM < 2 {
		t.Fatalf("anchor height %v not clamped to facade band", anns[0].AnchorHM)
	}
}

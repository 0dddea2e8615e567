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

// projectPoint maps a world point (with a height above ground) onto the
// screen for the pose through the camera's per-annotation projection.
func projectPoint(c Camera, pose sensor.Pose, target geo.Point, heightM float64) (ScreenPos, bool) {
	from := geo.OriginAt(pose.Position)
	pos, _, ok := c.Project(pose, &from, &Annotation{Anchor: target, AnchorHM: heightM})
	return pos, ok
}

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
	pos, ok := projectPoint(cam, pose, target, 1.6)
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
	pos, ok := projectPoint(cam, pose, target, 1.6)
	if !ok {
		t.Fatal("in-FOV target not visible")
	}
	if math.Abs(pos.X-960) > 3 {
		t.Fatalf("X = %.1f, want ~960", pos.X)
	}
}

func TestProjectRejectsOutsideFrustum(t *testing.T) {
	if _, ok := projectPoint(cam, pose, geo.Destination(origin, 90, 50), 1.6); ok {
		t.Fatal("target 90° off-axis visible")
	}
	if _, ok := projectPoint(cam, pose, geo.Destination(origin, 180, 50), 1.6); ok {
		t.Fatal("target behind visible")
	}
	// Far above the vertical FOV at close range.
	if _, ok := projectPoint(cam, pose, geo.Destination(origin, 0, 10), 100); ok {
		t.Fatal("target far above VFOV visible")
	}
	// Too close.
	if _, ok := projectPoint(cam, pose, origin, 1.6); ok {
		t.Fatal("zero-distance target visible")
	}
}

func TestProjectHigherTargetsHigherOnScreen(t *testing.T) {
	low, ok1 := projectPoint(cam, pose, geo.Destination(origin, 0, 60), 2)
	high, ok2 := projectPoint(cam, pose, geo.Destination(origin, 0, 60), 12)
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

func TestLayoutAnchoredPrefersHighPriority(t *testing.T) {
	anns := denseScene(100)
	laid := LayoutAnchoredInto(nil, nil, cam, pose, anns, nil, LayoutOptions{})
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

func TestAnnotationsFromPOIs(t *testing.T) {
	pois := []geo.POI{poiAt(1, 0, 20, 50), poiAt(2, 0, 200, 50)}
	anns := AnnotationsFromPOIsInto(nil, pose, pois)
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

package repro

import (
	"testing"

	"arbd/internal/geo"
	"arbd/internal/render"
	"arbd/internal/sensor"
)

var (
	origin = geo.CityCenter
	pose   = sensor.Pose{Position: origin, HeadingDeg: 0, AltitudeM: 1.6}
	cam    = render.DefaultCamera
)

// denseScene builds n annotations clustered in the camera's view.
func denseScene(n int) []render.Annotation {
	var anns []render.Annotation
	for i := 0; i < n; i++ {
		bearing := -25 + 50*float64(i)/float64(n)
		dist := 30 + float64(i%7)*20
		anns = append(anns, render.Annotation{
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
	laid := layoutBubbles(cam, pose, denseScene(60))
	if len(laid) == 0 {
		t.Fatal("nothing drawn")
	}
	m := measureClutter(cam, pose, laid, nil)
	if m.OverlapFraction < 0.1 {
		t.Fatalf("dense bubbles overlap = %.3f; expected heavy clutter", m.OverlapFraction)
	}
}

func TestLayoutAnchoredAvoidsOverlap(t *testing.T) {
	laid := render.LayoutAnchoredInto(nil, nil, cam, pose, denseScene(60), nil, render.LayoutOptions{})
	if len(laid) == 0 {
		t.Fatal("nothing drawn")
	}
	m := measureClutter(cam, pose, laid, nil)
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

func TestLayoutOccludedHandling(t *testing.T) {
	occluders := []render.Occluder{{Location: geo.Destination(origin, 0, 20), HeightM: 60, WidthM: 40}}
	anns := []render.Annotation{{
		ID: 1, Anchor: geo.Destination(origin, 0, 100), AnchorHM: 5, Priority: 1,
	}}
	// Anchored: drawn, marked X-ray.
	laid := render.LayoutAnchoredInto(nil, nil, cam, pose, anns, occluders, render.LayoutOptions{})
	if len(laid) != 1 || !laid[0].XRay || !laid[0].Occluded {
		t.Fatalf("x-ray handling: %+v", laid)
	}
	// Bubbles: drawn with a violation.
	bl := layoutBubbles(cam, pose, anns)
	m := measureClutter(cam, pose, bl, occluders)
	if m.OcclusionViolations != 1 {
		t.Fatalf("bubble occlusion violations = %d, want 1", m.OcclusionViolations)
	}
}

func TestAnchoredBeatsBubblesOnClutter(t *testing.T) {
	city := geo.GenerateCity(geo.CityConfig{Center: origin, RadiusM: 300, NumPOIs: 400, TallRatio: 0.3, Seed: 5})
	occluders := render.OccludersFromPOIs(city, 30)
	anns := render.AnnotationsFromPOIsInto(nil, pose, city)
	bubbles := measureClutter(cam, pose, layoutBubbles(cam, pose, anns), occluders)
	anchored := measureClutter(cam, pose, render.LayoutAnchoredInto(nil, nil, cam, pose, anns, occluders, render.LayoutOptions{}), occluders)
	if anchored.OverlapFraction >= bubbles.OverlapFraction {
		t.Fatalf("anchored overlap %.3f not below bubbles %.3f",
			anchored.OverlapFraction, bubbles.OverlapFraction)
	}
	if anchored.OcclusionViolations >= bubbles.OcclusionViolations && bubbles.OcclusionViolations > 0 {
		t.Fatalf("anchored violations %d not below bubbles %d",
			anchored.OcclusionViolations, bubbles.OcclusionViolations)
	}
}

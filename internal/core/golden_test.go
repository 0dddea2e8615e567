package core

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"testing"
	"time"

	"arbd/internal/analytics"
	"arbd/internal/geo"
	"arbd/internal/sensor"
	"arbd/internal/sim"
	"arbd/internal/wire"
)

// goldenWalkSHA256 is the digest of the walk below, recorded at the commit
// before the frame's geo query was bounded and its occluders pruned per
// frame. It moves only when a frame's bytes move: re-record it on purpose
// or not at all.
const goldenWalkSHA256 = "b48ee7286a6f8da9a49b362374052ede53d5029513f4a21c577abaa54c198cff"

// TestGoldenWalkDigest renders a seeded walk through the dense 5,000-POI
// city — ~1,400 POIs in radius and ~1,000 occluders at the centre, the case
// where the frame uses the smallest share of what the city holds — and
// requires every encoded frame to be byte-identical to the recorded run.
func TestGoldenWalkDigest(t *testing.T) {
	const frames = 240
	p := newTestPlatform(t, Config{
		Seed:  1,
		City:  geo.CityConfig{Center: center, RadiusM: 3000, NumPOIs: 5000, TallRatio: 0.2, Seed: 1},
		clock: sim.NewVirtualClock(sim.Epoch),
	})
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := p.Stop(); err != nil {
			t.Error(err)
		}
	}()
	// Give interpretation something to say: a crowd-view row for three
	// POIs in ten, and one hot POI so crowding has a denominator.
	for id := 1; id <= 5000; id++ {
		if id%10 < 3 {
			p.CrowdView().Apply(analytics.Row{Group: "poi-" + strconv.Itoa(id), Value: float64(1 + id%7)})
		}
	}
	s := p.NewSession()
	for i := 0; i < 6; i++ {
		if err := s.RecordInteraction(30, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.WaitAnalyticsIdle(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	rng := sim.NewRand(7).Child("golden-walk")
	pos, heading := center, 40.0
	h := sha256.New()
	var buf wire.Buffer
	placed := 0
	for k := 0; k < frames; k++ {
		at := sim.Epoch.Add(time.Duration(k) * 500 * time.Millisecond)
		heading += rng.Uniform(-35, 35)
		pos = geo.Destination(pos, heading, rng.Uniform(2, 9))
		if err := s.OnGPS(sensor.GPSFix{Time: at, Position: pos, AccuracyM: 4}); err != nil {
			t.Fatal(err)
		}
		s.OnIMU(sensor.IMUSample{Time: at, CompassDeg: heading})
		f, err := s.Frame(at)
		if err != nil {
			t.Fatal(err)
		}
		placed += len(f.Annotations)
		buf.Reset()
		EncodeFrameInto(&buf, f)
		h.Write(buf.Bytes())
	}
	if placed < frames {
		t.Fatalf("walk placed %d annotations over %d frames: too empty to pin anything", placed, frames)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenWalkSHA256 {
		t.Fatalf("golden walk digest = %s, want %s: encoded frames changed", got, goldenWalkSHA256)
	}
}

package core

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
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

// goldenDeltaWalkSHA256 is the digest of the delta payloads of the same
// walk, each encoded against the frame before it. It pins the delta
// encoding, and so the base a session keeps between frames: it moves only
// when a delta's bytes move.
const goldenDeltaWalkSHA256 = "53f857160b53f0162877f464b6dbf25aa0f467ee32f8dd50958b5776c3a43258"

// goldenWalkFrames is the length of the golden walk.
const goldenWalkFrames = 240

// goldenWalk renders a seeded walk through the dense 5,000-POI city — ~1,400
// POIs in radius and ~1,000 occluders at the centre, the case where the
// frame uses the smallest share of what the city holds — and hands each
// frame to visit before the next one renders.
func goldenWalk(t *testing.T, visit func(f *Frame)) {
	t.Helper()
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
	for k := 0; k < goldenWalkFrames; k++ {
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
		visit(f)
	}
}

// TestGoldenWalkDigest requires every encoded frame of the golden walk to
// be byte-identical to the recorded run.
func TestGoldenWalkDigest(t *testing.T) {
	h := sha256.New()
	var buf wire.Buffer
	placed := 0
	goldenWalk(t, func(f *Frame) {
		placed += len(f.Annotations)
		buf.Reset()
		EncodeFrameInto(&buf, f)
		h.Write(buf.Bytes())
	})
	if placed < goldenWalkFrames {
		t.Fatalf("walk placed %d annotations over %d frames: too empty to pin anything", placed, goldenWalkFrames)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenWalkSHA256 {
		t.Fatalf("golden walk digest = %s, want %s: encoded frames changed", got, goldenWalkSHA256)
	}
}

// TestGoldenDeltaWalkDigest encodes each frame of the golden walk as a
// delta against the frame before it, applies it to the client's copy of
// that frame, and requires the result to equal the frame's full encoding,
// decoded. The delta payloads' digest must match the recorded run.
func TestGoldenDeltaWalkDigest(t *testing.T) {
	h := sha256.New()
	var full, delta wire.Buffer
	var prev *DecodedFrame
	diffs := 0
	goldenWalk(t, func(f *Frame) {
		full.Reset()
		EncodeFrameInto(&full, f)
		delta.Reset()
		EncodeFrameDeltaInto(&delta, f, false)
		h.Write(delta.Bytes())
		if !FrameDeltaIsKeyframe(delta.Bytes()) {
			diffs++
		}
		want, err := DecodeFrame(full.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		got, err := ApplyFrameDelta(prev, delta.Bytes())
		if err != nil {
			t.Fatalf("frame %d: %v", f.Index, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: delta applied to the previous frame differs from the full encoding", f.Index)
		}
		prev = got
	})
	if diffs < goldenWalkFrames-1 {
		t.Fatalf("%d of %d frames encoded as diffs: every frame after the first has a base", diffs, goldenWalkFrames)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDeltaWalkSHA256 {
		t.Fatalf("golden delta walk digest = %s, want %s: delta payloads changed", got, goldenDeltaWalkSHA256)
	}
}

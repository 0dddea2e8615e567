package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"arbd/internal/analytics"
	"arbd/internal/geo"
	"arbd/internal/sensor"
	"arbd/internal/wire"
)

// snapshotTestPlatform builds a platform whose analytics plane is never
// started: what sessions publish stays on its broker, countable.
func snapshotTestPlatform(t testing.TB) *Platform {
	t.Helper()
	p, err := NewPlatform(Config{
		Seed: 7,
		City: geo.CityConfig{Center: center, RadiusM: 2000, NumPOIs: 1500, TallRatio: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// driveSession feeds a session a deterministic sensor history and some
// frames, leaving non-trivial state in every snapshot field.
func driveSession(t testing.TB, s *Session) {
	t.Helper()
	base := time.Unix(1700000000, 0)
	for i := 0; i < 10; i++ {
		now := base.Add(time.Duration(i) * 100 * time.Millisecond)
		pos := geo.Destination(center, float64(i*36), float64(50+i*10))
		if err := s.OnGPS(sensor.GPSFix{Time: now, Position: pos, AccuracyM: 4}); err != nil {
			t.Fatal(err)
		}
		s.OnIMU(sensor.IMUSample{Time: now.Add(50 * time.Millisecond), GyroZRad: 0.1, AccelMps2: 0.3, CompassDeg: 80})
	}
	if err := s.OnGaze(sensor.GazeSample{Time: base.Add(time.Second), TargetID: 12, DwellMS: 2000}); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordInteraction(33, 0.7); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Frame(base.Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
	}
}

// seedAnalytics gives a platform's crowd view and heavy-hitter sketch a
// deterministic state over the given POI IDs, so interpretation-dependent
// frame content (tags derived from the sketch's TopK snapshot and the
// crowd aggregates) is identical across the source and destination
// platforms. The IDs should be POIs near the session's pose so the frame
// pipeline actually consults them.
func seedAnalytics(p *Platform, ids []uint64) {
	p.hotMu.Lock()
	for rank, id := range ids {
		for i := 0; i <= 50*(len(ids)-rank); i++ {
			p.hot.Add(poiKey(id))
		}
	}
	p.hotMu.Unlock()
	for rank, id := range ids {
		p.crowd.Apply(analytics.Row{Group: poiKey(id), Value: float64(50 * (len(ids) - rank))})
	}
}

// TestSessionSnapshotRoundTrip pins the migration serialization contract:
// export → import preserves gaze dwell, tracking state and counters — and
// the restored session's next frame is byte-identical to the frame the
// source would have rendered against the same analytics state (including
// the sketch-TopK-derived tags).
func TestSessionSnapshotRoundTrip(t *testing.T) {
	src := snapshotTestPlatform(t)
	dst := snapshotTestPlatform(t) // same world config, fresh registry

	s := src.NewSession()
	driveSession(t, s)

	// Seed both platforms' analytics identically over POIs near the pose,
	// so the compared frames exercise the sketch-TopK interpretation path.
	var nearIDs []uint64
	for _, poi := range src.POIs().Nearest(s.Pose().Position, 8) {
		nearIDs = append(nearIDs, poi.ID)
	}
	seedAnalytics(src, nearIDs)
	seedAnalytics(dst, nearIDs)

	// Capture pre-snapshot observables for comparison.
	wantStats := s.Stats()
	wantPose := s.Pose()
	s.mu.Lock()
	wantGaze := make(map[uint64]float64, len(s.gaze))
	for k, v := range s.gaze {
		wantGaze[k] = v
	}
	s.mu.Unlock()

	var buf wire.Buffer
	s.EncodeSnapshotInto(&buf)
	if !src.DetachSession(s.ID) {
		t.Fatal("source session not live at detach")
	}
	if _, live := src.Session(s.ID); live {
		t.Fatal("session still in source registry after detach")
	}

	r, err := dst.RestoreSession(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != s.ID {
		t.Fatalf("restored ID %d, want %d", r.ID, s.ID)
	}
	if got, live := dst.Session(s.ID); !live || got != r {
		t.Fatal("restored session not registered in destination")
	}

	if got := r.Stats(); got != wantStats {
		t.Fatalf("restored stats %+v, want %+v", got, wantStats)
	}
	if got := r.Pose(); got != wantPose {
		t.Fatalf("restored pose %+v, want %+v", got, wantPose)
	}
	r.mu.Lock()
	gotGaze := r.gaze
	r.mu.Unlock()
	if !reflect.DeepEqual(gotGaze, wantGaze) {
		t.Fatalf("restored gaze %v, want %v", gotGaze, wantGaze)
	}

	// Tracking continuity: both fusers must make identical predictions.
	if src.cfg.City.Center != dst.cfg.City.Center {
		t.Fatal("test platforms disagree on origin")
	}
	if ss, rs := s.fuser.ExportState(), r.fuser.ExportState(); ss.GPSUpdates != rs.GPSUpdates || ss.VisionUpdates != rs.VisionUpdates {
		t.Fatalf("update counts (%d,%d) restored as (%d,%d)", ss.GPSUpdates, ss.VisionUpdates, rs.GPSUpdates, rs.VisionUpdates)
	}

	// Frame equivalence: against identical analytics state, the restored
	// session's next frame must encode byte-identically to the source's —
	// including the interpretation tags drawn from the sketch TopK.
	at := time.Unix(1700000100, 0)
	fs, err := s.Frame(at)
	if err != nil {
		t.Fatal(err)
	}
	fs.Elapsed = 0 // wall-clock measurement: the one legitimately varying field
	var srcFrame wire.Buffer
	EncodeFrameInto(&srcFrame, fs)
	fr, err := r.Frame(at)
	if err != nil {
		t.Fatal(err)
	}
	fr.Elapsed = 0
	var dstFrame wire.Buffer
	EncodeFrameInto(&dstFrame, fr)
	if string(srcFrame.Bytes()) != string(dstFrame.Bytes()) {
		t.Fatalf("restored session renders a different frame (%d vs %d bytes)", srcFrame.Len(), dstFrame.Len())
	}
	if len(fr.TagsFor) == 0 {
		t.Fatal("frames carried no interpretation tags; sketch-TopK equivalence untested")
	}

	// A second import of the same ID must fail loudly.
	if _, err := dst.RestoreSession(buf.Bytes()); err == nil {
		t.Fatal("duplicate snapshot import accepted")
	}

	// Future platform-assigned IDs must not collide with the imported one.
	if ns := dst.NewSession(); ns.ID <= r.ID {
		t.Fatalf("NewSession minted %d, colliding with imported watermark %d", ns.ID, r.ID)
	}
}

// TestSessionSnapshotBytesAreDeterministic: a snapshot's bytes are a
// function of the session's state. One unchanged session with many gaze
// entries encodes identically call after call, and a restored session
// re-encodes to the bytes it was restored from.
func TestSessionSnapshotBytesAreDeterministic(t *testing.T) {
	src := snapshotTestPlatform(t)
	dst := snapshotTestPlatform(t)
	s := src.NewSession()
	driveSession(t, s)
	at := time.Unix(1700000000, 0)
	for id := uint64(100); id < 132; id++ {
		// Under 1,500 ms a gaze is dwell only, not telemetry.
		if err := s.OnGaze(sensor.GazeSample{Time: at, TargetID: id * 7, DwellMS: float64(id)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.gaze); n < 20 {
		t.Fatalf("session holds %d gaze entries, want ≥ 20", n)
	}

	var buf wire.Buffer
	s.EncodeSnapshotInto(&buf)
	want := bytes.Clone(buf.Bytes())
	for i := 0; i < 20; i++ {
		buf.Reset()
		s.EncodeSnapshotInto(&buf)
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("encoding %d of an unchanged session differs from the first", i+2)
		}
	}

	src.DetachSession(s.ID)
	r, err := dst.RestoreSession(want)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	r.EncodeSnapshotInto(&buf)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("encode → restore → encode changed the snapshot's bytes")
	}
}

// TestMigrationPublishesTelemetryOnce: a migrating session's telemetry is
// published exactly once. Gazes sent before the export land on the source's
// interaction topic, gazes sent after the import on the destination's, the
// two counts sum to what was sent, and the snapshot carries no record.
func TestMigrationPublishesTelemetryOnce(t *testing.T) {
	src := snapshotTestPlatform(t)
	dst := snapshotTestPlatform(t)
	const before, after = 7, 5
	gaze := func(s *Session, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := s.OnGaze(sensor.GazeSample{TargetID: uint64(i%3 + 1), DwellMS: 2000}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := src.NewSession()
	gaze(s, before)

	var buf wire.Buffer
	s.EncodeSnapshotInto(&buf)
	for id := uint64(1); id <= 3; id++ {
		if rec := appendInteraction(nil, id, s.ID, 0.3); bytes.Contains(buf.Bytes(), rec) {
			t.Fatalf("snapshot carries the interaction record for POI %d", id)
		}
	}
	src.DetachSession(s.ID)
	r, err := dst.RestoreSession(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	gaze(r, after)

	onSrc, onDst := countRecords(t, src), countRecords(t, dst)
	if onSrc != before || onDst != after {
		t.Fatalf("interactions on source %d + destination %d, want %d + %d = the %d sent",
			onSrc, onDst, before, after, before+after)
	}
}

// TestSessionSnapshotRestoredFrameAllocs re-pins the zero-allocation frame
// budget on a restored session: migration must hand back a session whose
// scratch warms up to the same steady state as a native one.
func TestSessionSnapshotRestoredFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	src := snapshotTestPlatform(t)
	dst := snapshotTestPlatform(t)
	s := src.NewSession()
	driveSession(t, s)

	var buf wire.Buffer
	s.EncodeSnapshotInto(&buf)
	src.DetachSession(s.ID)
	r, err := dst.RestoreSession(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1700000100, 0)
	for i := 0; i < 20; i++ {
		if _, err := r.Frame(now); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := r.Frame(now); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("restored session frames allocate %.1f objects/op in steady state, want ≤1", allocs)
	}
}

// TestSessionSnapshotRejectsCorruptPayloads: truncations and an unknown
// version — version 1, which carried buffered telemetry, and version 2,
// which carried an RNG stream position, included — must fail typed, never
// panic or half-import.
func TestSessionSnapshotRejectsCorruptPayloads(t *testing.T) {
	src := snapshotTestPlatform(t)
	dst := snapshotTestPlatform(t)
	s := src.NewSession()
	driveSession(t, s)
	var buf wire.Buffer
	s.EncodeSnapshotInto(&buf)
	full := buf.Bytes()

	for _, n := range []int{0, 1, 3, 10, len(full) / 2, len(full) - 1} {
		if _, err := dst.RestoreSession(full[:n]); err == nil {
			t.Fatalf("truncated snapshot (%d of %d bytes) accepted", n, len(full))
		}
		if got := dst.NumSessions(); got != 0 {
			t.Fatalf("failed import leaked %d sessions into the registry", got)
		}
	}
	for _, version := range []byte{1, 2, 99} {
		bad := append([]byte(nil), full...)
		bad[0] = version
		want := fmt.Sprintf("unknown session snapshot version %d", version)
		if _, err := dst.RestoreSession(bad); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("snapshot version %d: err = %v, want %q", version, err, want)
		}
	}

	// An implausible gaze count must be rejected before restore allocates
	// for it: rebuild the snapshot prefix with a huge count field.
	var forged wire.Buffer
	forged.Byte(sessionSnapshotV3)
	forged.Uvarint(s.ID + 1000) // fresh ID
	forged.Uvarint(0)           // level
	forged.Uvarint(0)           // frames
	forged.Uvarint(0)           // overruns
	forged.Uvarint(1 << 50)     // gaze entries
	if _, err := dst.RestoreSession(forged.Bytes()); err == nil || !strings.Contains(err.Error(), "gaze entry count") {
		t.Fatalf("implausible gaze entry count not rejected: %v", err)
	}
}

// FuzzRestoreSession feeds hostile bytes to RestoreSession, the shard's
// session import path: it must never panic, and whatever it does not accept
// it refuses with an error.
func FuzzRestoreSession(f *testing.F) {
	p := snapshotTestPlatform(f)
	s := p.NewSession()
	driveSession(f, s)
	var buf wire.Buffer
	s.EncodeSnapshotInto(&buf)
	p.DetachSession(s.ID)
	f.Add(append([]byte(nil), buf.Bytes()...))
	f.Add([]byte{sessionSnapshotV3})
	f.Fuzz(func(t *testing.T, payload []byte) {
		s, err := p.RestoreSession(payload)
		if err != nil {
			return
		}
		if s == nil {
			t.Fatal("RestoreSession returned neither a session nor an error")
		}
		p.DetachSession(s.ID) // free the ID for the next input
	})
}

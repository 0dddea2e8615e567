package core

import (
	"testing"
	"time"

	"arbd/internal/geo"
	"arbd/internal/sensor"
	"arbd/internal/sim"
	"arbd/internal/wire"
)

// TestLoadSignalRoundTrip checks the MsgLoad payload codec a shard pushes
// and a router decodes.
func TestLoadSignalRoundTrip(t *testing.T) {
	for _, sig := range []LoadSignal{
		{},
		{FlushLatency: 3 * time.Millisecond},
		{Backlog: 9000},
		{FlushLatency: 250 * time.Microsecond, Backlog: 1 << 40},
	} {
		var b wire.Buffer
		EncodeLoadSignalInto(&b, sig)
		got, err := DecodeLoadSignal(b.Bytes())
		if err != nil {
			t.Fatalf("%+v: %v", sig, err)
		}
		if got != sig {
			t.Fatalf("round trip: got %+v, want %+v", got, sig)
		}
		// Reuse after Reset must reproduce the bytes (the shard's load loop
		// reuses one buffer).
		first := append([]byte(nil), b.Bytes()...)
		b.Reset()
		EncodeLoadSignalInto(&b, sig)
		if string(first) != string(b.Bytes()) {
			t.Fatalf("%+v: encode differs after buffer reuse", sig)
		}
	}
	if _, err := DecodeLoadSignal(nil); err == nil {
		t.Fatal("empty load signal decoded")
	}
	if _, err := DecodeLoadSignal([]byte{5}); err == nil {
		t.Fatal("truncated load signal decoded")
	}
}

// FuzzDecodeLoadSignal: a router decodes every MsgLoad a shard pushes.
// Decode must not panic, and decode → encode → decode is a fixed point.
func FuzzDecodeLoadSignal(f *testing.F) {
	var seed wire.Buffer
	EncodeLoadSignalInto(&seed, LoadSignal{FlushLatency: 250 * time.Microsecond, Backlog: 1 << 40})
	f.Add(seed.Bytes())
	f.Add([]byte{0x80})    // truncated latency
	f.Add([]byte{5, 0x80}) // truncated backlog
	f.Add([]byte{5, 1})    // negative backlog
	f.Fuzz(func(t *testing.T, p []byte) {
		sig, err := DecodeLoadSignal(p)
		if err != nil {
			return
		}
		var b wire.Buffer
		EncodeLoadSignalInto(&b, sig)
		if again, err := DecodeLoadSignal(b.Bytes()); err != nil || again != sig {
			t.Fatalf("signal %+v re-decodes as %+v, %v", sig, again, err)
		}
	})
}

// TestSessionOrNew checks the shard-node get-or-create path: IDs are
// honoured, lookups converge on one session, and platform-assigned IDs
// never collide with externally minted ones.
func TestSessionOrNew(t *testing.T) {
	p := newReusePlatform(t)
	s1 := p.SessionOrNew(100)
	if s1.ID != 100 {
		t.Fatalf("SessionOrNew(100).ID = %d", s1.ID)
	}
	if s2 := p.SessionOrNew(100); s2 != s1 {
		t.Fatal("second SessionOrNew(100) returned a different session")
	}
	if got, ok := p.Session(100); !ok || got != s1 {
		t.Fatal("registry lookup disagrees with SessionOrNew")
	}
	// A later platform-assigned session must mint an ID beyond 100.
	if s3 := p.NewSession(); s3.ID <= 100 {
		t.Fatalf("NewSession after SessionOrNew(100) minted ID %d", s3.ID)
	}
	// The created session is fully functional.
	if err := s1.OnGPS(sensor.GPSFix{Time: sim.Epoch, Position: center, AccuracyM: 3}); err != nil {
		t.Fatal(err)
	}
	f, err := s1.Frame(sim.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Annotations) == 0 {
		t.Fatal("router-minted session rendered an empty frame")
	}
	if !p.DetachSession(100) {
		t.Fatal("DetachSession(100) found no live session")
	}
	if _, ok := p.Session(100); ok {
		t.Fatal("session survived DetachSession")
	}
	if p.DetachSession(100) {
		t.Fatal("second DetachSession(100) reported a live session")
	}
}

// TestMixSessionIDSpreads pins the partition mix: sequential IDs must not
// map to sequential partitions (the property both the registry shards and
// the router ring rely on), and the mix must stay stable — it is part of
// the routing contract between independently deployed routers.
func TestMixSessionIDSpreads(t *testing.T) {
	if got := MixSessionID(1); got != 0x5692161d100b05e5 {
		t.Fatalf("MixSessionID(1) = %#x — changing the mix reshuffles every deployed ring", got)
	}
	const parts = 8
	var hit [parts]int
	for id := uint64(1); id <= 4096; id++ {
		hit[MixSessionID(id)%parts]++
	}
	for i, n := range hit {
		if n < 4096/parts/2 || n > 4096/parts*2 {
			t.Fatalf("partition %d got %d of 4096 sessions — mix is not spreading", i, n)
		}
	}
}

// TestFrameSteadyStateAllocs pins the whole-frame allocation budget: with
// the per-session scratch warm, a frame costs at most one heap allocation
// (ROADMAP target after moving the Frame struct and the sketch snapshot
// into scratch).
func TestFrameSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only hold without -race")
	}
	p, err := NewPlatform(Config{
		Seed: 1,
		City: geo.CityConfig{Center: center, RadiusM: 2000, NumPOIs: 2000, TallRatio: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := p.NewSession()
	now := time.Now()
	if err := s.OnGPS(sensor.GPSFix{Time: now, Position: center, AccuracyM: 5}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Frame(now); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Frame(now); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Frame allocates %.1f objects/op in steady state, want ≤1", allocs)
	}
}

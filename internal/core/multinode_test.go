package core

import (
	"math"
	"sort"
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
	if err := p.EndSession(100); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Session(100); ok {
		t.Fatal("session survived EndSession")
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

// TestP2QuantileKnownStream drives the streaming estimator with streams
// whose true quantiles are known and checks the estimate lands near them.
func TestP2QuantileKnownStream(t *testing.T) {
	// Shuffled 1..10000: true p99 = 9900.
	rng := sim.NewRand(99)
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	for i := len(vals) - 1; i > 0; i-- {
		j := int(rng.Int63() % int64(i+1))
		vals[i], vals[j] = vals[j], vals[i]
	}
	q := newP2Quantile(0.99)
	for _, v := range vals {
		q.observe(v)
	}
	est, ok := q.estimate()
	if !ok {
		t.Fatal("estimator not warm after 10000 samples")
	}
	if est < 9800 || est > 9999 {
		t.Fatalf("p99 of shuffled 1..10000 estimated %v, want ≈9900", est)
	}

	// A bimodal stream — 99% fast, 1% slow — is the case the EWMA hides:
	// the p99 estimate must land in the slow mode's neighbourhood, far
	// above the ~1.1 mean.
	q.reset()
	for i := 0; i < 10000; i++ {
		v := 1.0
		if i%100 == 99 {
			v = 50.0
		}
		q.observe(v)
	}
	est, _ = q.estimate()
	if est < 10 {
		t.Fatalf("bimodal p99 estimated %v, want deep into the slow mode (≥10)", est)
	}

	// Cold estimator reports not-ok.
	q.reset()
	q.observe(1)
	if _, ok := q.estimate(); ok {
		t.Fatal("estimator claims warm after one sample")
	}
}

// TestP2QuantileMatchesExactOnUniform compares the estimator against the
// exact quantile for a few targets on a seeded uniform stream.
func TestP2QuantileMatchesExactOnUniform(t *testing.T) {
	rng := sim.NewRand(7)
	const n = 20000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64() * 1000
	}
	for _, target := range []float64{0.5, 0.9, 0.99} {
		q := newP2Quantile(target)
		for _, v := range vals {
			q.observe(v)
		}
		est, ok := q.estimate()
		if !ok {
			t.Fatalf("q=%v not warm", target)
		}
		s := append([]float64(nil), vals...)
		sort.Float64s(s)
		exact := s[int(target*float64(n-1))]
		if math.Abs(est-exact) > 50 { // 5% of the range
			t.Fatalf("q=%v: estimate %v vs exact %v", target, est, exact)
		}
	}
}

// TestFlushLatencySignalPrefersP99 checks admission sees the flush-latency
// tail once the estimator is warm, and the EWMA before that.
func TestFlushLatencySignalPrefersP99(t *testing.T) {
	lt := newLoadTracker(32, 128)
	// Cold: two samples are below the P² warm-up, so the EWMA answers.
	lt.observeFlush(8*time.Millisecond, time.Now())
	lt.observeFlush(8*time.Millisecond, time.Now())
	if got := lt.flushLatency(time.Now()); got == 0 {
		t.Fatal("cold tracker lost the EWMA fallback")
	}
	// Warm, bimodal: mostly 1 ms with a 1-in-50 tail of 100 ms. The EWMA
	// settles near the mean (~3 ms); the p99 signal must sit well above it.
	for i := 0; i < 500; i++ {
		d := time.Millisecond
		if i%50 == 49 {
			d = 100 * time.Millisecond
		}
		lt.observeFlush(d, time.Now())
	}
	sig := lt.flushLatency(time.Now())
	if sig < 10*time.Millisecond {
		t.Fatalf("flush signal %v ignores the tail (EWMA-like), want p99-driven ≥10ms", sig)
	}
	if ew := lt.ewma(time.Now()); sig <= ew {
		t.Fatalf("p99 signal %v not above EWMA %v for a tailed stream", sig, ew)
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

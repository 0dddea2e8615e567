package obs

import (
	"sync"
	"testing"
	"time"

	"arbd/internal/metrics"
)

// TestStageNames pins the stage enum's names (the slow-trace JSON keys).
func TestStageNames(t *testing.T) {
	want := []string{"admission", "queue", "render", "encode", "outbox", "write"}
	for s := Stage(0); s < NumStages; s++ {
		if s.String() != want[s] {
			t.Fatalf("stage %d = %q, want %q", s, s.String(), want[s])
		}
	}
	if Stage(-1).String() != "unknown" || NumStages.String() != "unknown" {
		t.Fatal("out-of-range stages must stringify as unknown")
	}
}

// TestFlightSpansDeterministic drives one flight with caller-supplied
// timestamps and checks the arithmetic exactly: the span sum equals Total,
// each stage gets its window, and blame picks the widest stage.
func TestFlightSpansDeterministic(t *testing.T) {
	r := NewRecorder(metrics.NewRegistry())
	at := time.Now()
	fl := r.Begin(7, at.Add(-20*time.Millisecond))
	fl.SetSeq(3)
	fl.MarkAt(StageQueue, at.Add(10*time.Millisecond))
	fl.MarkAt(StageWrite, at.Add(30*time.Millisecond))
	fl.FinishAt(at.Add(30 * time.Millisecond))

	recs := r.Records(nil)
	if len(recs) != 1 {
		t.Fatalf("ring holds %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Session != 7 || rec.Seq != 3 {
		t.Fatalf("identity = (%d, %d), want (7, 3)", rec.Session, rec.Seq)
	}
	if got, want := time.Duration(rec.Total), 50*time.Millisecond; got != want {
		t.Fatalf("total = %v, want %v", got, want)
	}
	// The marks between Begin and the first MarkAt use real clock reads, but
	// the drift cancels across adjacent spans: the sum is exact.
	if rec.SpanSum() != rec.Total {
		t.Fatalf("span sum %v != total %v", time.Duration(rec.SpanSum()), time.Duration(rec.Total))
	}
	if ad := time.Duration(rec.Spans[StageAdmission]); ad < 20*time.Millisecond {
		t.Fatalf("admission span %v, want >= 20ms (Begin backdated)", ad)
	}
	if wr := time.Duration(rec.Spans[StageWrite]); wr != 20*time.Millisecond {
		t.Fatalf("write span %v, want exactly 20ms", wr)
	}
	if b := rec.Blame(); b != StageAdmission {
		t.Fatalf("blame = %v, want admission", b)
	}
}

// TestMarkSplit checks the externally-measured split: the second stage gets
// the supplied share, the first the (clamped) remainder.
func TestMarkSplit(t *testing.T) {
	r := NewRecorder(metrics.NewRegistry())
	fl := r.Begin(1, time.Now())
	fl.MarkSplit(StageQueue, StageRender, 5*time.Millisecond)
	fl.FinishAt(time.Now())
	rec := r.Records(nil)[0]
	if got := time.Duration(rec.Spans[StageRender]); got != 5*time.Millisecond {
		t.Fatalf("render span = %v, want 5ms", got)
	}
	// The real window since Begin is near zero, so the remainder clamps.
	if q := rec.Spans[StageQueue]; q < 0 {
		t.Fatalf("queue span clamped below zero: %d", q)
	}
}

// TestFinishOutcomes checks the three non-delivery settlements: flags, the
// stage their wait folds into, and the dropped counter.
func TestFinishOutcomes(t *testing.T) {
	reg := metrics.NewRegistry()
	r := NewRecorder(reg)

	r.Begin(1, time.Now()).FinishShed()
	r.Begin(2, time.Now()).FinishDropped()
	r.Begin(3, time.Now()).FinishError()

	byID := map[uint64]FrameRecord{}
	for _, rec := range r.Records(nil) {
		byID[rec.Session] = rec
	}
	if len(byID) != 3 {
		t.Fatalf("ring holds %d records, want 3", len(byID))
	}
	if !byID[1].Shed || byID[1].Dropped || byID[1].Err {
		t.Fatalf("shed record flags = %+v", byID[1])
	}
	if !byID[2].Dropped || byID[2].Shed {
		t.Fatalf("dropped record flags = %+v", byID[2])
	}
	if !byID[3].Err {
		t.Fatalf("error record flags = %+v", byID[3])
	}
	if got := reg.Counter("obs.frames.recorded").Value(); got != 3 {
		t.Fatalf("obs.frames.recorded = %d, want 3", got)
	}
	if got := reg.Counter("obs.frames.dropped").Value(); got != 1 {
		t.Fatalf("obs.frames.dropped = %d, want 1", got)
	}
}

// TestRecorderWraparoundConcurrent hammers a small ring with concurrent
// writers for many times its capacity and checks the seqlock holds: every
// readable record is internally consistent (the Total doubles as a per-record
// checksum over Spans[0]), the ring never yields more than its capacity, the
// exemplar store stays bounded, and no commit was lost without being counted.
func TestRecorderWraparoundConcurrent(t *testing.T) {
	reg := metrics.NewRegistry()
	r := newRecorder(reg, 64, 8)
	const writers = 8
	const perWriter = 500

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		buf := make([]FrameRecord, 0, 64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, rec := range r.Records(buf[:0]) {
				if rec.Total != rec.Spans[0] {
					t.Errorf("torn read: total %d != checksum span %d", rec.Total, rec.Spans[0])
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				marker := int64(g)*1_000_000 + int64(i) + 1
				rec := FrameRecord{Session: uint64(g), Seq: uint64(i)}
				rec.Spans[0] = marker
				rec.Total = marker
				r.commit(&rec)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	recs := r.Records(nil)
	if len(recs) == 0 || len(recs) > 64 {
		t.Fatalf("ring yields %d records, want 1..64", len(recs))
	}
	for _, rec := range recs {
		if rec.Total != rec.Spans[0] {
			t.Fatalf("post-race torn record: %+v", rec)
		}
	}

	// The exemplar store stays at its bound no matter how many latch.
	for i := 0; i < 100; i++ {
		fl := r.Begin(9, time.Now())
		fl.FinishAt(time.Now())
	}
	if got := len(r.Slow(0)); got > 8 {
		t.Fatalf("slow store holds %d exemplars, bound is 8", got)
	}
	if got := len(r.Slow(3)); got > 3 {
		t.Fatalf("Slow(3) returned %d records", got)
	}
}

// TestRecorderZeroAlloc pins the hot path's allocation budget: a full
// Begin → mark → FinishAt cycle must not allocate in steady state (the
// flight pool absorbs the only allocation at warmup).
func TestRecorderZeroAlloc(t *testing.T) {
	r := NewRecorder(metrics.NewRegistry())
	// Warm the pool and the threshold cache.
	for i := 0; i < 64; i++ {
		fl := r.Begin(1, time.Now())
		fl.MarkSplit(StageQueue, StageRender, time.Microsecond)
		fl.Mark(StageEncode)
		fl.FinishAt(time.Now())
	}
	allocs := testing.AllocsPerRun(1000, func() {
		fl := r.Begin(1, time.Now())
		fl.SetSeq(1)
		fl.MarkSplit(StageQueue, StageRender, time.Microsecond)
		fl.Mark(StageEncode)
		now := time.Now()
		fl.MarkAt(StageOutbox, now)
		fl.MarkAt(StageWrite, now)
		fl.FinishAt(now)
	})
	// A GC sweep mid-run can clear the flight pool and cost one allocation;
	// anything beyond that noise is a regression.
	if allocs > 0.1 {
		t.Fatalf("recorder hot path allocates %.3f per frame, want 0", allocs)
	}
}

// TestSlowThresholdRefresh checks the rolling-p99 latch: after the refresh
// window passes, the cached threshold tracks the totals histogram instead of
// staying at its cold-start zero.
func TestSlowThresholdRefresh(t *testing.T) {
	r := NewRecorder(metrics.NewRegistry())
	at := time.Now()
	// First settle refreshes (refreshedAt starts at zero) and latches.
	fl := r.Begin(1, at.Add(-time.Millisecond))
	fl.FinishAt(at)
	if r.SlowThreshold() <= 0 {
		t.Fatalf("threshold = %v after first settle, want > 0", r.SlowThreshold())
	}
	if len(r.Slow(0)) == 0 {
		t.Fatal("cold-start settle must latch an exemplar")
	}
}

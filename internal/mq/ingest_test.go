package mq

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"arbd/internal/sim"
)

// TestUnkeyedProduceSpreadsPartitions pins the round-robin partitioner:
// before it, unkeyed records hashed the empty key — a constant — so every
// unkeyed producer landed on one partition and starved the other three.
func TestUnkeyedProduceSpreadsPartitions(t *testing.T) {
	b := newTestBroker(t, 4)
	const total = 400
	for i := 0; i < total; i++ {
		if _, err := produce(b, "events", nil, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for pi := 0; pi < 4; pi++ {
		_, newest, err := offsets(b, "events", pi)
		if err != nil {
			t.Fatal(err)
		}
		if newest != total/4 {
			t.Fatalf("partition %d got %d records, want %d (unkeyed traffic not spread)",
				pi, newest, total/4)
		}
	}
}

// TestUnkeyedBatchSticksToOnePartition: a batch stays contiguous on a single
// partition (the round-robin cursor advances per call, not per record).
func TestUnkeyedBatchSticksToOnePartition(t *testing.T) {
	b := newTestBroker(t, 4)
	values := make([][]byte, 10)
	for i := range values {
		values[i] = []byte{byte(i)}
	}
	for call := 0; call < 8; call++ {
		if _, err := produceBatch(b, "events", nil, values); err != nil {
			t.Fatal(err)
		}
	}
	// 8 batches over 4 partitions: each partition holds exactly 2 whole
	// batches, nothing straddles.
	for pi := 0; pi < 4; pi++ {
		_, newest, err := offsets(b, "events", pi)
		if err != nil {
			t.Fatal(err)
		}
		if newest != 2*int64(len(values)) {
			t.Fatalf("partition %d got %d records, want %d", pi, newest, 2*len(values))
		}
	}
}

// TestConcurrentBatchProducersOnePartition races batch producers against a
// single partition (same key) and verifies batches interleave at batch
// granularity: every batch occupies the contiguous offset range starting at
// its returned first offset. Run with -race this also exercises the
// lock-once append path for data races.
func TestConcurrentBatchProducersOnePartition(t *testing.T) {
	b := NewBroker()
	if err := b.CreateTopic("one", TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	const producers, batchesEach, batchLen = 8, 25, 16
	type claim struct {
		first int64
		tag   byte
	}
	claims := make(chan claim, producers*batchesEach)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(tag byte) {
			defer wg.Done()
			values := make([][]byte, batchLen)
			for i := range values {
				values[i] = []byte{tag, byte(i)}
			}
			for i := 0; i < batchesEach; i++ {
				first, err := produceBatch(b, "one", nil, values)
				if err != nil {
					t.Errorf("produce: %v", err)
					return
				}
				claims <- claim{first: first, tag: tag}
			}
		}(byte(p))
	}
	wg.Wait()
	close(claims)

	recs, err := fetch(b, "one", 0, 0, producers*batchesEach*batchLen)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != producers*batchesEach*batchLen {
		t.Fatalf("fetched %d records, want %d", len(recs), producers*batchesEach*batchLen)
	}
	for c := range claims {
		for i := 0; i < batchLen; i++ {
			r := recs[c.first+int64(i)]
			if r.Value[0] != c.tag || r.Value[1] != byte(i) {
				t.Fatalf("batch at %d not contiguous: record %d = %v, want [%d %d]",
					c.first, r.Offset, r.Value, c.tag, i)
			}
		}
	}
}

func TestTopicHandle(t *testing.T) {
	b := newTestBroker(t, 2)
	if _, err := b.Topic("nope"); !errors.Is(err, ErrNoTopic) {
		t.Fatalf("missing topic err = %v, want ErrNoTopic", err)
	}
	tp, err := b.Topic("events")
	if err != nil {
		t.Fatal(err)
	}
	pi := keyPartition([]byte("k"), 2)
	off, err := tp.ProduceBatch([]byte("k"), [][]byte{[]byte("v1")})
	if err != nil || off != 0 {
		t.Fatalf("produce = %d,%d,%v", pi, off, err)
	}
	first, err := tp.ProduceBatch([]byte("k"), [][]byte{[]byte("v2"), []byte("v3")})
	if err != nil || first != 1 {
		t.Fatalf("batch = %d,%v", first, err)
	}
	recs, err := tp.FetchInto(nil, pi, 0, 10)
	if err != nil || len(recs) != 3 {
		t.Fatalf("fetch = %d recs, %v", len(recs), err)
	}
	oldest, newest, err := tp.Offsets(pi)
	if err != nil || oldest != 0 || newest != 3 {
		t.Fatalf("offsets = %d..%d, %v", oldest, newest, err)
	}
	if _, _, err := tp.Offsets(99); !errors.Is(err, ErrBadPartition) {
		t.Fatalf("bad partition err = %v", err)
	}
}

// TestTopicHandleFailsAfterClose: handles bypass the broker's topic map, so
// they must observe Close through the shared closed flag.
func TestTopicHandleFailsAfterClose(t *testing.T) {
	b := newTestBroker(t, 1)
	tp, err := b.Topic("events")
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	if _, err := tp.ProduceBatch(nil, [][]byte{[]byte("v")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch err = %v, want ErrClosed", err)
	}
	if _, err := tp.FetchInto(nil, 0, 0, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("fetch err = %v, want ErrClosed", err)
	}
	if _, _, err := tp.Offsets(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("offsets err = %v, want ErrClosed", err)
	}
}

// TestPollIntoReusesBuffer: PollInto appends to dst without reallocating
// when capacity suffices, and leaves existing elements alone.
func TestPollIntoReusesBuffer(t *testing.T) {
	b := newTestBroker(t, 1)
	for i := 0; i < 10; i++ {
		if _, err := produce(b, "events", nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.NewGroup("events")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]Record, 0, 16)
	recs, err := g.PollInto(buf, 10)
	if err != nil || len(recs) != 10 {
		t.Fatalf("poll = %d recs, %v", len(recs), err)
	}
	if &recs[0] != &buf[:1][0] {
		t.Fatal("PollInto reallocated despite sufficient capacity")
	}
	// Appending after existing elements preserves them.
	sentinel := Record{Offset: -7}
	recs2, err := g.PollInto(append(buf[:0], sentinel), 5)
	if err != nil || len(recs2) != 6 {
		t.Fatalf("poll with prefix = %d recs, %v", len(recs2), err)
	}
	if recs2[0].Offset != -7 {
		t.Fatalf("PollInto clobbered dst prefix: %+v", recs2[0])
	}
}

// TestProduceSteadyStateAllocs pins the produce path's amortized
// allocation rate: arena segments make it ~2 allocations per 1024-record
// segment, and the ceiling is 0.1 per record. It runs the production shape
// — one keyed record per call, as a session publishes telemetry — beside an
// unkeyed batch that rotates across partitions.
func TestProduceSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	for _, tc := range []struct {
		name     string
		key      []byte
		batchLen int
	}{
		{"unkeyed batch", nil, 64},
		{"keyed single", []byte("principal-42"), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBroker()
			if err := b.CreateTopic("t", TopicConfig{Partitions: 4}); err != nil {
				t.Fatal(err)
			}
			tp, err := b.Topic("t")
			if err != nil {
				t.Fatal(err)
			}
			values := make([][]byte, tc.batchLen)
			for i := range values {
				values[i] = bytes.Repeat([]byte{byte(i)}, 24)
			}
			// Warm up past initial segment growth: two segments' worth.
			const records = 2 * segmentSize
			for i := 0; i < records/tc.batchLen; i++ {
				if _, err := tp.ProduceBatch(tc.key, values); err != nil {
					t.Fatal(err)
				}
			}
			calls := 200 * 64 / tc.batchLen
			allocs := testing.AllocsPerRun(calls, func() {
				if _, err := tp.ProduceBatch(tc.key, values); err != nil {
					t.Fatal(err)
				}
			})
			perRecord := allocs / float64(tc.batchLen)
			if perRecord > 0.1 {
				t.Fatalf("produce allocs/record = %.4f (%.1f per call), want <= 0.1", perRecord, allocs)
			}
		})
	}
}

// TestConsumeSteadyStateAllocs pins the PollInto drain path: with a reused
// buffer the consumer allocates nothing per record at steady state.
func TestConsumeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	b := NewBroker()
	if err := b.CreateTopic("t", TopicConfig{Partitions: 4}); err != nil {
		t.Fatal(err)
	}
	tp, err := b.Topic("t")
	if err != nil {
		t.Fatal(err)
	}
	values := make([][]byte, 64)
	for i := range values {
		values[i] = []byte("telemetry-record-payload")
	}
	for i := 0; i < 256; i++ {
		if _, err := tp.ProduceBatch(nil, values); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.NewGroup("t")
	if err != nil {
		t.Fatal(err)
	}
	const pollMax = 256
	buf := make([]Record, 0, pollMax)
	consumed := 0
	var m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m1)
	for {
		recs, err := g.PollInto(buf[:0], pollMax)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		consumed += len(recs)
		for i := range recs {
			g.Commit(recs[i].Partition, recs[i].Offset+1)
		}
	}
	runtime.ReadMemStats(&m2)
	if consumed == 0 {
		t.Fatal("nothing consumed")
	}
	if perRecord := float64(m2.Mallocs-m1.Mallocs) / float64(consumed); perRecord > 0.01 {
		t.Fatalf("consume allocs/record = %.5f, want ~0", perRecord)
	}
}

// TestProduceBatchEmpty: an empty batch is a no-op returning -1.
func TestProduceBatchEmpty(t *testing.T) {
	b := newTestBroker(t, 1)
	first, err := produceBatch(b, "events", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first != -1 {
		t.Fatalf("empty batch first = %d, want -1", first)
	}
	_, newest, _ := offsets(b, "events", 0)
	if newest != 0 {
		t.Fatalf("empty batch appended %d records", newest)
	}
}

// TestRecordTimeSurvivesStorage: timestamps round-trip through the
// pointer-free segment metadata with full nanosecond precision.
func TestRecordTimeSurvivesStorage(t *testing.T) {
	at := time.Date(2026, 8, 8, 12, 34, 56, 789012345, time.UTC)
	clk := sim.NewVirtualClock(at)
	b := NewBroker(withClock(clk))
	if err := b.CreateTopic("t", TopicConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := produce(b, "t", nil, []byte("v")); err != nil {
		t.Fatal(err)
	}
	recs, err := fetch(b, "t", 0, 0, 1)
	if err != nil || len(recs) != 1 {
		t.Fatalf("fetch = %v, %v", recs, err)
	}
	if !recs[0].Time.Equal(at) {
		t.Fatalf("stored time = %v, want %v", recs[0].Time, at)
	}
}

// TestPollWaitAfterCloseDoesNotBlock: every poller waiting on a group —
// not only the one a produce would wake — is released by Close, and a wait
// that starts after Close returns at once.
func TestPollWaitAfterCloseDoesNotBlock(t *testing.T) {
	b := newTestBroker(t, 1)
	g, err := b.NewGroup("events")
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 3
	errs := make(chan error, waiters+1)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := g.PollWaitInto(context.Background(), nil, 1)
			errs <- err
		}()
	}
	time.Sleep(10 * time.Millisecond)
	b.Close()
	go func() {
		_, err := g.PollWaitInto(context.Background(), nil, 1)
		errs <- err
	}()
	for i := 0; i < waiters+1; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("waiter err = %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("waiter not released by Close")
		}
	}
}

// produceSegments appends segs full segments to every partition of the
// events topic, in unkeyed batches that rotate across partitions.
func produceSegments(t *testing.T, b *Broker, partitions, segs int) {
	t.Helper()
	values := make([][]byte, 64)
	for i := range values {
		values[i] = []byte("interaction-record")
	}
	for i := 0; i < partitions*segs*segmentSize/len(values); i++ {
		if _, err := produceBatch(b, "events", nil, values); err != nil {
			t.Fatal(err)
		}
	}
}

// drain polls g until it is caught up, committing every record, and returns
// how many records it read.
func drain(t *testing.T, g *Group) int {
	t.Helper()
	n := 0
	buf := make([]Record, 0, 256)
	for {
		recs, err := g.PollInto(buf[:0], 256)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			return n
		}
		n += len(recs)
		for i := range recs {
			g.Commit(recs[i].Partition, recs[i].Offset+1)
		}
	}
}

// TestConsumedSegmentsReleased pins release on commit: once every group of
// a topic has committed a partition's records, only the partition's newest
// segment stays — and a group that has consumed nothing pins everything.
func TestConsumedSegmentsReleased(t *testing.T) {
	const partitions, segs = 4, 6
	total := partitions * segs * segmentSize

	t.Run("idle group pins", func(t *testing.T) {
		b := newTestBroker(t, partitions)
		defer b.Close()
		fast, _ := b.NewGroup("events")
		if _, err := b.NewGroup("events"); err != nil { // never polls
			t.Fatal(err)
		}
		produceSegments(t, b, partitions, segs)
		if got := drain(t, fast); got != total {
			t.Fatalf("drained %d records, want %d", got, total)
		}
		for pi := 0; pi < partitions; pi++ {
			if oldest, _, _ := offsets(b, "events", pi); oldest != 0 {
				t.Fatalf("partition %d released up to %d under a group that read nothing", pi, oldest)
			}
		}
	})

	t.Run("all groups committed", func(t *testing.T) {
		b := newTestBroker(t, partitions)
		defer b.Close()
		groups := make([]*Group, 2)
		for i := range groups {
			groups[i], _ = b.NewGroup("events")
		}
		// Both groups consume while the producer runs, the way the
		// platform's consumer trails its sessions.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var wg sync.WaitGroup
		var mu sync.Mutex
		consumed := make([]int, len(groups))
		for i, g := range groups {
			wg.Add(1)
			go func(i int, g *Group) {
				defer wg.Done()
				_ = g.consume(ctx, 128, func(recs []Record) error {
					mu.Lock()
					consumed[i] += len(recs)
					mu.Unlock()
					return nil
				})
			}(i, g)
		}
		produceSegments(t, b, partitions, segs)
		deadline := time.Now().Add(10 * time.Second)
		for {
			lagA, _ := groups[0].lag()
			lagB, _ := groups[1].lag()
			if lagA == 0 && lagB == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("groups still %d and %d behind", lagA, lagB)
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		wg.Wait()
		for i, n := range consumed {
			if n != total {
				t.Fatalf("group %d consumed %d records, want %d", i, n, total)
			}
		}
		for pi := 0; pi < partitions; pi++ {
			oldest, newest, _ := offsets(b, "events", pi)
			if tail := (newest - 1) / segmentSize * segmentSize; oldest != tail {
				t.Fatalf("partition %d keeps offsets %d..%d, want only the newest segment from %d", pi, oldest, newest, tail)
			}
		}
	})
}

func TestGroupLagAfterClose(t *testing.T) {
	b := newTestBroker(t, 1)
	g, err := b.NewGroup("events")
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	if _, err := g.lag(); !errors.Is(err, ErrClosed) {
		t.Fatalf("lag err = %v, want ErrClosed", err)
	}
	if _, err := g.PollInto(nil, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("poll err = %v, want ErrClosed", err)
	}
}

// benchProduceBatchValues builds a telemetry-shaped batch for benchmarks.
func benchProduceBatchValues(n, size int) [][]byte {
	values := make([][]byte, n)
	for i := range values {
		values[i] = bytes.Repeat([]byte{byte(i)}, size)
	}
	return values
}

// benchTopic returns a handle to a fresh 4-partition topic and a release
// func that commits one consumer group to the head of every partition, off
// the clock. Commits are what bound a topic, so a benchmark calls release
// every few segments to hold the log at a few segments, whatever b.N is.
func benchTopic(b *testing.B) (tp *Topic, release func()) {
	br := NewBroker()
	if err := br.CreateTopic("t", TopicConfig{Partitions: 4}); err != nil {
		b.Fatal(err)
	}
	tp, err := br.Topic("t")
	if err != nil {
		b.Fatal(err)
	}
	g, err := br.NewGroup("t")
	if err != nil {
		b.Fatal(err)
	}
	return tp, func() {
		b.StopTimer()
		for pi := range tp.t.parts {
			g.Commit(pi, tp.t.parts[pi].newest())
		}
		b.StartTimer()
	}
}

func BenchmarkProduceBatchHandle(b *testing.B) {
	tp, release := benchTopic(b)
	values := benchProduceBatchValues(256, 24)
	b.ReportAllocs()
	b.SetBytes(256 * 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tp.ProduceBatch(nil, values); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			release()
		}
	}
}

// BenchmarkProduceKeyedSingle times the production shape: one keyed value
// per call through a cached handle, as Session.publish sends telemetry.
func BenchmarkProduceKeyedSingle(b *testing.B) {
	tp, release := benchTopic(b)
	key := []byte("principal-42")
	values := [][]byte{bytes.Repeat([]byte{7}, 24)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tp.ProduceBatch(key, values); err != nil {
			b.Fatal(err)
		}
		if i%(4*segmentSize) == 4*segmentSize-1 {
			release()
		}
	}
}

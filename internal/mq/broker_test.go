package mq

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"arbd/internal/sim"
)

func newTestBroker(t *testing.T, partitions int) *Broker {
	t.Helper()
	b := NewBroker(WithClock(sim.NewVirtualClock(time.Time{})))
	if err := b.CreateTopic("events", TopicConfig{Partitions: partitions}); err != nil {
		t.Fatal(err)
	}
	return b
}

// fetch reads through a Topic handle, the broker's one fetch path.
func fetch(b *Broker, topic string, partitionIdx int, offset int64, max int) ([]Record, error) {
	tp, err := b.Topic(topic)
	if err != nil {
		return nil, err
	}
	return tp.FetchInto(nil, partitionIdx, offset, max)
}

// produceBatch produces through a Topic handle, the broker's one produce
// path.
func produceBatch(b *Broker, topic string, key []byte, values [][]byte) (int64, error) {
	tp, err := b.Topic(topic)
	if err != nil {
		return 0, err
	}
	return tp.ProduceBatch(key, values)
}

// produce appends one value, the shape every serving producer sends.
func produce(b *Broker, topic string, key, value []byte) (int64, error) {
	return produceBatch(b, topic, key, [][]byte{value})
}

// offsets reads a partition's offsets through a Topic handle.
func offsets(b *Broker, topic string, partitionIdx int) (oldest, newest int64, err error) {
	tp, err := b.Topic(topic)
	if err != nil {
		return 0, 0, err
	}
	return tp.Offsets(partitionIdx)
}

func TestCreateTopicDuplicate(t *testing.T) {
	b := newTestBroker(t, 1)
	if err := b.CreateTopic("events", TopicConfig{}); !errors.Is(err, ErrTopicExists) {
		t.Fatalf("err = %v, want ErrTopicExists", err)
	}
}

func TestProduceToMissingTopic(t *testing.T) {
	b := NewBroker()
	if _, err := produce(b, "nope", nil, []byte("x")); !errors.Is(err, ErrNoTopic) {
		t.Fatalf("err = %v, want ErrNoTopic", err)
	}
}

func TestProduceFetchRoundTrip(t *testing.T) {
	b := newTestBroker(t, 1)
	for i := 0; i < 10; i++ {
		if _, err := produce(b, "events", nil, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := fetch(b, "events", 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("fetched %d, want 10", len(recs))
	}
	for i, r := range recs {
		if r.Offset != int64(i) || r.Value[0] != byte(i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
}

func TestOffsetsMonotonicPerPartition(t *testing.T) {
	b := newTestBroker(t, 4)
	seen := make(map[int]int64)
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("key-%d", i%17))
		pi := keyPartition(key, 4)
		off, err := produce(b, "events", key, []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := seen[pi]; ok && off != prev+1 {
			t.Fatalf("partition %d offset jumped %d -> %d", pi, prev, off)
		}
		seen[pi] = off
	}
}

func TestKeyRoutingIsStable(t *testing.T) {
	if err := quick.Check(func(key []byte) bool {
		return keyPartition(key, 8) == keyPartition(key, 8)
	}, nil); err != nil {
		t.Fatal(err)
	}
	if keyPartition([]byte("anything"), 1) != 0 {
		t.Fatal("single partition must route to 0")
	}
}

func TestKeyRoutingSpreads(t *testing.T) {
	counts := make([]int, 8)
	for i := 0; i < 800; i++ {
		counts[keyPartition([]byte(fmt.Sprintf("key-%d", i)), 8)]++
	}
	for pi, c := range counts {
		if c == 0 {
			t.Fatalf("partition %d never used: %v", pi, counts)
		}
	}
}

func TestFetchBadPartition(t *testing.T) {
	b := newTestBroker(t, 2)
	if _, err := fetch(b, "events", 5, 0, 10); !errors.Is(err, ErrBadPartition) {
		t.Fatalf("err = %v, want ErrBadPartition", err)
	}
	if _, err := fetch(b, "events", -1, 0, 10); !errors.Is(err, ErrBadPartition) {
		t.Fatalf("err = %v, want ErrBadPartition", err)
	}
}

func TestFetchAtHeadReturnsEmpty(t *testing.T) {
	b := newTestBroker(t, 1)
	_, _ = produce(b, "events", nil, []byte("x"))
	recs, err := fetch(b, "events", 0, 1, 10)
	if err != nil || len(recs) != 0 {
		t.Fatalf("fetch at head = %v, %v", recs, err)
	}
}

func TestSegmentBoundaries(t *testing.T) {
	b := newTestBroker(t, 1)
	total := segmentSize*2 + segmentSize/2
	for i := 0; i < total; i++ {
		if _, err := produce(b, "events", nil, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// Read across a segment boundary.
	recs, err := fetch(b, "events", 0, segmentSize-2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[0].Offset != segmentSize-2 || recs[4].Offset != segmentSize+2 {
		t.Fatalf("cross-segment read wrong: %v..%v (%d recs)", recs[0].Offset, recs[len(recs)-1].Offset, len(recs))
	}
	oldest, newest, err := offsets(b, "events", 0)
	if err != nil || oldest != 0 || newest != int64(total) {
		t.Fatalf("offsets = %d..%d, %v", oldest, newest, err)
	}
}

// TestBatchStraddlesSegments pins segment bases under batch appends: a
// segment rolled mid-batch once took the batch's first offset as its base,
// so readers skipped as many records as the batch had already placed in the
// previous segment, and re-read them under shifted offsets.
func TestBatchStraddlesSegments(t *testing.T) {
	b := newTestBroker(t, 1)
	// 300 never divides segmentSize, so batches straddle every boundary at
	// a different split; the last batch spans two whole segments.
	sizes := []int{300, 300, 300, 300, 300, 300, 300, 7, 2*segmentSize + 11}
	produced := 0
	for _, n := range sizes {
		values := make([][]byte, n)
		for i := range values {
			values[i] = []byte(fmt.Sprintf("r%d", produced+i))
		}
		first, err := produceBatch(b, "events", nil, values)
		if err != nil {
			t.Fatal(err)
		}
		if first != int64(produced) {
			t.Fatalf("batch first offset = %d, want %d", first, produced)
		}
		produced += n
	}
	// Read in odd-sized pages so fetches also start mid-segment.
	consumed := 0
	for {
		recs, err := fetch(b, "events", 0, int64(consumed), 97)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			if r.Offset != int64(consumed) || string(r.Value) != fmt.Sprintf("r%d", consumed) {
				t.Fatalf("record %d read back as offset %d value %q", consumed, r.Offset, r.Value)
			}
			consumed++
		}
	}
	if consumed != produced {
		t.Fatalf("consumed %d of %d produced records", consumed, produced)
	}
}

func TestGroupPollAndCommit(t *testing.T) {
	b := newTestBroker(t, 2)
	for i := 0; i < 20; i++ {
		_, _ = produce(b, "events", []byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	g, err := b.NewGroup("events")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := g.PollInto(nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 {
		t.Fatalf("polled %d, want 20", len(recs))
	}
	// Without commit, poll redelivers (at-least-once).
	again, _ := g.PollInto(nil, 100)
	if len(again) != 20 {
		t.Fatalf("redelivery polled %d, want 20", len(again))
	}
	for _, r := range recs {
		g.Commit(r.Partition, r.Offset+1)
	}
	after, _ := g.PollInto(nil, 100)
	if len(after) != 0 {
		t.Fatalf("after commit polled %d, want 0", len(after))
	}
	lag, err := g.Lag()
	if err != nil || lag != 0 {
		t.Fatalf("lag = %d, %v", lag, err)
	}
}

func TestGroupCommitOnlyForward(t *testing.T) {
	b := newTestBroker(t, 1)
	g, _ := b.NewGroup("events")
	g.Commit(0, 10)
	g.Commit(0, 5)
	if got := g.Committed(0); got != 10 {
		t.Fatalf("Committed = %d, want 10", got)
	}
}

func TestPollWaitWakesOnProduce(t *testing.T) {
	b := newTestBroker(t, 1)
	g, _ := b.NewGroup("events")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	done := make(chan []Record, 1)
	go func() {
		recs, err := g.PollWaitInto(ctx, nil, 10)
		if err != nil {
			t.Errorf("PollWaitInto: %v", err)
		}
		done <- recs
	}()
	time.Sleep(10 * time.Millisecond) // let the poller block
	if _, err := produce(b, "events", nil, []byte("wake")); err != nil {
		t.Fatal(err)
	}
	select {
	case recs := <-done:
		if len(recs) != 1 || string(recs[0].Value) != "wake" {
			t.Fatalf("got %v", recs)
		}
	case <-ctx.Done():
		t.Fatal("PollWaitInto never woke")
	}
}

func TestPollWaitHonoursContext(t *testing.T) {
	b := newTestBroker(t, 1)
	g, _ := b.NewGroup("events")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := g.PollWaitInto(ctx, nil, 10); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestConsumeProcessesAndCommits(t *testing.T) {
	b := newTestBroker(t, 2)
	g, _ := b.NewGroup("events")
	const total = 50
	for i := 0; i < total; i++ {
		_, _ = produce(b, "events", []byte(fmt.Sprintf("k%d", i)), []byte{byte(i)})
	}
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	got := 0
	go func() {
		_ = g.Consume(ctx, 7, func(recs []Record) error {
			mu.Lock()
			got += len(recs)
			if got >= total {
				cancel()
			}
			mu.Unlock()
			return nil
		})
	}()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("consume never finished")
	}
	mu.Lock()
	defer mu.Unlock()
	if got != total {
		t.Fatalf("consumed %d, want %d", got, total)
	}
}

func TestConsumeStopsOnHandlerError(t *testing.T) {
	b := newTestBroker(t, 1)
	g, _ := b.NewGroup("events")
	_, _ = produce(b, "events", nil, []byte("x"))
	sentinel := errors.New("boom")
	err := g.Consume(context.Background(), 10, func([]Record) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	// Batch was not committed.
	if recs, _ := g.PollInto(nil, 10); len(recs) != 1 {
		t.Fatalf("failed batch was committed; polled %d", len(recs))
	}
}

func TestBrokerCloseReleasesWaiters(t *testing.T) {
	b := newTestBroker(t, 1)
	g, _ := b.NewGroup("events")
	errCh := make(chan error, 1)
	go func() {
		_, err := g.PollWaitInto(context.Background(), nil, 1)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PollWaitInto not released by Close")
	}
	if _, err := produce(b, "events", nil, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("produce after close err = %v", err)
	}
}

// TestGroupSkipsTruncatedRange: a group whose committed offset lies below
// the oldest retained record resumes at that record. NewGroup can read the
// oldest offset just before another group's commit releases segments; the
// test sets that committed offset directly.
func TestGroupSkipsTruncatedRange(t *testing.T) {
	b := NewBroker(WithClock(sim.NewVirtualClock(time.Time{})))
	_ = b.CreateTopic("small", TopicConfig{Partitions: 1})
	first, _ := b.NewGroup("small")
	for i := 0; i < segmentSize*4; i++ {
		_, _ = produce(b, "small", nil, []byte("x"))
	}
	first.Commit(0, segmentSize*3+1)
	late, _ := b.NewGroup("small")
	late.committed[0].Store(0) // read before the commit released segments
	recs, err := late.PollInto(nil, 10)
	if err != nil {
		t.Fatalf("poll after release: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("poll returned nothing after release")
	}
	oldest, _, _ := offsets(b, "small", 0)
	if oldest == 0 || recs[0].Offset != oldest {
		t.Fatalf("poll did not resume at horizon: %d vs %d", recs[0].Offset, oldest)
	}
}

func TestProduceBatch(t *testing.T) {
	b := newTestBroker(t, 1)
	first, err := produceBatch(b, "events", []byte("k"), [][]byte{[]byte("a"), []byte("b"), []byte("c")})
	if err != nil {
		t.Fatal(err)
	}
	if first != 0 {
		t.Fatalf("first offset = %d", first)
	}
	recs, _ := fetch(b, "events", 0, 0, 10)
	if len(recs) != 3 {
		t.Fatalf("fetched %d", len(recs))
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	b := newTestBroker(t, 4)
	const producers, perProducer = 4, 250
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				key := []byte(fmt.Sprintf("p%d-%d", p, i))
				if _, err := produce(b, "events", key, []byte("v")); err != nil {
					t.Errorf("produce: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	g, _ := b.NewGroup("events")
	total := 0
	for {
		recs, err := g.PollInto(nil, 128)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		total += len(recs)
		for _, r := range recs {
			g.Commit(r.Partition, r.Offset+1)
		}
	}
	if total != producers*perProducer {
		t.Fatalf("consumed %d, want %d", total, producers*perProducer)
	}
}

func TestRecordsAreCopies(t *testing.T) {
	b := newTestBroker(t, 1)
	val := []byte("mutable")
	_, _ = produce(b, "events", nil, val)
	val[0] = 'X'
	recs, _ := fetch(b, "events", 0, 0, 1)
	if string(recs[0].Value) != "mutable" {
		t.Fatalf("broker aliased caller's buffer: %q", recs[0].Value)
	}
}

// keyForPartition finds a produce key that routes to the wanted partition.
func keyForPartition(t *testing.T, want, partitions int) []byte {
	t.Helper()
	for i := 0; i < 10000; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if keyPartition(k, partitions) == want {
			return k
		}
	}
	t.Fatalf("no key found for partition %d/%d", want, partitions)
	return nil
}

// TestPollRotatesStartPartition pins the round-robin cursor: before the fix
// Poll always scanned from partition 0 and stopped at max records, so a hot
// partition 0 under sustained production starved partitions 1..N-1
// indefinitely — their records were never delivered and their lag never
// drained. With the rotating start, a capacity-limited consumer keeping pace
// with a hot partition still drains the quiet ones.
func TestPollRotatesStartPartition(t *testing.T) {
	b := newTestBroker(t, 2)
	hot := keyForPartition(t, 0, 2)
	quiet := keyForPartition(t, 1, 2)

	// Backlog: a deep hot partition plus a few quiet records behind it.
	for i := 0; i < 50; i++ {
		if _, err := produce(b, "events", hot, []byte("h")); err != nil {
			t.Fatal(err)
		}
	}
	const quietRecords = 3
	for i := 0; i < quietRecords; i++ {
		if _, err := produce(b, "events", quiet, []byte("q")); err != nil {
			t.Fatal(err)
		}
	}

	g, err := b.NewGroup("events")
	if err != nil {
		t.Fatal(err)
	}
	// Sustained load: every consumed record is replaced by a new hot one, so
	// partition 0 always has a fresh uncommitted record. A fixed scan start
	// would return hot records forever.
	seenQuiet := 0
	for i := 0; i < 40 && seenQuiet < quietRecords; i++ {
		recs, err := g.PollInto(nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 {
			t.Fatalf("poll %d returned %d records, want 1", i, len(recs))
		}
		r := recs[0]
		if r.Partition == 1 {
			seenQuiet++
		}
		g.Commit(r.Partition, r.Offset+1)
		if _, err := produce(b, "events", hot, []byte("h")); err != nil {
			t.Fatal(err)
		}
	}
	if seenQuiet != quietRecords {
		t.Fatalf("quiet partition starved: delivered %d of %d records", seenQuiet, quietRecords)
	}
	// The quiet partition's lag is fully drained.
	oldest, newest, err := offsets(b, "events", 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Committed(1); got != newest || oldest > got {
		t.Fatalf("quiet partition lag not drained: committed %d, head %d", got, newest)
	}
}

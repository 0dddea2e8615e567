package mq

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"arbd/internal/sim"
)

// TestFetchedRecordsSurviveRetention proves the arena-aliasing contract:
// records handed out by Fetch keep their bytes even after a group commit
// releases the segment (and its backing arena) they were read from. The
// segment arena is only unreferenced, never recycled, so fetched subslices
// stay valid for as long as the caller holds them.
func TestFetchedRecordsSurviveRetention(t *testing.T) {
	b := NewBroker(WithClock(sim.NewVirtualClock(time.Time{})))
	defer b.Close()
	if err := b.CreateTopic("t", TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	g, err := b.NewGroup("t")
	if err != nil {
		t.Fatal(err)
	}
	value := make([]byte, 100)
	for i := 0; i < segmentSize+10; i++ {
		copy(value, fmt.Sprintf("record-%04d", i))
		if _, err := produce(b, "t", nil, value); err != nil {
			t.Fatal(err)
		}
	}

	held, err := fetch(b, "t", 0, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(held) != 10 {
		t.Fatalf("fetched %d records, want 10", len(held))
	}
	want := make([][]byte, len(held))
	for i, r := range held {
		want[i] = append([]byte(nil), r.Value...)
	}

	// Produce enough to roll two more segments, then commit past the first
	// two: the release must drop the segment backing the held records.
	for i := 0; i < 2*segmentSize; i++ {
		if _, err := produce(b, "t", nil, value); err != nil {
			t.Fatal(err)
		}
	}
	g.Commit(0, 2*segmentSize+1)
	oldest, _, err := offsets(b, "t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if oldest <= 9 {
		t.Fatalf("oldest offset = %d; the commit never released the held segment", oldest)
	}
	if _, err := fetch(b, "t", 0, 0, 1); err == nil {
		t.Fatal("offset 0 still fetchable; test set-up did not evict the segment")
	}

	for i, r := range held {
		if !bytes.Equal(r.Value, want[i]) {
			t.Fatalf("record %d mutated after release: %q != %q", i, r.Value, want[i])
		}
	}
}

// TestFetchedRecordAppendDoesNotClobberNeighbor proves that Key/Value
// subslices are capacity-pinned: appending to one fetched record's slices
// reallocates rather than overwriting the neighbouring record's bytes in
// the shared segment arena.
func TestFetchedRecordAppendDoesNotClobberNeighbor(t *testing.T) {
	b := NewBroker(WithClock(sim.NewVirtualClock(time.Time{})))
	defer b.Close()
	if err := b.CreateTopic("t", TopicConfig{Partitions: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := produce(b, "t", []byte("ka"), []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if _, err := produce(b, "t", []byte("kb"), []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	recs, err := fetch(b, "t", 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("fetched %d records, want 2", len(recs))
	}

	_ = append(recs[0].Key, []byte("XXXX")...)
	_ = append(recs[0].Value, []byte("YYYY")...)

	again, err := fetch(b, "t", 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again[1].Key, []byte("kb")) || !bytes.Equal(again[1].Value, []byte("bbbb")) {
		t.Fatalf("neighbour record clobbered: key=%q value=%q", again[1].Key, again[1].Value)
	}
	if !bytes.Equal(recs[1].Key, []byte("kb")) || !bytes.Equal(recs[1].Value, []byte("bbbb")) {
		t.Fatalf("held neighbour clobbered: key=%q value=%q", recs[1].Key, recs[1].Value)
	}
}

package mq

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"arbd/internal/sim"
)

// Broker owns topics and serves producers and consumers. It is safe for
// concurrent use.
type Broker struct {
	clock sim.Clock

	mu     sync.RWMutex
	topics map[string]*topic
	// closed is also readable without b.mu so Topic handles and consumer
	// groups — which skip the topic map entirely — can fail fast after Close.
	closed atomic.Bool
	done   chan struct{} // closed by Close: releases every waiting poller
}

// topic holds a topic's partitions plus rr, the sticky round-robin cursor
// spreading unkeyed records across partitions.
type topic struct {
	parts []*partition
	rr    atomic.Uint64 // next unkeyed partition assignment

	// groups lists the topic's consumer groups, copied on write under
	// groupsMu so produce and commit read it without a lock. Every group
	// pins what it has not committed, and is woken by every produce.
	groups   atomic.Pointer[[]*Group]
	groupsMu sync.Mutex
}

// addGroup registers g; from here on g pins retention and is woken.
func (t *topic) addGroup(g *Group) {
	t.groupsMu.Lock()
	defer t.groupsMu.Unlock()
	var gs []*Group
	if old := t.groups.Load(); old != nil {
		gs = append(gs, *old...)
	}
	gs = append(gs, g)
	t.groups.Store(&gs)
}

// wake signals every group that the topic has new records.
func (t *topic) wake() {
	if gs := t.groups.Load(); gs != nil {
		for _, g := range *gs {
			g.signal()
		}
	}
}

// committed runs when a group moves its committed offset on partition pi
// from old to offset. It is one atomic load unless the move passes the
// partition's releaseAt; then the partition releases what every group has
// committed. Whichever group's commit brings the lowest committed offset
// past releaseAt passes it too, so no release is missed.
func (t *topic) committed(pi int, old, offset int64) {
	p := t.parts[pi]
	if r := p.releaseAt.Load(); old >= r || offset < r {
		return
	}
	low := offset
	for _, g := range *t.groups.Load() {
		if c := g.committed[pi].Load(); c < low {
			low = c
		}
	}
	p.release(low)
}

// partitionFor routes one record or batch: keyed records hash for stable
// per-key ordering; unkeyed records rotate round-robin so producers without
// keys spread across every partition (hashing the empty key is a constant,
// which used to land ALL unkeyed traffic on one partition). Each call
// advances the cursor, so a batch sticks to one partition — keeping its
// records contiguous — and the next batch moves on.
func (t *topic) partitionFor(key []byte) int {
	if len(t.parts) <= 1 {
		return 0
	}
	if len(key) == 0 {
		return int((t.rr.Add(1) - 1) % uint64(len(t.parts)))
	}
	return keyPartition(key, len(t.parts))
}

// Option configures a Broker.
type Option func(*Broker)

// WithClock sets the clock used to timestamp records (default: wall clock).
func WithClock(c sim.Clock) Option {
	return func(b *Broker) { b.clock = c }
}

// NewBroker returns an empty broker.
func NewBroker(opts ...Option) *Broker {
	b := &Broker{
		clock:  sim.RealClock{},
		topics: make(map[string]*topic),
		done:   make(chan struct{}),
	}
	for _, opt := range opts {
		opt(b)
	}
	return b
}

// CreateTopic registers a topic. It fails if the name is taken.
func (b *Broker) CreateTopic(name string, cfg TopicConfig) error {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed.Load() {
		return ErrClosed
	}
	if _, ok := b.topics[name]; ok {
		return fmt.Errorf("%w: %q", ErrTopicExists, name)
	}
	t := &topic{parts: make([]*partition, cfg.Partitions)}
	for i := range t.parts {
		t.parts[i] = newPartition()
	}
	b.topics[name] = t
	return nil
}

func (b *Broker) topic(name string) (*topic, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed.Load() {
		return nil, ErrClosed
	}
	t, ok := b.topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTopic, name)
	}
	return t, nil
}

// keyPartition returns the partition a non-empty key routes to. Unkeyed
// records do not use key hashing: the broker assigns them round-robin.
func keyPartition(key []byte, numPartitions int) int {
	if numPartitions <= 1 {
		return 0
	}
	h := fnv.New32a()
	_, _ = h.Write(key)
	return int(h.Sum32() % uint32(numPartitions))
}

// Topic resolves a produce/fetch handle: the topic-map lookup under the
// broker lock happens once, here, instead of on every call. Handles are
// valid for the life of the broker and safe for concurrent use; after Close
// their operations fail with ErrClosed.
func (b *Broker) Topic(name string) (*Topic, error) {
	t, err := b.topic(name)
	if err != nil {
		return nil, err
	}
	return &Topic{b: b, t: t}, nil
}

// Topic is a cached handle to one topic — the allocation-free fast path for
// hot producers and consumers.
type Topic struct {
	b *Broker
	t *topic
}

// ProduceBatch is the broker's one produce path: it appends values under
// one key, with one partition-lock acquisition, returning the offset of the
// first record of the batch. The whole batch lands contiguously on one
// partition (unkeyed batches stick to the round-robin cursor's current
// partition; the next batch rotates onward).
//
//arbd:hotpath
func (tp *Topic) ProduceBatch(key []byte, values [][]byte) (int64, error) {
	if tp.b.closed.Load() {
		return 0, ErrClosed
	}
	t := tp.t
	pi := t.partitionFor(key)
	first := t.parts[pi].appendBatch(tp.b.clock.Now(), key, values)
	t.wake()
	return first, nil
}

// FetchInto reads up to max records from one partition starting at offset,
// appending them to dst — the reuse variant that keeps a hot consumer loop
// from allocating a fresh slice per poll.
//
//arbd:hotpath
func (tp *Topic) FetchInto(dst []Record, partitionIdx int, offset int64, max int) ([]Record, error) {
	if tp.b.closed.Load() {
		return dst, ErrClosed
	}
	parts := tp.t.parts
	if partitionIdx < 0 || partitionIdx >= len(parts) {
		//arbd:alloc-ok caller-bug error path, never taken by the steady-state consumer
		return dst, fmt.Errorf("%w: %d of %d", ErrBadPartition, partitionIdx, len(parts))
	}
	start := len(dst)
	dst, err := parts[partitionIdx].readInto(dst, offset, max)
	if err != nil {
		return dst, err
	}
	for i := start; i < len(dst); i++ {
		dst[i].Partition = partitionIdx
	}
	return dst, nil
}

// Offsets returns the oldest retained and next-to-assign offsets of a
// partition.
func (tp *Topic) Offsets(partitionIdx int) (oldest, newest int64, err error) {
	if tp.b.closed.Load() {
		return 0, 0, ErrClosed
	}
	if partitionIdx < 0 || partitionIdx >= len(tp.t.parts) {
		return 0, 0, fmt.Errorf("%w: %d of %d", ErrBadPartition, partitionIdx, len(tp.t.parts))
	}
	return tp.t.parts[partitionIdx].oldest(), tp.t.parts[partitionIdx].newest(), nil
}

// Close shuts the broker; subsequent operations fail with ErrClosed.
func (b *Broker) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed.Swap(true) {
		return
	}
	close(b.done)
}

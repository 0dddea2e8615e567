package mq

import (
	"context"
	"sync/atomic"
)

// Group tracks committed offsets per partition for one consumer group on one
// topic, giving at-least-once delivery: a record is redelivered until its
// offset is committed. A group pins what it has not committed: the topic
// releases a segment once every group has committed past it. The group
// holds a resolved Topic handle, so polling never pays the per-call
// topic-map lookup.
type Group struct {
	tp *Topic

	committed []atomic.Int64
	next      atomic.Uint64 // PollInto's round-robin starting partition
	// wake holds at most one pending "records produced" signal, so a
	// waiting poller blocks on a channel made once, not one per wait.
	wake chan struct{}
}

// NewGroup returns a consumer group positioned at the oldest retained offset
// of every partition, registered with the topic: from here on the topic
// keeps every record the group has not committed.
func (b *Broker) NewGroup(topicName string) (*Group, error) {
	tp, err := b.Topic(topicName)
	if err != nil {
		return nil, err
	}
	g := &Group{
		tp:        tp,
		committed: make([]atomic.Int64, len(tp.t.parts)),
		wake:      make(chan struct{}, 1),
	}
	for pi := range g.committed {
		g.committed[pi].Store(tp.t.parts[pi].oldest())
	}
	tp.t.addGroup(g)
	return g, nil
}

// signal records that the topic has news for the group's next wait.
func (g *Group) signal() {
	select {
	case g.wake <- struct{}{}:
	default: // a signal is already pending
	}
}

// Committed returns the committed offset for a partition (records below it
// are consumed).
func (g *Group) Committed(partitionIdx int) int64 {
	if partitionIdx < 0 || partitionIdx >= len(g.committed) {
		return 0
	}
	return g.committed[partitionIdx].Load()
}

// Commit marks all records below offset in the partition as consumed.
// Offsets only move forward. It costs one atomic compare-and-swap plus one
// load, except when it lets the topic release a segment.
func (g *Group) Commit(partitionIdx int, offset int64) {
	if partitionIdx < 0 || partitionIdx >= len(g.committed) {
		return
	}
	c := &g.committed[partitionIdx]
	for {
		old := c.Load()
		if offset <= old {
			return
		}
		if c.CompareAndSwap(old, offset) {
			g.tp.t.committed(partitionIdx, old, offset)
			return
		}
	}
}

// Lag returns the total number of records between this group's committed
// offsets and the topic head across all partitions — the backlog signal
// lag-aware admission control watches.
func (g *Group) Lag() (int64, error) {
	if g.tp.b.closed.Load() {
		return 0, ErrClosed
	}
	var lag int64
	for pi := range g.tp.t.parts {
		lag += g.tp.t.parts[pi].newest() - g.Committed(pi)
	}
	return lag, nil
}

// PollInto appends up to max uncommitted records across all partitions to
// dst, without committing them; pass a nil dst for a fresh slice, or reuse
// one across polls to avoid allocating. Nothing is appended when fully
// caught up. Appended records' Key/Value bytes alias the log's segment
// arenas and are read-only. Each partition's records are appended as one
// ascending run.
//
// The scan's starting partition rotates across calls: a fixed start at
// partition 0 would let a hot partition fill every batch and starve
// partitions 1..N-1 indefinitely under sustained load, so their lag never
// drains and the Lag()-driven admission signal is skewed.
func (g *Group) PollInto(dst []Record, max int) ([]Record, error) {
	if g.tp.b.closed.Load() {
		return dst, ErrClosed
	}
	n := len(g.committed)
	start := int((g.next.Add(1) - 1) % uint64(n))
	base := len(dst)
	for k := 0; k < n && len(dst)-base < max; k++ {
		pi := (start + k) % n
		from := g.Committed(pi)
		// Skip forward if the log released below our committed position:
		// another group's commit can release segments between NewGroup
		// reading the oldest offset and registering the group.
		oldest, _, err := g.tp.Offsets(pi)
		if err != nil {
			return dst, err
		}
		if from < oldest {
			from = oldest
			g.Commit(pi, oldest)
		}
		dst, err = g.tp.FetchInto(dst, pi, from, max-(len(dst)-base))
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// PollWaitInto is PollInto that blocks until at least one record is
// available, the context is cancelled, or the broker closes. A produce wakes
// one waiter per group: a group is meant to be polled by one goroutine.
func (g *Group) PollWaitInto(ctx context.Context, dst []Record, max int) ([]Record, error) {
	base := len(dst)
	for {
		// A produce after this poll leaves a signal pending, so the wait
		// below cannot miss it; a stale signal costs one empty poll.
		var err error
		dst, err = g.PollInto(dst, max)
		if err != nil || len(dst) > base {
			return dst, err
		}
		select {
		case <-ctx.Done():
			return dst, ctx.Err()
		case <-g.wake:
		case <-g.tp.b.done:
		}
	}
}

// Consume runs fn over batches of records until ctx is cancelled or the
// broker closes, committing after each successful batch — once per
// partition the batch touched. If fn returns an error the batch is not
// committed and Consume returns the error.
//
// The batch slice is reused across iterations: fn must finish with it (or
// copy what it keeps) before returning.
func (g *Group) Consume(ctx context.Context, batch int, fn func([]Record) error) error {
	buf := make([]Record, 0, batch)
	for {
		recs, err := g.PollWaitInto(ctx, buf[:0], batch)
		if err != nil {
			return err
		}
		buf = recs
		if len(recs) == 0 {
			continue
		}
		if err := fn(recs); err != nil {
			return err
		}
		// PollInto appends each partition as one ascending run: commit
		// past the last record of every run.
		for i := range recs {
			if i+1 == len(recs) || recs[i+1].Partition != recs[i].Partition {
				g.Commit(recs[i].Partition, recs[i].Offset+1)
			}
		}
	}
}

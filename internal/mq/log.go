// Package mq implements the platform's ingestion substrate: an in-memory,
// partitioned, segmented commit log with topics, consumer groups, and
// at-least-once delivery — the role Kafka plays in the stream architectures
// the paper assumes. A log holds only what it still owes a reader: once
// every consumer group of a topic has committed past a partition's oldest
// segments, those segments are released. Commits are a topic's one bound:
// a topic no group reads keeps everything produced to it.
//
// Storage layout: each partition is a sequence of fixed-record-count
// segments, and each segment owns a byte arena — one backing array holding
// every record's Key and Value bytes. Appends copy payloads into the arena
// and store a pointer-free per-record descriptor (timestamp plus arena
// offsets), so the produce path costs ~2 allocations per segment instead of
// 2 per record, and a retained segment costs the garbage collector O(1)
// mark work regardless of how many records it holds. Record structs are
// materialized at read time, with Key/Value subslicing the arena. A
// segment's arena lives exactly as long as the segment (the unit of
// release), and fetched records keep the arena reachable, so records
// handed to consumers stay valid after their segment leaves the log.
package mq

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Errors returned by the log.
var (
	ErrNoTopic        = errors.New("mq: topic does not exist")
	ErrTopicExists    = errors.New("mq: topic already exists")
	ErrBadPartition   = errors.New("mq: partition out of range")
	ErrOffsetOutOfLog = errors.New("mq: offset below retention horizon")
	ErrClosed         = errors.New("mq: broker closed")
)

// Record is one message in a partition log. Key and Value alias the log's
// per-segment arena: they stay valid indefinitely (the record keeps the
// arena alive after its segment is released), but consumers must treat
// them as read-only.
type Record struct {
	Offset    int64
	Time      time.Time
	Key       []byte
	Value     []byte
	Partition int
}

// segmentSize is the number of records per log segment. Segments are the
// unit of release: the oldest whole segments are dropped once every consumer
// group has committed past them.
const segmentSize = 1024

// minArenaBytes seeds a fresh segment's arena capacity; subsequent segments
// inherit the previous segment's final arena size so a steady workload
// settles at one arena allocation per segment.
const minArenaBytes = 4096

// maxArenaBytes caps one segment's arena so recMeta's uint32 offsets always
// address it; a payload that would overflow rolls a new segment early.
const maxArenaBytes = 1<<32 - 1

// recMeta locates one record inside its segment. It is deliberately
// pointer-free — the garbage collector never scans inside a retained
// segment, so mark cost is O(segments), not O(records) — and Record structs
// are materialized from it at read time.
type recMeta struct {
	sec    int64  // timestamp seconds
	nsec   int32  // timestamp nanoseconds into sec
	pos    uint32 // start of key+value bytes in the arena
	keyLen uint32
	valLen uint32
}

// segment is a fixed-capacity run of consecutive records plus the arena
// backing their payload bytes. Record i has offset base+i.
type segment struct {
	base int64
	meta []recMeta
	data []byte // arena: every record's Key and Value bytes, in append order
}

// record materializes record i. The full slice expressions pin capacity so
// appending to a fetched record's Key/Value reallocates instead of
// clobbering the next record's bytes; zero-length fields come back nil.
func (s *segment) record(i int) Record {
	m := &s.meta[i]
	rec := Record{
		Offset: s.base + int64(i),
		Time:   time.Unix(m.sec, int64(m.nsec)),
	}
	if m.keyLen > 0 {
		end := m.pos + m.keyLen
		rec.Key = s.data[m.pos:end:end]
	}
	if m.valLen > 0 {
		vp := m.pos + m.keyLen
		end := vp + m.valLen
		rec.Value = s.data[vp:end:end]
	}
	return rec
}

// partition is a sequence of segments plus the next offset to assign.
type partition struct {
	mu       sync.RWMutex
	segments []*segment
	next     int64

	// releaseAt is the commit offset past which the oldest segment may be
	// fully consumed: its base + segmentSize + 1. A commit above that offset
	// consumed a record of the next segment, so the next segment exists.
	// Commits compare against it without a lock; it moves only when the
	// oldest segment is dropped, under mu.
	releaseAt atomic.Int64
}

func newPartition() *partition {
	p := &partition{}
	p.releaseAt.Store(segmentSize + 1)
	return p
}

// tailLocked returns the segment the next payload-byte append lands in,
// rolling a new one when the tail is full (or would outgrow uint32 arena
// addressing).
func (p *partition) tailLocked(payload int) *segment {
	if n := len(p.segments); n > 0 {
		seg := p.segments[n-1]
		if len(seg.meta) < segmentSize &&
			(len(seg.meta) == 0 || int64(len(seg.data))+int64(payload) <= maxArenaBytes) {
			return seg
		}
	}
	arenaCap := minArenaBytes
	if n := len(p.segments); n > 0 {
		if prev := len(p.segments[n-1].data); prev > arenaCap {
			arenaCap = prev
		}
	}
	seg := &segment{
		base: p.next,
		meta: make([]recMeta, 0, segmentSize),
		data: make([]byte, 0, arenaCap),
	}
	p.segments = append(p.segments, seg)
	return seg
}

// appendLocked adds one record to the tail segment, which tailLocked rolls
// wherever a segment fills or its arena would outgrow uint32 addressing. It
// is the only writer of a recMeta. The timestamp arrives pre-split so a
// batch pays the time.Time decomposition once, not per record. p.mu must be
// held.
//
//arbd:hotpath
func (p *partition) appendLocked(sec int64, nsec int32, key, value []byte) {
	seg := p.tailLocked(len(key) + len(value))
	pos := uint32(len(seg.data))
	seg.data = append(seg.data, key...)
	seg.data = append(seg.data, value...)
	seg.meta = append(seg.meta, recMeta{
		sec:    sec,
		nsec:   nsec,
		pos:    pos,
		keyLen: uint32(len(key)),
		valLen: uint32(len(value)),
	})
	p.next++
}

// appendBatch is the one way records enter a partition: it appends every
// value, one appendLocked each, under ONE lock acquisition. A batch's
// records are contiguous, and concurrent producers interleave at batch
// granularity, not record granularity. Every serving producer appends one record per call (a
// session publishes each telemetry record inside the sensor call that made
// it), so a bulk path for large batches would serve traffic nobody sends.
// Returns the offset of the batch's first record (-1 for an empty batch).
//
//arbd:hotpath
func (p *partition) appendBatch(now time.Time, key []byte, values [][]byte) int64 {
	if len(values) == 0 {
		return -1
	}
	sec, nsec := now.Unix(), int32(now.Nanosecond())
	p.mu.Lock()
	defer p.mu.Unlock()
	first := p.next
	for _, v := range values {
		p.appendLocked(sec, nsec, key, v)
	}
	return first
}

// oldest returns the lowest retained offset (== next when empty).
func (p *partition) oldest() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.segments) == 0 {
		return p.next
	}
	return p.segments[0].base
}

func (p *partition) newest() int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.next
}

// readInto appends up to max records starting at offset to dst. The record
// structs are materialized fresh; their Key/Value bytes alias the segment
// arenas.
//
//arbd:hotpath
func (p *partition) readInto(dst []Record, offset int64, max int) ([]Record, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if len(p.segments) > 0 && offset < p.segments[0].base {
		return dst, ErrOffsetOutOfLog
	}
	if offset >= p.next || max <= 0 {
		return dst, nil
	}
	// Binary search over segments: find the segment containing offset.
	lo, hi := 0, len(p.segments)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if p.segments[mid].base <= offset {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	taken := 0
	for si := lo; si < len(p.segments) && taken < max; si++ {
		seg := p.segments[si]
		start := 0
		if offset > seg.base {
			start = int(offset - seg.base)
		}
		for i := start; i < len(seg.meta) && taken < max; i++ {
			dst = append(dst, seg.record(i))
			taken++
		}
	}
	return dst, nil
}

// release drops every segment all of whose records lie below committed —
// the lowest offset every consumer group has committed — always keeping
// the newest segment.
func (p *partition) release(committed int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.segments) > 1 && p.segments[1].base <= committed {
		p.segments[0] = nil // release the segment (and its arena) promptly
		p.segments = p.segments[1:]
		p.releaseAt.Store(p.segments[0].base + segmentSize + 1)
	}
}

// TopicConfig configures a topic at creation.
type TopicConfig struct {
	Partitions int // number of partitions; default 1
}

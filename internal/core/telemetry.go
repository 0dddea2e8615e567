package core

import (
	"sync"
	"sync/atomic"
	"time"

	"arbd/internal/mq"
)

// Telemetry topic indexes inside a batcher.
const (
	telemetryLocations = iota
	telemetryInteractions
	numTelemetryTopics
)

var telemetryTopicNames = [numTelemetryTopics]string{
	telemetryLocations:    TopicLocations,
	telemetryInteractions: TopicInteractions,
}

// adaptiveFlushRef is the flush latency at which adaptive batch sizing
// starts to grow batches: below it the broker is keeping up and the
// configured batch size stands; each additional multiple of it adds one
// more base batch per publish (bounded by the configured ceiling).
const adaptiveFlushRef = 2 * time.Millisecond

// flushDecayHalfLife ages the flush-latency signal while telemetry is
// quiet: with no flushes to observe, the EWMA halves per half-life so a
// pressure spike cannot freeze into admission control after the backend
// recovers and goes idle.
const flushDecayHalfLife = time.Second

// loadTracker aggregates telemetry flush latency across every session's
// batcher into two estimates — a streaming p99 (the P² estimator) and an
// EWMA fallback for cold starts — derives the adaptive batch size, and
// feeds the same signal into frame admission (Platform.LoadSignal).
// Admission keys off the p99 once it is warm: a tail of slow flushes is
// exactly the "analytics are stale" condition the paper's timeliness rule
// sheds for, and a mean-tracking EWMA hides it. One tracker per platform;
// all methods are safe for concurrent use.
type loadTracker struct {
	flushNs atomic.Int64 // EWMA of ProduceBatch latency, ns (fallback)
	p99Ns   atomic.Int64 // streaming p99 of ProduceBatch latency, ns (0 = cold)
	lastNs  atomic.Int64 // wall time of the last observation, unix ns
	base    int          // configured batch size
	max     int          // adaptive ceiling

	// qmu serialises the P² estimator; flushes are per-batch, not
	// per-frame, so a mutex here is off the hot path.
	qmu sync.Mutex
	p99 *p2Quantile
}

func newLoadTracker(base, maxSize int) *loadTracker {
	if base < 1 {
		base = 1
	}
	if maxSize < base {
		maxSize = base
	}
	return &loadTracker{base: base, max: maxSize, p99: newP2Quantile(0.99)}
}

// observeFlush folds one batch-publish latency into the estimators: the
// EWMA (α = 1/8) folds into the idle-decayed value, not the raw one — the
// first healthy flush after a quiet spell must not resurrect stale
// pressure — and the P² markers reset entirely after a long idle gap for
// the same reason. Concurrent observers may drop each other's EWMA sample;
// harmless for an EWMA. now is the wall time the flush ended at; like every
// reader below, the tracker takes the time from its caller, who has already
// read the clock, instead of reading it again.
func (lt *loadTracker) observeFlush(d time.Duration, now time.Time) {
	old := int64(lt.ewma(now))
	idle := now.UnixNano() - lt.lastNs.Load()
	lt.lastNs.Store(now.UnixNano())
	next := int64(d)
	if old != 0 {
		next = old + (int64(d)-old)/8
	}
	lt.flushNs.Store(next)

	lt.qmu.Lock()
	if idle > 2*int64(flushDecayHalfLife) {
		// Clear the published estimate too: until the estimator re-warms,
		// flushLatency must fall back to the (freshly folded) EWMA rather
		// than serve the pre-idle p99 at full strength — lastNs was just
		// refreshed, so read-time decay no longer ages it.
		lt.p99.reset()
		lt.p99Ns.Store(0)
	}
	lt.p99.observe(float64(d))
	if est, ok := lt.p99.estimate(); ok {
		lt.p99Ns.Store(int64(est))
	}
	lt.qmu.Unlock()
}

// ewma returns the flush-latency EWMA, idle-decayed.
func (lt *loadTracker) ewma(now time.Time) time.Duration {
	return lt.decayed(lt.flushNs.Load(), now)
}

// flushLatency returns the admission/batching signal: the streaming p99 of
// flush latency once the estimator is warm (≥5 samples), the EWMA before
// that. Either is decayed by half per flushDecayHalfLife since the last
// observation so idle periods read as recovery rather than frozen pressure.
func (lt *loadTracker) flushLatency(now time.Time) time.Duration {
	if lat := lt.p99Ns.Load(); lat != 0 {
		return lt.decayed(lat, now)
	}
	return lt.ewma(now)
}

// decayed halves lat once per flushDecayHalfLife of idle time up to now.
func (lt *loadTracker) decayed(lat int64, now time.Time) time.Duration {
	if lat == 0 {
		return 0
	}
	idle := now.UnixNano() - lt.lastNs.Load()
	if idle > int64(flushDecayHalfLife) {
		halvings := idle / int64(flushDecayHalfLife)
		if halvings > 62 {
			return 0
		}
		lat >>= halvings
	}
	return time.Duration(lat)
}

// batchSize returns the effective telemetry batch size under the current
// flush latency: the configured base while the broker keeps up, growing
// proportionally to flush latency (so each round-trip amortises better)
// up to the ceiling when it falls behind.
func (lt *loadTracker) batchSize(now time.Time) int {
	lat := lt.flushLatency(now)
	if lat <= adaptiveFlushRef {
		return lt.base
	}
	n := lt.base * int(1+lat/adaptiveFlushRef)
	if n > lt.max || n < lt.base { // also guards multiplication overflow
		n = lt.max
	}
	return n
}

// telemetryBatcher buffers one session's outgoing telemetry per topic and
// publishes it with ProduceBatch, so a session streaming GPS at device rates
// pays one broker round-trip per batch instead of one per fix. Buffers flush
// when they reach the effective batch size — the configured size, scaled up
// by the platform's load tracker when flushes run slow — and the platform's
// background flusher sweeps out anything older than the max delay so quiet
// sessions still surface promptly. Flushes go through the platform's cached
// mq.Topic handles, so a flush never pays the broker's per-call topic-map
// lookup or counter resolution.
type telemetryBatcher struct {
	key      []byte // broker routing key: the session principal
	load     *loadTracker
	maxDelay time.Duration
	topics   *[numTelemetryTopics]*mq.Topic

	mu      sync.Mutex
	buffers [numTelemetryTopics]topicBuffer
}

// topicBuffer holds one topic's buffered records back to back in data:
// record i is data[ends[i-1]:ends[i]]. Both slices are reused across
// flushes, so a busy session buffers without allocating; the sweeper
// drops them once the topic has been idle for idleBufferRelease.
type topicBuffer struct {
	data     []byte
	ends     []int
	oldestAt time.Time // enqueue time of record 0
	lastAt   time.Time // enqueue time of the newest record
}

// idleBufferRelease is how long a topic buffer may sit empty before the
// sweeper frees its storage: a session that goes quiet holds no buffer,
// and one that is busy keeps reusing its own.
const idleBufferRelease = 500 * time.Millisecond

// records returns the number of buffered records.
func (b *topicBuffer) records() int { return len(b.ends) }

// record returns buffered record i, aliasing data.
func (b *topicBuffer) record(i int) []byte {
	start := 0
	if i > 0 {
		start = b.ends[i-1]
	}
	return b.data[start:b.ends[i]]
}

// add copies one record into the buffer.
func (b *topicBuffer) add(value []byte) {
	b.data = append(b.data, value...)
	b.ends = append(b.ends, len(b.data))
}

// reset empties the buffer, keeping its storage.
func (b *topicBuffer) reset() {
	b.data, b.ends = b.data[:0], b.ends[:0]
}

// batchScratch holds the [][]byte views a flush hands to ProduceBatch. It
// is pooled rather than kept per session: the views live only for the
// call, and a session that is idle between flushes holds none.
var batchScratch = sync.Pool{New: func() any { return new([][]byte) }}

func newTelemetryBatcher(principal string, load *loadTracker, maxDelay time.Duration, topics *[numTelemetryTopics]*mq.Topic) *telemetryBatcher {
	return &telemetryBatcher{key: []byte(principal), load: load, maxDelay: maxDelay, topics: topics}
}

// enqueue copies one record into the topic's buffer, flushing the buffer
// to the broker if it reached the batch size; value is not retained. Ages
// are stamped with the wall clock, not the platform clock: the flush-delay
// bound is about real elapsed time, and the sweeper's ticker is wall-clock
// anyway — a virtual platform clock must not freeze age-based flushing.
//
//arbd:hotpath
func (tb *telemetryBatcher) enqueue(topic int, value []byte) error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := time.Now()
	buf := &tb.buffers[topic]
	if buf.records() == 0 {
		buf.oldestAt = now
	}
	buf.lastAt = now
	buf.add(value)
	// Size or age, whichever trips first. The age check here makes the
	// delay bound hold even on platforms that never called Start (no
	// background sweeper): any later enqueue — on any topic — drains every
	// overdue buffer, so a quiet topic cannot strand a record behind a
	// busy one.
	if buf.records() >= tb.load.batchSize(now) {
		if err := tb.flushLocked(topic, now); err != nil {
			return err
		}
	}
	for t := range tb.buffers {
		b := &tb.buffers[t]
		if b.records() == 0 || now.Sub(b.oldestAt) < tb.maxDelay {
			continue
		}
		if err := tb.flushLocked(t, now); err != nil {
			return err
		}
	}
	return nil
}

// flushOlderThan publishes any buffer whose oldest record was enqueued at or
// before cutoff, and frees the storage of buffers idle since before
// idleCutoff. The background flusher calls it on every sweep.
func (tb *telemetryBatcher) flushOlderThan(cutoff, idleCutoff time.Time) error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	for topic := range tb.buffers {
		b := &tb.buffers[topic]
		if b.records() == 0 {
			if b.data != nil && b.lastAt.Before(idleCutoff) {
				b.data, b.ends = nil, nil
			}
			continue
		}
		if b.oldestAt.After(cutoff) {
			continue
		}
		if err := tb.flushLocked(topic, time.Now()); err != nil {
			return err
		}
	}
	return nil
}

// flushAll publishes every non-empty buffer.
func (tb *telemetryBatcher) flushAll() error {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	for topic := range tb.buffers {
		if tb.buffers[topic].records() == 0 {
			continue
		}
		if err := tb.flushLocked(topic, time.Now()); err != nil {
			return err
		}
	}
	return nil
}

// flushLocked publishes the topic's buffer; start is the wall time the caller
// just read, which the publish latency is measured from. The broker copies
// the records, so the buffer is reused as soon as the publish returns.
func (tb *telemetryBatcher) flushLocked(topic int, start time.Time) error {
	buf := &tb.buffers[topic]
	scratch := batchScratch.Get().(*[][]byte)
	values := (*scratch)[:0]
	for i := 0; i < buf.records(); i++ {
		values = append(values, buf.record(i))
	}
	_, err := tb.topics[topic].ProduceBatch(tb.key, values)
	clear(values) // the pool must not pin this session's buffer
	*scratch = values[:0]
	batchScratch.Put(scratch)
	// A slow failure is still backend pressure: observe the latency either
	// way so admission and batch sizing see a struggling broker.
	end := time.Now()
	tb.load.observeFlush(end.Sub(start), end)
	if err != nil {
		// Keep the records for the next flush attempt rather than
		// silently dropping accepted telemetry.
		return err
	}
	buf.reset()
	return nil
}

// FlushTelemetry publishes any telemetry buffered on this session. Callers
// that need records visible on the broker immediately (tests, shutdown)
// use it; steady-state traffic flushes by size and age.
func (s *Session) FlushTelemetry() error {
	return s.telem.flushAll()
}

// FlushTelemetry publishes the buffered telemetry of every live session.
func (p *Platform) FlushTelemetry() error {
	var firstErr error
	p.sessions.forEach(func(s *Session) bool {
		if err := s.FlushTelemetry(); err != nil && firstErr == nil {
			firstErr = err
		}
		return true
	})
	return firstErr
}

// flushLoop is the platform's background sweeper: every half max-delay it
// publishes buffers whose oldest record has waited at least the max delay.
// It runs from Start until Stop.
func (p *Platform) flushLoop(stop <-chan struct{}) {
	interval := p.cfg.telemetryMaxDelay / 2
	if interval <= 0 {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			now := time.Now()
			cutoff, idleCutoff := now.Add(-p.cfg.telemetryMaxDelay), now.Add(-idleBufferRelease)
			p.sessions.forEach(func(s *Session) bool {
				if err := s.telem.flushOlderThan(cutoff, idleCutoff); err != nil {
					p.flushErrs.Inc()
				}
				return true
			})
		}
	}
}

package core

import (
	"sync"
	"sync/atomic"
)

// sessionRegistry tracks live sessions without funnelling every lookup
// through one lock: sessions are spread over a power-of-two number of
// shards, each with its own RWMutex, so concurrent NewSession / lookup /
// removal traffic from many connections only contends within a shard.
type sessionRegistry struct {
	shards []registryShard
	mask   uint64
	count  atomic.Int64
}

type registryShard struct {
	mu       sync.RWMutex
	sessions map[uint64]*Session
}

// defaultRegistryShards is sized for tens of cores; shard choice is cheap
// enough that over-sharding costs only a few empty maps.
const defaultRegistryShards = 32

func newSessionRegistry(shards int) *sessionRegistry {
	if shards < 1 {
		shards = 1
	}
	// Round up to a power of two so shard selection is a mask, not a mod.
	n := 1
	for n < shards {
		n <<= 1
	}
	r := &sessionRegistry{shards: make([]registryShard, n), mask: uint64(n - 1)}
	for i := range r.shards {
		r.shards[i].sessions = make(map[uint64]*Session)
	}
	return r
}

// MixSessionID applies the SplitMix64 finalizer to a session ID. Session
// IDs are sequential, so anything that partitions by ID — the in-process
// registry shards here, and the multi-node router's rendezvous ring — must
// mix first or consecutive sessions land on consecutive partitions in
// lockstep batches. Both partitioners key off this one mix so the spread
// properties are shared.
func MixSessionID(id uint64) uint64 {
	h := id
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// shardFor picks the registry shard owning an ID.
func (r *sessionRegistry) shardFor(id uint64) *registryShard {
	return &r.shards[MixSessionID(id)&r.mask]
}

func (r *sessionRegistry) add(s *Session) {
	sh := r.shardFor(s.ID)
	sh.mu.Lock()
	sh.sessions[s.ID] = s
	sh.mu.Unlock()
	r.count.Add(1)
}

// addIfAbsent registers s unless a session with its ID already exists, in
// which case the existing session is returned. Shard nodes use it to make
// concurrent get-or-create by router-assigned ID race-free.
func (r *sessionRegistry) addIfAbsent(s *Session) (*Session, bool) {
	sh := r.shardFor(s.ID)
	sh.mu.Lock()
	if cur, ok := sh.sessions[s.ID]; ok {
		sh.mu.Unlock()
		return cur, true
	}
	sh.sessions[s.ID] = s
	sh.mu.Unlock()
	r.count.Add(1)
	return s, false
}

func (r *sessionRegistry) get(id uint64) (*Session, bool) {
	sh := r.shardFor(id)
	sh.mu.RLock()
	s, ok := sh.sessions[id]
	sh.mu.RUnlock()
	return s, ok
}

func (r *sessionRegistry) remove(id uint64) (*Session, bool) {
	sh := r.shardFor(id)
	sh.mu.Lock()
	s, ok := sh.sessions[id]
	if ok {
		delete(sh.sessions, id)
	}
	sh.mu.Unlock()
	if ok {
		r.count.Add(-1)
	}
	return s, ok
}

func (r *sessionRegistry) len() int { return int(r.count.Load()) }

// forEach visits every live session. Each shard is snapshotted under its
// read lock and the callback runs lock-free, so callbacks may call back
// into the registry (or block on session work) without holding shards up.
// Returning false stops the walk.
func (r *sessionRegistry) forEach(fn func(*Session) bool) {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		snapshot := make([]*Session, 0, len(sh.sessions))
		for _, s := range sh.sessions {
			snapshot = append(snapshot, s)
		}
		sh.mu.RUnlock()
		for _, s := range snapshot {
			if !fn(s) {
				return
			}
		}
	}
}

// Session returns the live session with the given ID.
func (p *Platform) Session(id uint64) (*Session, bool) { return p.sessions.get(id) }

// NumSessions returns the number of live sessions.
func (p *Platform) NumSessions() int { return p.sessions.len() }

// ForEachSession visits every live session; return false to stop early.
func (p *Platform) ForEachSession(fn func(*Session) bool) { p.sessions.forEach(fn) }

// DetachSession removes a session from the registry and reports whether it
// was live. Servers call it when the device disconnects and once a
// migrating session's snapshot is taken; without it sessions accumulate for
// the life of the platform. Its telemetry is already on the broker.
func (p *Platform) DetachSession(id uint64) bool {
	_, ok := p.sessions.remove(id)
	return ok
}

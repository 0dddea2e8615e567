// Package membership is the control plane of the multi-node frontend: who
// the shards are, which epoch of that knowledge the data plane is acting
// on, and how the answer changes at runtime. The data plane (PRs 1-4)
// assumed a static shard set fixed at process start; this package makes
// the shard set a first-class, versioned object so routers can add and
// drain shards under live AR traffic — the elasticity the paper's
// scalability argument (§4.1, CloudRiDAR-style offload) takes for granted.
//
// The model is deliberately small:
//
//   - A View is an immutable epoch: a sorted member set plus the
//     rendezvous Ring built over it. Data-plane code holds a *View and
//     routes against it without locks.
//   - A Directory is the single mutable cell holding the current View.
//     Join/Leave build the next epoch and publish it atomically; readers
//     always see a complete epoch, never a half-applied change.
//   - Watch delivers views to subscribers with latest-wins coalescing:
//     a slow watcher skips intermediate epochs but always learns the
//     newest one, which is the only one that matters for routing.
//
// Admin mutations are single-writer by construction (the Directory
// serialises them), matching the deployment model: one router process
// owns placement; a future multi-router deployment shares a directory
// rather than electing writers per change.
package membership

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"arbd/internal/core"
	"arbd/internal/wire"
)

// Member is one shard node in the membership.
type Member struct {
	// ID is the shard's stable identity; it survives address changes, so
	// session placement does too.
	ID uint64
	// Addr is the shard's backend listen address.
	Addr string
}

// Ring assigns sessions to shard members by rendezvous (highest-random-
// weight) hashing: for a session, every member's weight is a mix of the
// member's ID with the splitmix-mixed session ID — the same mix the
// in-process registry shards by — and the heaviest member owns the
// session. Rendezvous needs no virtual nodes and keeps the remap fraction
// minimal (1/n) when membership changes, which is exactly the property
// live shard join/drain leans on: only the sessions whose owner actually
// changed ever migrate.
type Ring struct {
	members []Member
}

// NewRing validates the membership and returns a ring. Members are sorted
// by ID so configs listing the same set in any order route identically.
func NewRing(members []Member) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("membership: ring needs at least one member")
	}
	ms := append([]Member(nil), members...)
	sort.Slice(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	for i := 1; i < len(ms); i++ {
		if ms[i].ID == ms[i-1].ID {
			return nil, fmt.Errorf("membership: duplicate ring member ID %d", ms[i].ID)
		}
	}
	return &Ring{members: ms}, nil
}

// Members returns a copy of the membership in ID order. It must be a copy:
// the ring is shared immutably across router goroutines (and across epochs
// via View), so handing out the internal slice would let any caller mutate
// live routing state under everyone else.
func (r *Ring) Members() []Member {
	return append([]Member(nil), r.members...)
}

// Contains reports whether the ring has a member with the given ID.
func (r *Ring) Contains(id uint64) bool {
	for i := range r.members {
		if r.members[i].ID == id {
			return true
		}
	}
	return false
}

// Pick returns the member owning the session ID. Deterministic: every
// router with the same membership maps a session to the same shard, which
// is what makes session affinity hold without coordination.
func (r *Ring) Pick(sessionID uint64) Member {
	key := core.MixSessionID(sessionID)
	best := 0
	bestW := rendezvousWeight(key, r.members[0].ID)
	for i := 1; i < len(r.members); i++ {
		if w := rendezvousWeight(key, r.members[i].ID); w > bestW {
			best, bestW = i, w
		}
	}
	return r.members[best]
}

// rendezvousWeight combines a mixed session key with a member identity.
// The member ID is mixed before xor so members 1,2,3... don't produce
// near-identical weights, then the combination is mixed again for
// avalanche.
func rendezvousWeight(key, memberID uint64) uint64 {
	return core.MixSessionID(key ^ core.MixSessionID(memberID))
}

// View is one immutable membership epoch: the member set and the ring
// built over it. Data-plane code loads a *View once per decision and
// routes against it lock-free; a concurrent epoch bump produces a new
// View rather than mutating this one.
type View struct {
	// Epoch increases by exactly one per membership change. Two nodes
	// comparing epochs therefore know not just who is newer but how many
	// changes apart they are.
	Epoch uint64
	ring  *Ring
}

// Ring returns the epoch's placement ring.
func (v *View) Ring() *Ring { return v.ring }

// Members returns a copy of the epoch's member set in ID order.
func (v *View) Members() []Member { return v.ring.Members() }

// Directory is the single-writer membership cell: it owns the current
// View and publishes a new epoch on every Join/Leave. Reads are an atomic
// pointer load; mutations serialise on the directory's lock, making admin
// operations single-writer without the callers coordinating.
type Directory struct {
	mu   sync.Mutex
	cur  atomic.Pointer[View]
	next uint64 // next watcher key

	watchers map[uint64]chan *View
}

// NewDirectory returns a directory at epoch 1 over the initial members.
func NewDirectory(members []Member) (*Directory, error) {
	ring, err := NewRing(members)
	if err != nil {
		return nil, err
	}
	d := &Directory{watchers: make(map[uint64]chan *View)}
	d.cur.Store(&View{Epoch: 1, ring: ring})
	return d, nil
}

// View returns the current epoch. The result is immutable and safe to
// hold across the caller's whole routing decision.
func (d *Directory) View() *View { return d.cur.Load() }

// Join adds a member and publishes the next epoch. It fails if the ID is
// already present — member identity is the unit of placement, so reusing
// a live ID would silently split one shard's sessions across two nodes.
func (d *Directory) Join(m Member) (*View, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.cur.Load()
	if old.ring.Contains(m.ID) {
		return nil, fmt.Errorf("membership: member %d already present at epoch %d", m.ID, old.Epoch)
	}
	ring, err := NewRing(append(old.ring.Members(), m))
	if err != nil {
		return nil, err
	}
	return d.publishLocked(&View{Epoch: old.Epoch + 1, ring: ring}), nil
}

// Leave removes a member and publishes the next epoch. The last member
// cannot leave: an empty ring routes nothing, and the error is clearer at
// the admin boundary than a nil-member panic deep in the data plane.
func (d *Directory) Leave(id uint64) (*View, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.cur.Load()
	if !old.ring.Contains(id) {
		return nil, fmt.Errorf("membership: member %d not present at epoch %d", id, old.Epoch)
	}
	members := old.ring.Members()
	if len(members) == 1 {
		return nil, fmt.Errorf("membership: refusing to remove the last member %d", id)
	}
	kept := members[:0]
	for _, m := range members {
		if m.ID != id {
			kept = append(kept, m)
		}
	}
	ring, err := NewRing(kept)
	if err != nil {
		return nil, err
	}
	return d.publishLocked(&View{Epoch: old.Epoch + 1, ring: ring}), nil
}

// publishLocked stores the new view and notifies watchers; callers hold mu.
func (d *Directory) publishLocked(v *View) *View {
	d.cur.Store(v)
	for _, ch := range d.watchers {
		// Latest-wins coalescing: if the watcher hasn't drained the last
		// view, replace it — stale epochs are worse than skipped ones.
		select {
		case ch <- v:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- v:
			default:
			}
		}
	}
	return v
}

// Watch subscribes to epoch changes. The channel is 1-buffered and
// coalescing (latest view wins); the current view is delivered
// immediately so a subscriber never starts blind. cancel unregisters and
// closes the channel.
func (d *Directory) Watch() (views <-chan *View, cancel func()) {
	ch := make(chan *View, 1)
	d.mu.Lock()
	key := d.next
	d.next++
	d.watchers[key] = ch
	ch <- d.cur.Load()
	d.mu.Unlock()
	return ch, func() {
		d.mu.Lock()
		if _, ok := d.watchers[key]; ok {
			delete(d.watchers, key)
			close(ch)
		}
		d.mu.Unlock()
	}
}

// EncodeMemberInto appends a member's wire form (uvarint ID, string addr)
// to buf — the payload of a MsgJoinShard envelope.
func EncodeMemberInto(buf *wire.Buffer, m Member) {
	buf.Uvarint(m.ID)
	buf.String(m.Addr)
}

// DecodeMember parses a member payload.
func DecodeMember(p []byte) (Member, error) {
	r := wire.NewReader(p)
	var m Member
	var err error
	if m.ID, err = r.Uvarint(); err != nil {
		return m, r.Err(err, "member id")
	}
	if m.Addr, err = r.String(); err != nil {
		return m, r.Err(err, "member addr")
	}
	return m, nil
}

// EncodeViewInto appends a membership view's wire form (uvarint epoch,
// uvarint count, then each member) to buf — the payload of a
// MsgMembership envelope.
func EncodeViewInto(buf *wire.Buffer, v *View) {
	buf.Uvarint(v.Epoch)
	members := v.ring.members // internal read: no copy for the encoder
	buf.Uvarint(uint64(len(members)))
	for _, m := range members {
		EncodeMemberInto(buf, m)
	}
}

// DecodedView is the wire-level form of a membership epoch, for peers
// (admin clients, future routers sharing a directory) that consume
// announcements without building a routing ring.
type DecodedView struct {
	Epoch   uint64
	Members []Member
}

// DecodeView parses a membership payload.
func DecodeView(p []byte) (DecodedView, error) {
	r := wire.NewReader(p)
	var v DecodedView
	var err error
	if v.Epoch, err = r.Uvarint(); err != nil {
		return v, r.Err(err, "membership epoch")
	}
	n, err := r.Uvarint()
	if err != nil {
		return v, r.Err(err, "membership count")
	}
	const maxMembers = 1 << 16 // a corrupt count must not pre-allocate GBs
	if n > maxMembers {
		return v, fmt.Errorf("membership: implausible member count %d", n)
	}
	v.Members = make([]Member, 0, n)
	for i := uint64(0); i < n; i++ {
		var m Member
		if m.ID, err = r.Uvarint(); err != nil {
			return v, r.Err(err, "member id")
		}
		if m.Addr, err = r.String(); err != nil {
			return v, r.Err(err, "member addr")
		}
		v.Members = append(v.Members, m)
	}
	return v, nil
}

package membership

import (
	"bytes"
	"fmt"
	"testing"

	"arbd/internal/wire"
)

func members(n int) []Member {
	ms := make([]Member, 0, n)
	for i := 0; i < n; i++ {
		ms = append(ms, Member{ID: uint64(i + 1), Addr: fmt.Sprintf("10.0.0.%d:7700", i+1)})
	}
	return ms
}

// TestRingMembersReturnsCopy pins the aliasing fix: the slice Members()
// returns must not be the ring's own storage. Before the fix a caller
// could overwrite live membership (and therefore routing) by mutating the
// returned slice.
func TestRingMembersReturnsCopy(t *testing.T) {
	r, err := NewRing(members(3))
	if err != nil {
		t.Fatal(err)
	}
	got := r.Members()
	got[0] = Member{ID: 999, Addr: "evil"}
	got = got[:1]
	_ = got
	again := r.Members()
	if len(again) != 3 {
		t.Fatalf("membership length changed to %d after caller truncated the returned slice", len(again))
	}
	if again[0].ID != 1 || again[0].Addr != "10.0.0.1:7700" {
		t.Fatalf("membership mutated through the returned slice: %+v", again[0])
	}
	// Placement must be unaffected too.
	if !r.Contains(1) || r.Contains(999) {
		t.Fatal("ring contents changed through a Members() caller")
	}
}

// TestRingRemapMinimality is the property the whole migration design leans
// on: adding or removing one of N members remaps about 1/N of sessions,
// and never remaps a session whose owner survived the change.
func TestRingRemapMinimality(t *testing.T) {
	const sessions = 16384
	for _, n := range []int{2, 3, 4, 8, 16} {
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			base, err := NewRing(members(n))
			if err != nil {
				t.Fatal(err)
			}

			// Add one member: every remapped session must move TO the new
			// member (nobody else gained anything), and the remap fraction
			// must be ≈ 1/(n+1).
			added := Member{ID: uint64(n + 100), Addr: "new"}
			grown, err := NewRing(append(base.Members(), added))
			if err != nil {
				t.Fatal(err)
			}
			moved := 0
			for id := uint64(1); id <= sessions; id++ {
				before, after := base.Pick(id), grown.Pick(id)
				if before.ID == after.ID {
					continue
				}
				moved++
				if after.ID != added.ID {
					t.Fatalf("session %d moved %d→%d on join though both owners survived", id, before.ID, after.ID)
				}
			}
			expect := sessions / (n + 1)
			if moved < expect/2 || moved > expect*2 {
				t.Fatalf("join remapped %d of %d sessions, want ≈%d (1/%d)", moved, sessions, expect, n+1)
			}

			// Remove one member: only that member's sessions move, and the
			// remap fraction is its ownership share ≈ 1/n.
			if n < 2 {
				return
			}
			victim := base.Members()[n-1]
			var kept []Member
			for _, m := range base.Members() {
				if m.ID != victim.ID {
					kept = append(kept, m)
				}
			}
			shrunk, err := NewRing(kept)
			if err != nil {
				t.Fatal(err)
			}
			moved = 0
			for id := uint64(1); id <= sessions; id++ {
				before, after := base.Pick(id), shrunk.Pick(id)
				if before.ID != after.ID {
					moved++
					if before.ID != victim.ID {
						t.Fatalf("session %d moved %d→%d on leave though its owner survived", id, before.ID, after.ID)
					}
				}
			}
			expect = sessions / n
			if moved < expect/2 || moved > expect*2 {
				t.Fatalf("leave remapped %d of %d sessions, want ≈%d (1/%d)", moved, sessions, expect, n)
			}
		})
	}
}

func TestDirectoryEpochsAndMutations(t *testing.T) {
	d, err := NewDirectory(members(2))
	if err != nil {
		t.Fatal(err)
	}
	if v := d.View(); v.Epoch != 1 || len(v.Ring().Members()) != 2 {
		t.Fatalf("initial view epoch=%d len=%d", v.Epoch, len(v.Ring().Members()))
	}
	v, err := d.Join(Member{ID: 3, Addr: "c"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != 2 || !v.Ring().Contains(3) {
		t.Fatalf("join view epoch=%d members=%v", v.Epoch, v.Members())
	}
	if _, err := d.Join(Member{ID: 3, Addr: "dup"}); err == nil {
		t.Fatal("duplicate join accepted")
	}
	if _, err := d.Leave(99); err == nil {
		t.Fatal("leave of unknown member accepted")
	}
	v, err = d.Leave(1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != 3 || v.Ring().Contains(1) {
		t.Fatalf("leave view epoch=%d members=%v", v.Epoch, v.Members())
	}
	if _, err = d.Leave(2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Leave(3); err == nil {
		t.Fatal("last member allowed to leave")
	}
	if got := d.View().Epoch; got != 4 {
		t.Fatalf("epoch after 3 mutations = %d, want 4", got)
	}
}

// TestDirectoryWatchCoalesces checks the watch contract: the current view
// arrives immediately, and a slow watcher skips intermediate epochs but
// always ends on the latest.
func TestDirectoryWatchCoalesces(t *testing.T) {
	d, err := NewDirectory(members(1))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel := d.Watch()
	defer cancel()
	if v := <-ch; v.Epoch != 1 {
		t.Fatalf("first watched view epoch=%d, want 1 (current view delivered immediately)", v.Epoch)
	}
	// Without draining, push several epochs; the watcher must see the last.
	for i := 2; i <= 5; i++ {
		if _, err := d.Join(Member{ID: uint64(i), Addr: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	v := <-ch
	for {
		select {
		case nv, ok := <-ch:
			if !ok {
				t.Fatal("watch channel closed early")
			}
			if nv.Epoch < v.Epoch {
				t.Fatalf("watch went backwards: %d after %d", nv.Epoch, v.Epoch)
			}
			v = nv
			continue
		default:
		}
		break
	}
	if v.Epoch != 5 {
		t.Fatalf("latest watched epoch=%d, want 5", v.Epoch)
	}
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("watch channel not closed by cancel")
	}
	cancel() // idempotent
}

func TestMemberAndViewCodecsRoundTrip(t *testing.T) {
	var buf wire.Buffer
	m := Member{ID: 42, Addr: "127.0.0.1:7702"}
	EncodeMemberInto(&buf, m)
	got, err := DecodeMember(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("member round-trip = %+v, want %+v", got, m)
	}
	if _, err := DecodeMember(buf.Bytes()[:1]); err == nil {
		t.Fatal("truncated member accepted")
	}

	d, err := NewDirectory(members(3))
	if err != nil {
		t.Fatal(err)
	}
	v, err := d.Join(Member{ID: 9, Addr: "far:1"})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	EncodeViewInto(&buf, v)
	dv, err := DecodeView(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if dv.Epoch != v.Epoch || len(dv.Members) != 4 {
		t.Fatalf("view round-trip epoch=%d members=%d", dv.Epoch, len(dv.Members))
	}
	for i, m := range v.Members() {
		if dv.Members[i] != m {
			t.Fatalf("member %d round-trip = %+v, want %+v", i, dv.Members[i], m)
		}
	}
	if _, err := DecodeView(buf.Bytes()[:2]); err == nil {
		t.Fatal("truncated view accepted")
	}
}

// FuzzDecodeMember: a join request's member comes from an admin peer.
// Decode must not panic, and decode → encode → decode is a fixed point.
func FuzzDecodeMember(f *testing.F) {
	var seed wire.Buffer
	EncodeMemberInto(&seed, Member{ID: 42, Addr: "127.0.0.1:7702"})
	f.Add(seed.Bytes())
	f.Add([]byte{42})                             // truncated: no address
	f.Add([]byte{1, 0xFF, 0xFF, 0xFF, 0x0F, 'x'}) // address longer than the payload
	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := DecodeMember(p)
		if err != nil {
			return
		}
		var b wire.Buffer
		EncodeMemberInto(&b, m)
		if again, err := DecodeMember(b.Bytes()); err != nil || again != m {
			t.Fatalf("member %+v re-decodes as %+v, %v", m, again, err)
		}
	})
}

// encodeDecodedView is EncodeViewInto for a decoded view, which need not
// make a valid ring (duplicate IDs decode fine).
func encodeDecodedView(v DecodedView) []byte {
	var b wire.Buffer
	b.Uvarint(v.Epoch)
	b.Uvarint(uint64(len(v.Members)))
	for _, m := range v.Members {
		EncodeMemberInto(&b, m)
	}
	return b.Bytes()
}

// FuzzDecodeView: a membership view comes from a router over the admin
// connection. Decode must not panic or pre-allocate for a count the
// payload cannot hold, and decode → encode → decode is a fixed point.
func FuzzDecodeView(f *testing.F) {
	d, err := NewDirectory(members(3))
	if err != nil {
		f.Fatal(err)
	}
	var seed wire.Buffer
	EncodeViewInto(&seed, d.View())
	if v, err := DecodeView(seed.Bytes()); err != nil || !bytes.Equal(encodeDecodedView(v), seed.Bytes()) {
		f.Fatalf("encodeDecodedView disagrees with EncodeViewInto: %v", err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{7, 0})                   // epoch 7, no members
	f.Add([]byte{7, 3, 1, 1, 'a'})        // count past the members present
	f.Add([]byte{7, 0xFF, 0xFF, 0xFF, 1}) // implausible count
	f.Fuzz(func(t *testing.T, p []byte) {
		v, err := DecodeView(p)
		if err != nil {
			return
		}
		first := encodeDecodedView(v)
		again, err := DecodeView(first)
		if err != nil {
			t.Fatalf("re-encoded view fails to decode: %v", err)
		}
		if !bytes.Equal(encodeDecodedView(again), first) {
			t.Fatalf("view %+v re-decodes as %+v", v, again)
		}
	})
}

package membership

import (
	"testing"
)

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := NewRing([]Member{{ID: 1}, {ID: 1}}); err == nil {
		t.Fatal("duplicate member IDs accepted")
	}
}

// TestRingDeterministicAcrossOrder checks placement ignores config order:
// two routers listing the same members differently must agree, or session
// affinity breaks the moment a second router joins.
func TestRingDeterministicAcrossOrder(t *testing.T) {
	a, err := NewRing([]Member{{ID: 1}, {ID: 2}, {ID: 3}, {ID: 4}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]Member{{ID: 3}, {ID: 1}, {ID: 4}, {ID: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 1000; id++ {
		if a.Pick(id).ID != b.Pick(id).ID {
			t.Fatalf("session %d: order-dependent placement (%d vs %d)", id, a.Pick(id).ID, b.Pick(id).ID)
		}
	}
}

// TestRingBalance checks sequential session IDs spread over members rather
// than marching through them in lockstep.
func TestRingBalance(t *testing.T) {
	const n = 4
	const sessions = 8192
	r, err := NewRing(members(n))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int{}
	for id := uint64(1); id <= sessions; id++ {
		counts[r.Pick(id).ID]++
	}
	want := sessions / n
	for id, n := range counts {
		if n < want/2 || n > want*2 {
			t.Fatalf("member %d owns %d of %d sessions (want ≈%d)", id, n, sessions, want)
		}
	}
}

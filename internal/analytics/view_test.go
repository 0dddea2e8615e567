package analytics

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"arbd/internal/sim"
)

func genRows(seed int64, n, groups int) []Row {
	rng := sim.NewRand(seed)
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			Group: fmt.Sprintf("g%d", rng.Intn(groups)),
			Value: rng.Uniform(0, 100),
		}
	}
	return rows
}

// batchCompute builds a fresh view from the complete row log: the
// recompute-from-scratch oracle the incremental view must match.
func batchCompute(rows []Row) *View {
	v := NewView()
	for _, r := range rows {
		v.applyLocked(r) // single-threaded build: the lock is not needed
	}
	return v
}

func TestViewBasicAggregates(t *testing.T) {
	v := NewView()
	v.Apply(Row{Group: "a", Value: 10})
	v.Apply(Row{Group: "a", Value: 20})
	v.Apply(Row{Group: "b", Value: 5})
	g, ok := v.GetKey([]byte("a"))
	if !ok {
		t.Fatal("group a missing")
	}
	if g.Count != 2 || g.Sum != 30 || g.Min != 10 || g.Max != 20 {
		t.Fatalf("stats = %+v", g)
	}
	if _, ok := v.GetKey([]byte("missing")); ok {
		t.Fatal("phantom group")
	}
	if v.rows != 3 || len(v.groups) != 2 {
		t.Fatalf("rows=%d groups=%d", v.rows, len(v.groups))
	}
}

func TestIncrementalEqualsBatch(t *testing.T) {
	rows := genRows(5, 5000, 40)
	inc := NewView()
	for _, r := range rows {
		inc.Apply(r)
	}
	batch := batchCompute(rows)
	if !inc.equal(batch) {
		t.Fatal("incremental view diverged from batch recompute")
	}
}

func TestIncrementalEqualsBatchProperty(t *testing.T) {
	if err := quick.Check(func(seed int64, nRaw, gRaw uint8) bool {
		n := int(nRaw)%400 + 1
		g := int(gRaw)%10 + 1
		rows := genRows(seed, n, g)
		inc := NewView()
		for _, r := range rows {
			inc.Apply(r)
		}
		return inc.equal(batchCompute(rows))
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestViewConcurrentApply(t *testing.T) {
	v := NewView()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v.Apply(Row{Group: fmt.Sprintf("g%d", i%10), Value: 1})
			}
		}(w)
	}
	wg.Wait()
	if v.rows != 4000 {
		t.Fatalf("rows = %d", v.rows)
	}
	var total float64
	for _, g := range v.groups {
		total += g.Sum
	}
	if total != 4000 {
		t.Fatalf("sum of sums = %v", total)
	}
}

func TestViewEqualDetectsDifferences(t *testing.T) {
	a, b := NewView(), NewView()
	a.Apply(Row{Group: "g", Value: 1})
	if a.equal(b) {
		t.Fatal("different views equal")
	}
	b.Apply(Row{Group: "g", Value: 2})
	if a.equal(b) {
		t.Fatal("different sums equal")
	}
}

package repro

import (
	"testing"

	"arbd/internal/geo"
	"arbd/internal/recommend"
)

func TestLeaveOneOutSplit(t *testing.T) {
	log := []recommend.Interaction{
		{UserID: 1, ItemID: 1, Weight: 1},
		{UserID: 1, ItemID: 2, Weight: 1},
		{UserID: 1, ItemID: 3, Weight: 1},
		{UserID: 2, ItemID: 9, Weight: 1}, // below minEvents
	}
	sp := leaveOneOut(log, 2)
	if sp.Holdout[1] != 3 {
		t.Fatalf("holdout = %v", sp.Holdout)
	}
	if _, ok := sp.Holdout[2]; ok {
		t.Fatal("sparse user evaluated")
	}
	if len(sp.Train) != 3 { // user1 first two + user2 single
		t.Fatalf("train = %d", len(sp.Train))
	}
}

func TestEvaluatePerfectAndUseless(t *testing.T) {
	sp := split{Holdout: map[uint64]uint64{1: 42}}
	perfect := fixedRec{recs: []recommend.Scored{{ItemID: 42, Score: 1}}}
	m := evaluate(perfect, sp, 10)
	if m.HitRate != 1 || m.NDCG != 1 || m.Users != 1 {
		t.Fatalf("perfect metrics = %+v", m)
	}
	useless := fixedRec{recs: []recommend.Scored{{ItemID: 7, Score: 1}}}
	m = evaluate(useless, sp, 10)
	if m.HitRate != 0 || m.NDCG != 0 {
		t.Fatalf("useless metrics = %+v", m)
	}
}

type fixedRec struct{ recs []recommend.Scored }

func (f fixedRec) Recommend(uint64, int) []recommend.Scored { return f.recs }
func (f fixedRec) Name() string                             { return "fixed" }

func TestSyntheticWorkloadModelOrdering(t *testing.T) {
	// The headline §3.1 claim at test scale: context-aware > CF > popularity
	// on preference-driven synthetic shoppers. Allow CF≈popularity noise but
	// require context to win outright.
	w := recommend.GenerateShoppers(recommend.ShopperConfig{Seed: 7, NumUsers: 150, NumItems: 200, EventsPerUser: 25, Center: geo.CityCenter})
	sp := leaveOneOut(w.Log, 5)
	pop := recommend.NewPopularity(sp.Train)
	cf := recommend.NewItemCF(sp.Train)
	ctxAware := recommend.NewContextAware(cf, w.Catalog, contextFor(w, sp))

	const k = 10
	mPop := evaluate(pop, sp, k)
	mCF := evaluate(cf, sp, k)
	mCtx := evaluate(ctxAware, sp, k)

	if mCtx.HitRate <= mPop.HitRate {
		t.Fatalf("context HR %.3f not above popularity %.3f", mCtx.HitRate, mPop.HitRate)
	}
	if mCF.HitRate < mPop.HitRate*0.8 {
		t.Fatalf("item-CF HR %.3f collapsed below popularity %.3f", mCF.HitRate, mPop.HitRate)
	}
	if mCtx.Users == 0 || mCtx.NDCG <= 0 {
		t.Fatalf("degenerate evaluation: %+v", mCtx)
	}
}

package voi

import (
	"fmt"
	"testing"

	"gdr/internal/cfd"
	"gdr/internal/group"
	"gdr/internal/relation"
	"gdr/internal/repair"
)

// buildRankFixture assembles an instance with enough groups to make the
// fan-out meaningful: several zip rules, each violated by a handful of
// tuples, with updates generated the way a session would.
func buildRankFixture(t *testing.T) (*cfd.Engine, []*group.Group) {
	t.Helper()
	schema := relation.MustSchema("R", []string{"CT", "ZIP"})
	db := relation.NewDB(schema)
	zips := []struct{ zip, city string }{
		{"46360", "Michigan City"}, {"46825", "Fort Wayne"},
		{"46391", "Westville"}, {"46514", "Elkhart"},
	}
	rulesText := ""
	for i, z := range zips {
		rulesText += fmt.Sprintf("r%d: ZIP -> CT :: %s || %s\n", i, z.zip, z.city)
		for j := 0; j < 6; j++ {
			city := z.city
			if j%2 == 0 {
				city = z.city + "X" // dirty variant
			}
			db.MustInsert(relation.Tuple{city, z.zip})
		}
	}
	eng, err := cfd.NewEngine(db, cfd.MustParse(rulesText))
	if err != nil {
		t.Fatal(err)
	}
	gs := group.Partition(repair.NewGenerator(eng).SuggestAll())
	if len(gs) < len(zips) {
		t.Fatalf("fixture produced only %d groups", len(gs))
	}
	return eng, gs
}

func TestRankParallelMatchesSerial(t *testing.T) {
	engS, gsS := buildRankFixture(t)
	engP, gsP := buildRankFixture(t)
	NewRanker(engS).Rank(gsS, ScoreProb)
	NewRanker(engP).RankParallel(gsP, ScoreProb, 8)
	if len(gsS) != len(gsP) {
		t.Fatalf("group counts differ: %d vs %d", len(gsS), len(gsP))
	}
	for i := range gsS {
		if gsS[i].Key != gsP[i].Key || gsS[i].Benefit != gsP[i].Benefit {
			t.Errorf("group %d: serial (%v, %v) vs parallel (%v, %v)",
				i, gsS[i].Key, gsS[i].Benefit, gsP[i].Key, gsP[i].Benefit)
		}
	}
}

// TestRankParallelConcurrentScoring scores from many goroutines over
// repeated rankings of one ranker (meaningful under -race).
func TestRankParallelConcurrentScoring(t *testing.T) {
	eng, gs := buildRankFixture(t)
	r := NewRanker(eng)
	for pass := 0; pass < 10; pass++ {
		r.RankParallel(gs, ScoreProb, 8)
	}
	serialEng, serialGs := buildRankFixture(t)
	NewRanker(serialEng).Rank(serialGs, ScoreProb)
	for i := range gs {
		if gs[i].Benefit != serialGs[i].Benefit {
			t.Fatalf("repeated parallel benefit diverged at group %d", i)
		}
	}
}

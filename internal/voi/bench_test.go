package voi_test

import (
	"fmt"
	"math/rand"
	"testing"

	"gdr/internal/cfd"
	"gdr/internal/group"
	"gdr/internal/relation"
	"gdr/internal/repair"
	"gdr/internal/voi"
)

// benchSetup builds the engine and the initial update groups over a
// mid-sized dirty instance; it is shared with the alloc-guard test.
func benchSetup(b testing.TB, n int) (*cfd.Engine, []*group.Group) {
	b.Helper()
	schema := relation.MustSchema("Bench", []string{"Street", "City", "State", "Zip"})
	db := relation.NewDB(schema)
	rng := rand.New(rand.NewSource(42))
	cities := []string{"Michigan City", "Westville", "Fort Wayne", "Gary", "Portage"}
	zips := []string{"46360", "46391", "46825", "46402", "46368"}
	for i := 0; i < n; i++ {
		ci := rng.Intn(len(cities))
		zi := ci
		if rng.Intn(10) == 0 {
			zi = rng.Intn(len(zips))
		}
		db.MustInsert(relation.Tuple{
			fmt.Sprintf("%d Oak St", rng.Intn(200)),
			cities[ci],
			"IN",
			zips[zi],
		})
	}
	rules := cfd.MustParse(`
phi1: Zip -> City :: _ || _
phi2: City -> Zip :: _ || _
phi3: Zip -> City :: 46360 || Michigan City
`)
	e, err := cfd.NewEngine(db, rules)
	if err != nil {
		b.Fatal(err)
	}
	g := repair.NewGenerator(e)
	ups := g.SuggestAll()
	if len(ups) == 0 {
		b.Fatal("no suggestions")
	}
	return e, group.Partition(ups)
}

// BenchmarkRank measures Eq. 6 group ranking over the initial update pool:
// every iteration re-scores every update against unchanged state, then
// sorts. Sessions never re-score unchanged state (their group index
// re-scores only groups whose inputs moved), so this is the cost of a full
// re-rank, not of a session's steady state.
func BenchmarkRank(b *testing.B) {
	eng, gs := benchSetup(b, 5000)
	r := voi.NewRanker(eng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Rank(gs, voi.ScoreProb)
	}
}

// BenchmarkRawBenefitWarm measures the per-update scoring path on a built
// engine — the inner loop of every group re-ranking between feedback
// rounds. This is the path the CI alloc guard pins to zero allocations.
func BenchmarkRawBenefitWarm(b *testing.B) {
	eng, gs := benchSetup(b, 5000)
	r := voi.NewRanker(eng)
	var ups []repair.Update
	for _, g := range gs {
		ups = append(ups, g.Updates...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RawBenefit(ups[i%len(ups)])
	}
}

// BenchmarkRankCold measures one full ranking pass by a fresh ranker: rule
// weights computed, then every pending update scored once and the groups
// sorted, as at session start.
func BenchmarkRankCold(b *testing.B) {
	eng, gs := benchSetup(b, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := voi.NewRanker(eng)
		fresh.Rank(gs, voi.ScoreProb)
	}
}

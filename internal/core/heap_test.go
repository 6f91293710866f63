package core

import (
	"bytes"
	"runtime"
	"testing"

	"gdr/internal/dataset"
	"gdr/internal/par"
	"gdr/internal/relation"
)

// TestCleanedSessionHeap loads a 2,000-row hospital session through
// ReadCSV, as an upload to gdrd does, and drives it to clean with expert
// rounds (driveRound: the ground-truth oracle answers the top VOI group,
// then a learner sweep). What the session then holds is what a server
// keeps per finished user: the prediction memo must be empty, since no
// suggestion is pending, and the live heap must stay under a bound set
// from the measured figure with margin. It fails if interned values pin
// their CSV lines again, if the memo keeps entries of resolved
// suggestions, or if trees keep their leaf nodes.
func TestCleanedSessionHeap(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("race instrumentation changes heap figures and slows the drive")
	}
	d := dataset.Hospital(dataset.Config{N: 2000, Seed: 11})
	var csv bytes.Buffer
	if err := d.Dirty.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db, err := relation.ReadCSV(bytes.NewReader(csv.Bytes()), "hospital")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(db, d.Rules, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for driveRound(t, s, d.Truth) {
		rounds++
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	runtime.KeepAlive(csv.Bytes())
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("cleaned in %d rounds (%d applied); session holds %d KB live, memo %d entries",
		rounds, s.Applied, live>>10, len(s.memo))
	if n := len(s.memo); n != 0 {
		t.Errorf("prediction memo holds %d entries with nothing pending, want 0", n)
	}
	// The session measured 341–343 KB (709–717 KB, with 1,017 memo
	// entries, before values owned their bytes, the memo retired its
	// entries and trees dropped their leaf nodes).
	const bound = 512 << 10
	if live > bound {
		t.Errorf("cleaned session holds %d KB live, want at most %d KB", live>>10, bound>>10)
	}
}

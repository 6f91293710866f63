package relation

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestReadCSVRetainsNoLines pins what an uploaded instance keeps: 2,000
// CSV lines, each with a unique key and a ~1 KB note every line shares.
// encoding/csv cuts a record's fields from one string per line, so a
// dictionary that kept the key substrings would pin every line (~2 MB);
// values that own their bytes leave the instance a small fraction of that.
func TestReadCSVRetainsNoLines(t *testing.T) {
	const lines = 2000
	note := strings.Repeat("n", 1024)
	var b strings.Builder
	b.WriteString("Key,Note\n")
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&b, "k%06d,%s\n", i, note)
	}
	csv := b.String()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	db, err := ReadCSV(strings.NewReader(csv), "R")
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(db)
	runtime.KeepAlive(csv)
	live := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d-line CSV of %d KB: the instance holds %d KB live", lines, len(csv)>>10, live>>10)
	if db.N() != lines || db.Dict(0).Len() != lines || db.Dict(1).Len() != 1 {
		t.Fatalf("read %d rows, %d keys, %d notes", db.N(), db.Dict(0).Len(), db.Dict(1).Len())
	}
	// The instance measured 218 KB; the lines alone are ten times that.
	if bound := int64(len(csv) / 4); live > bound {
		t.Fatalf("the instance holds %d KB live, want at most %d KB (a quarter of the CSV)", live>>10, bound>>10)
	}
}

// TestRowIsACappedWindow pins Row's contract over the flat storage: the
// row reflects later sets on its tuple, and appending to it cannot write
// into the next tuple.
func TestRowIsACappedWindow(t *testing.T) {
	db := NewDB(MustSchema("R", []string{"A", "B"}))
	db.MustInsert(Tuple{"a0", "b0"})
	db.MustInsert(Tuple{"a1", "b1"})
	row := db.Row(0)
	if len(row) != 2 || cap(row) != 2 {
		t.Fatalf("Row(0) has len %d cap %d, want 2 and 2", len(row), cap(row))
	}
	db.SetAt(0, 1, "b9")
	if got := db.Dict(1).Val(row[1]); got != "b9" {
		t.Fatalf("Row(0)[1] = %q after SetAt, want b9", got)
	}
	_ = append(row, 0)
	if got := db.Tuple(1); got[0] != "a1" || got[1] != "b1" {
		t.Fatalf("appending to Row(0) changed tuple 1 to %v", got)
	}
}

package main

import (
	"bytes"
	"io"
	"testing"
)

func TestRunArgValidation(t *testing.T) {
	if err := run("9", "1", 100, 1, 0.3, 1, false, io.Discard); err == nil {
		t.Fatal("want error for unknown figure")
	}
	if err := run("3", "zzz", 100, 1, 0.3, 1, false, io.Discard); err == nil {
		t.Fatal("want error for unknown dataset")
	}
}

func TestRunTinyFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full (small) figure")
	}
	if err := run("5", "2", 600, 1, 0.3, 2, false, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestRunJobFanoutDeterministic pins the dataset×figure fan-out: the full
// request, rendered from jobs completing in any order, must be
// byte-identical at any worker count.
func TestRunJobFanoutDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two small figures on both datasets twice")
	}
	render := func(workers int) string {
		var buf bytes.Buffer
		if err := run("3", "all", 300, 1, 0.3, workers, false, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	parallel := render(4)
	if serial == "" || serial != parallel {
		t.Fatalf("output diverges between workers=1 and workers=4:\n--- w1 ---\n%s\n--- w4 ---\n%s", serial, parallel)
	}
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMeasureSmall runs scaled-down versions of the three workload shapes
// end to end, timed and traced, and checks that they pass the correctness
// gate and report exactly the metrics BENCHMARK.json declares.
func TestMeasureSmall(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	for _, d := range decl.Workloads {
		if _, ok := workloadByName(d.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not defined", d.Name)
		}
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	keys := func(m map[string]metric) []string {
		var out []string
		for k := range m {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}
	same := func(a, b []string) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	without := func(xs []string, prefixes ...string) []string {
		var out []string
	next:
		for _, x := range xs {
			for _, p := range prefixes {
				if strings.HasPrefix(x, p) {
					continue next
				}
			}
			out = append(out, x)
		}
		return out
	}

	for _, w := range []workload{
		{name: "small-interactive", dataset: "hospital", rows: 300, perSecond: 4, sumCheck: true},
		{name: "small-durable", dataset: "hospital", rows: 1000, noLearn: true, durable: true, sessions: 4, roundsPerSecond: 5},
		{name: "small-cluster", dataset: "census", rows: 200, nodes: 2, rate: 100, slots: 2},
	} {
		t.Run(w.name, func(t *testing.T) {
			o := runOpts{seed: 3, dur: 600 * time.Millisecond, setups: 2, work: t.TempDir()}
			timed, traced, err := measure(w, o, true)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := keys(timed.e2e), names(decl.EndToEnd); !same(got, want) {
				t.Errorf("end-to-end metrics %v, BENCHMARK.json declares %v", got, want)
			}
			got, want := keys(traced.layers), names(decl.PerLayer)
			if w.durable {
				// The durable workload also reports its checkpoint layers,
				// which no declared workload exercises.
				got = without(got, "server.persist", "fs.")
			}
			if !same(got, want) {
				t.Errorf("per-layer metrics %v, BENCHMARK.json declares %v", got, want)
			}
			for name, m := range timed.e2e {
				if !(m.value > 0) {
					t.Errorf("%s = %g, want a positive value", name, m.value)
				}
			}
			if timed.fails != [numPhases]int{} {
				t.Errorf("failed calls per phase: %v", timed.fails)
			}
		})
	}
}

// Command perfbench is the repository's benchmark. It generates a
// workload's inputs from a seed, boots gdrd — and for the cluster workload
// gdrproxy — in its own process on loopback ports, drives them like
// experts answering GDR's questions, checks every output and prints the
// end-to-end metrics. A traced run (--trace 1) prints the per-layer
// metrics instead, measured from outside each layer through its public
// surface.
//
//	bash perfbench/run.sh --workload interactive-2k --seed 1 --seconds 15 --trace 0
//
// Workloads (one expert per session at a time, so a session's rounds are
// the same in every run with the same seed):
//
//   - interactive-2k: hospital, 2,000 rows per session, learner in the loop
//     (the paper's GDR), memory-only gdrd. A closed loop of one expert per
//     CPU for --seconds; each drives a session to clean, then takes the
//     next. Committee retraining dominates, so learner and VOI changes show.
//   - durable-20k: hospital, 20,000 rows, no_learn feedback
//     (GDR-NoLearning), gdrd with a data dir, so every round checkpoints
//     synchronously; the run ends with a restart that restores every
//     session. Eight sessions dealt to one expert per CPU, each session
//     with a fixed budget of rounds (3.5 per expert per second of
//     --seconds, capped at --seconds): these sessions never finish, and
//     later rounds are cheaper than early ones, so only a fixed budget makes
//     every run do the same work. Persistence dominates. BENCHMARK.json
//     does not list it: a checkpoint waits on rename-over-existing, whose
//     latency on a shared disk drifts by tens of percent within minutes
//     (85 to 135 ms medians on a discard-mounted ext4), wider than any
//     regression bound. Run it by hand, traced, to measure the checkpoint
//     layers (server.persist.*, fs.*).
//   - cluster-census: census, 2,000 rows per session, two diskless
//     cluster-mode gdrd behind gdrproxy with replication. An open loop at
//     150 rounds/s over 8 sessions side by side, at most one round in
//     flight per CPU and per session; latency counts from when a round was
//     due. Rounds are small, so the proxy hop, replica pushes and health
//     traffic dominate.
//
// Correctness gate: a run fails (exit 1, no result line) on any failed or
// shed request, any stale feedback item, a question or update list that
// differs from the in-process replay of the same answers, an export that
// differs byte for byte from the replay's, an export that changes across
// the durable restart, a rising open-loop backlog, or — in traced runs —
// per-layer costs of a feedback round that do not add up to the server's
// exec + persist time.
//
// The last line of standard output is the result:
// {"correct", "attempted", "failed", "metrics"}; the lines before it give
// every metric with its unit and sample count, report-only figures
// (round_p99_ms where a run has at least 1,000 rounds, restore_s,
// failed_ratio per phase, the per-round sum check) and the environment:
// nproc, Go version, commit, and the data-dir filesystem's fsync and
// rename-over-existing latency. Per-layer metrics of a layer a workload
// does not use read 0. A traced run also writes its spans, one JSON object
// per line, under .bench_build/traces/.
// Earlier BENCH_2/3/5.json figures came from a 1-CPU machine and counted
// stale items as work; this benchmark's trajectory starts fresh.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupRepeats is how often a timed run sets up; setup_s is the median.
const setupRepeats = 5

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run")
	seed := fl.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fl.Float64("seconds", 10, "length of the measured drive")
	trace := fl.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", names())
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	work := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(work)
	env, err := probeEnv(root, work)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: probing the data-dir filesystem:", err)
		return 1
	}
	o := runOpts{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), setups: setupRepeats, work: work}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envLine)

	timed, traced, err := measure(w, o, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	report(stdout, "metric", timed.e2e)
	for _, n := range timed.notes {
		fmt.Fprintln(stdout, "note", n)
	}
	result := timed.e2e
	tried, fails := timed.tried, timed.fails
	if traced != nil {
		report(stdout, "traced", traced.e2e)
		report(stdout, "layer", traced.layers)
		for _, n := range traced.notes {
			fmt.Fprintln(stdout, "note traced", n)
		}
		result = traced.layers
		for ph := range numPhases {
			tried[ph] += traced.tried[ph]
			fails[ph] += traced.fails[ph]
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for ph := range numPhases {
		res.Attempted += tried[ph]
		res.Failed += fails[ph]
	}
	for k, m := range result {
		res.Metrics[k] = value{m.value, m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// measure executes the workload with the benchmark's spans off and, when
// traced is set, once more with them on. The traced execution's per-layer
// metrics include its end-to-end difference from the timed one.
func measure(w workload, o runOpts, traced bool) (*outcome, *outcome, error) {
	timed, err := execute(w, o)
	if err != nil || !traced {
		return timed, nil, err
	}
	o.traced, o.setups = true, 1
	tr, err := execute(w, o)
	if err != nil {
		return timed, nil, fmt.Errorf("traced run: %w", err)
	}
	base := timed.e2e["round_p50_ms"].value
	tr.layers["trace.overhead_pct"] = metric{100 * ratio(tr.e2e["round_p50_ms"].value-base, base), "%", 2}
	return timed, tr, nil
}

func report(w io.Writer, kind string, ms map[string]metric) {
	keys := make([]string, 0, len(ms))
	for k := range ms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %s %g %s n=%d\n", kind, k, ms[k].value, ms[k].unit, ms[k].n)
	}
}

func names() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

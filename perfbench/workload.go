package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"gdr/internal/dataset"
	"gdr/internal/metrics"
	"gdr/internal/relation"
	"gdr/internal/server"
)

// workload is one traffic mix. Every session gets its own expert at a
// time, so a session's rounds — its questions and answers — are the same
// in every run with the same seed, whatever the timing.
type workload struct {
	name    string
	dataset string // generator: "hospital" or "census"
	rows    int    // rows per session
	noLearn bool   // answer with no_learn (GDR-NoLearning)
	durable bool   // gdrd checkpoints to a data dir; the run ends with a restart
	nodes   int    // 0: one gdrd; n: n cluster-mode gdrd behind gdrproxy
	// rate > 0 makes an open loop of that many rounds per second over
	// slots sessions side by side; 0 is a closed loop of one expert per CPU.
	rate  float64
	slots int
	// perSecond sizes the session pool of a closed loop whose experts clean
	// sessions: this many sessions per second of drive (two experts on a
	// 2-CPU machine cleaned about 6 when this was written). Experts that run
	// out stop early, which shortens the drive but leaves its rates intact.
	// 0 gives each expert one session.
	perSecond int
	// sessions > 0 fixes the session pool, dealt round-robin to the experts.
	sessions int
	// roundsPerSecond > 0 gives a closed loop a fixed budget: that many
	// rounds per expert per second of --seconds, shared evenly by each
	// expert's sessions and sized to end before --seconds (which caps the
	// drive all the same); experts on a 2-CPU machine with a discard-mounted
	// ext4 data dir ran about 4.5 rounds/s when this was written. Sessions
	// too large to clean are not stationary — early rounds rank and answer
	// far larger groups — so only a fixed budget makes every run do the same
	// work. Quality is then scored on the driven sessions as the budget left
	// them rather than on cleaned ones.
	roundsPerSecond float64
	// sumCheck: the replay's per-layer costs of each feedback round must
	// add up to the server-reported exec + persist time.
	sumCheck bool
}

var workloads = []workload{
	{name: "interactive-2k", dataset: "hospital", rows: 2000, perSecond: 8, sumCheck: true},
	{name: "durable-20k", dataset: "hospital", rows: 20000, noLearn: true, durable: true, sessions: 8, roundsPerSecond: 3.5, sumCheck: true},
	{name: "cluster-census", dataset: "census", rows: 2000, nodes: 2, rate: 150, slots: 8},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func nproc() int { return runtime.NumCPU() }

// runOpts are the knobs of one execution of a workload.
type runOpts struct {
	seed   int64
	dur    time.Duration
	traced bool
	setups int    // how many times set-up is repeated (the median is reported)
	work   string // directory for this run's files, inside the checkout
}

// metric is one reported figure with the number of samples behind it.
type metric struct {
	value float64
	unit  string
	n     int
}

// outcome is everything one execution measured.
type outcome struct {
	e2e    map[string]metric
	layers map[string]metric
	notes  []string // report-only figures (round_p99_ms, restore_s, failures per phase)
	// sumRatio is the traced run's per-round sum check: the replay's layer
	// costs of the feedback rounds over the server's exec + persist.
	sumRatio float64
	tried    [numPhases]int
	fails    [numPhases]int
}

// The per-round sum check passes when the replay's layer costs of the
// feedback rounds come to between sumLow and sumHigh of the server's exec +
// persist. The two time the same work under different contention: the
// server ran it between HTTP calls beside the other expert's session, the
// replay runs it back to back beside one other replay, which on a 2-CPU
// machine made the replay 0.86 to 1.31 times the server. Time the server
// spends outside every layer the replay times — an unmeasured step — pulls
// the ratio down, so the lower limit is the tighter one: leaving the
// temp-file create out of the checkpoint's layers read 0.59.
const sumLow, sumHigh = 0.75, 1.5

// generate makes the session inputs for a run from the seed.
func generate(w workload, seed int64, dur time.Duration) []*tenant {
	secs := int(math.Ceil(dur.Seconds()))
	n := nproc()
	switch {
	case w.sessions > 0:
		n = w.sessions
	case w.rate > 0:
		// Census sessions take about 37 rounds to clean; sizing for 25
		// leaves headroom. A loop that runs out of sessions skips rounds.
		n = int(math.Ceil(w.rate*float64(secs)/25)) + w.slots
	case w.perSecond > 0:
		n = max(2*nproc(), w.perSecond*secs)
	}
	ts := make([]*tenant, n)
	gen := dataset.Hospital
	if w.dataset == "census" {
		gen = dataset.Census
	}
	_ = forEach(n, func(i int) error {
		s := seed*100_003 + int64(i) + 1
		data := gen(dataset.Config{N: w.rows, Seed: s})
		var csv bytes.Buffer
		_ = data.Dirty.WriteCSV(&csv) // writes into memory
		var rules strings.Builder
		for _, r := range data.Rules {
			rules.WriteString(r.String() + "\n")
		}
		ts[i] = &tenant{idx: i, seed: s, csv: csv.String(), rules: rules.String(), truth: data.Truth}
		return nil
	})
	return ts
}

// deal splits the sessions k ways: list j gets j, j+k, j+2k, …
func deal(ts []*tenant, k int) [][]*tenant {
	out := make([][]*tenant, k)
	for i, t := range ts {
		out[i%k] = append(out[i%k], t)
	}
	return out
}

// forEach runs f(0..n-1) on nproc goroutines and joins the errors.
func forEach(n int, f func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < nproc(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// createAll opens every session through the API and returns how long it
// took.
func createAll(c *client, url string, ts []*tenant) (time.Duration, error) {
	start := time.Now()
	err := forEach(len(ts), func(i int) error {
		t := ts[i]
		var created server.CreateSessionResponse
		_, err := c.callJSON(phaseSetup, http.MethodPost, url+"/v1/sessions", nil, server.CreateSessionRequest{
			Name: fmt.Sprintf("perfbench-%d", t.idx), CSV: t.csv, Rules: t.rules, Seed: t.seed,
		}, &created)
		t.id = created.Session.ID
		return err
	})
	return time.Since(start), err
}

func deleteAll(c *client, url string, ts []*tenant) error {
	return forEach(len(ts), func(i int) error {
		_, err := c.call(phaseSetup, http.MethodDelete, url+"/v1/sessions/"+ts[i].id, nil, nil)
		return err
	})
}

// exportAll downloads the instance of every given session.
func exportAll(c *client, ph phase, url string, ts []*tenant) ([][]byte, error) {
	out := make([][]byte, len(ts))
	err := forEach(len(ts), func(i int) error {
		rep, err := c.call(ph, http.MethodGet, url+"/v1/sessions/"+ts[i].id+"/export", nil, nil)
		out[i] = rep.body
		return err
	})
	return out, err
}

// cpuTime is the CPU time this process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapMB is the live Go heap after a forced collection.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// spanStages are every stage gdrd records, for counting spans per request.
var spanStages = []string{"admit", "queue", "slot", "exec", "persist", "write", "fsync", "rename", "suggest", "rerank", "retrain"}

// serverCounters are the gdrd and gdrproxy counters a traced run reads.
var serverCounters = []string{
	"gdrd_shed_total", "gdrd_feedback_stale_total", "gdrd_feedback_total",
	"gdrd_groups_not_modified_total", "gdrproxy_replica_push_failures_total",
}

// serverSide is what a traced run reads off the rig around the drive:
// gdrd's stage histograms by "stage/route" and its counters, summed over
// the nodes, and the proxy's upstream calls.
type serverSide struct {
	sum     map[string]float64 // seconds
	cnt     map[string]uint64
	counter map[string]int64
	fwd, bg []rtCall
}

func readServer(r *rig) serverSide {
	s := serverSide{sum: map[string]float64{}, cnt: map[string]uint64{}, counter: map[string]int64{}}
	for _, route := range []string{"groups", "updates", "feedback"} {
		for _, stage := range spanStages {
			s.sum[stage+"/"+route], s.cnt[stage+"/"+route] = r.stageSum(stage, route)
		}
	}
	for _, name := range serverCounters {
		s.counter[name] = r.counter(name)
	}
	return s
}

// since is what changed from before, with the proxy calls made from start.
func (s serverSide) since(before serverSide, r *rig, start time.Time) serverSide {
	for k := range s.sum {
		s.sum[k] -= before.sum[k]
		s.cnt[k] -= before.cnt[k]
	}
	for k := range s.counter {
		s.counter[k] -= before.counter[k]
	}
	s.fwd, s.bg = r.fwd.since(start), r.bg.since(start)
	return s
}

// setUp creates every session the given number of times through the API,
// deleting all but the last set, and returns how long each set took.
func setUp(c *client, url string, ts []*tenant, times int) ([]float64, error) {
	var took []float64
	for rep := 0; rep < times; rep++ {
		d, err := createAll(c, url, ts)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, d.Seconds())
		if rep < times-1 {
			if err := deleteAll(c, url, ts); err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			runtime.GC() // hold one set of sessions in memory, not all of them
		}
	}
	return took, nil
}

// replayAll replays every driven session and checks its export against
// the served one. Where gdrd snapshots sessions (checkpoints, replica
// pushes), traced runs also snapshot each round and restore the final
// state, as a restart or a replica promotion does, and with a data dir
// land each snapshot in a directory the way a checkpoint does.
func replayAll(w workload, o runOpts, driven []*tenant, rec *recorder) ([]replayResult, error) {
	snapshots := o.traced && (w.durable || w.nodes > 0)
	ckptDir := ""
	if o.traced && w.durable {
		ckptDir = filepath.Join(o.work, "replay-data")
		if err := os.MkdirAll(ckptDir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(ckptDir)
	}
	results := make([]replayResult, len(driven))
	err := forEach(len(driven), func(i int) error {
		t := driven[i]
		res, err := replay(t, w.noLearn, snapshots, ckptDir, rec)
		if err != nil {
			return fmt.Errorf("replaying session %d: %w", t.idx, err)
		}
		if !bytes.Equal(res.export, t.export) {
			return fmt.Errorf("session %d: served export differs from the in-process replay", t.idx)
		}
		results[i] = res
		return nil
	})
	return results, err
}

// execute runs one workload once: generate, boot, set up, drive, check,
// (restart,) replay and score. Any correctness failure is an error.
func execute(w workload, o runOpts) (*outcome, error) {
	out := &outcome{e2e: map[string]metric{}, layers: map[string]metric{}}
	tenants := generate(w, o.seed, o.dur)
	dataDir := ""
	if w.durable {
		dataDir = filepath.Join(o.work, fmt.Sprintf("data-%t", o.traced))
	}
	var rec *recorder
	if o.traced {
		rec = newRecorder()
	}
	r, err := startRig(w, dataDir, o.traced)
	if err != nil {
		return nil, fmt.Errorf("booting: %w", err)
	}
	defer r.close()
	c := newClient(nproc(), rec)
	defer c.close()
	defer func() { out.tried, out.fails = c.totals() }()

	baseHeap := heapMB()
	setups, err := setUp(c, r.url, tenants, o.setups)
	if err != nil {
		return out, err
	}

	ex := &experts{c: c, base: r.url, noLearn: w.noLearn, rec: rec}
	var srv serverSide
	if o.traced {
		srv = readServer(r)
	}
	start, cpuStart := time.Now(), cpuTime()
	var elapsed time.Duration
	var times []roundTime
	var peak int
	if w.rate > 0 {
		elapsed, times, peak, err = ex.openLoop(deal(tenants, w.slots), w.rate, o.dur, nproc())
	} else {
		lists := deal(tenants, nproc())
		budget := int(math.Ceil(w.roundsPerSecond * o.dur.Seconds() / float64(len(lists[0]))))
		elapsed, peak, err = ex.closedLoop(lists, o.dur, budget)
	}
	if err != nil {
		return out, fmt.Errorf("drive: %w", err)
	}
	if w.rate > 0 && risingBacklog(times) {
		return out, fmt.Errorf("open loop at %g rounds/s: lateness kept growing (rising backlog)", w.rate)
	}
	cpuBusy := 100 * (cpuTime() - cpuStart).Seconds() / elapsed.Seconds() / float64(nproc())
	if o.traced {
		srv = readServer(r).since(srv, r, start)
	}
	liveHeap := heapMB() - baseHeap

	var driven []*tenant
	for _, t := range tenants {
		if len(t.rounds) > 0 || t.clean {
			driven = append(driven, t)
		}
	}
	exports, err := exportAll(c, phaseCheck, r.url, driven)
	if err != nil {
		return out, fmt.Errorf("export: %w", err)
	}
	for i, t := range driven {
		t.export = exports[i]
	}
	if w.durable {
		took, err := restart(r, c, driven)
		if err != nil {
			return out, err
		}
		out.notes = append(out.notes, line("restore_s", took.Seconds(), "s", len(driven)))
	}
	// The replay runs once the rig is gone, so it shares the CPUs with
	// nothing but itself.
	r.close()
	results, err := replayAll(w, o, driven, rec)
	if err != nil {
		return out, err
	}

	scored := driven
	if w.roundsPerSecond == 0 {
		scored = nil
		for _, t := range driven {
			if t.clean {
				scored = append(scored, t)
			}
		}
	}
	prec, recall, perFix, err := quality(scored)
	if err != nil {
		return out, err
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	rounds := sortedCopy(ex.roundMS)
	feeds := sortedCopy(ex.feedMS)
	groups := sortedCopy(ex.groupsMS)
	set := func(name string, v float64, unit string, n int) { out.e2e[name] = metric{v, unit, n} }
	set("applied_per_s", float64(ex.applied)/elapsed.Seconds(), "items/s", ex.applied)
	set("round_p50_ms", quantile(rounds, 500), "ms", len(rounds))
	set("round_p90_ms", quantile(rounds, 900), "ms", len(rounds))
	set("feedback_p50_ms", quantile(feeds, 500), "ms", len(feeds))
	set("groups_p50_ms", quantile(groups, 500), "ms", len(groups))
	set("setup_s", quantile(sortedCopy(setups), 500), "s", len(setups))
	set("live_heap_mb", liveHeap, "MB", len(tenants))
	set("repair_precision", prec, "ratio", len(scored))
	set("repair_recall", recall, "ratio", len(scored))
	set("answers_per_fix", perFix, "answers/fix", len(scored))
	if pm := tailPermille(len(rounds)); pm >= 990 {
		out.notes = append(out.notes, line(fmt.Sprintf("round_p%g_ms", float64(pm)/10), quantile(rounds, pm), "ms", len(rounds)))
	}
	tried, fails := c.totals()
	var tt, ff int
	var per []string
	for ph := range numPhases {
		tt, ff = tt+tried[ph], ff+fails[ph]
		per = append(per, fmt.Sprintf("%s=%d/%d", phaseNames[ph], fails[ph], tried[ph]))
	}
	out.notes = append(out.notes,
		fmt.Sprintf("failed_ratio %g ratio n=%d (%s)", ratio(float64(ff), float64(tt)), tt, strings.Join(per, " ")),
		fmt.Sprintf("drive %d rounds in %.2fs, %d sessions driven, %d cleaned, %d in pool, CPU %.0f%% busy",
			len(rounds), elapsed.Seconds(), len(driven), countClean(driven), len(tenants), cpuBusy))

	if o.traced {
		layers(out, w, driven, results, srv, rec, elapsed, times, peak)
		path := filepath.Join(filepath.Dir(o.work), "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
		if err := writeSpans(path, rec.snapshot()); err != nil {
			return out, err
		}
		out.notes = append(out.notes, "spans written to "+path)
		if w.sumCheck && (out.sumRatio < sumLow || out.sumRatio > sumHigh) {
			return out, fmt.Errorf("per-round sum check: replay layers add up to %.3f of the server's exec+persist, outside [%g, %g]", out.sumRatio, sumLow, sumHigh)
		}
	} else if w.rate > 0 {
		lags := make([]float64, len(times))
		for i, t := range times {
			lags[i] = ms(t.lag())
		}
		out.notes = append(out.notes, line("loadgen.lag_p99_ms", quantile(sortedCopy(lags), 990), "ms", len(lags)))
	}
	return out, nil
}

func countClean(ts []*tenant) int {
	n := 0
	for _, t := range ts {
		if t.clean {
			n++
		}
	}
	return n
}

func line(name string, v float64, unit string, n int) string {
	return fmt.Sprintf("%s %g %s n=%d", name, v, unit, n)
}

// restart stops the durable gdrd, which flushes a final checkpoint of every
// session, boots a fresh one on the same data dir and waits until every
// session answers. Each session's export must read the same afterwards.
func restart(r *rig, c *client, driven []*tenant) (time.Duration, error) {
	old := r.nodes[0]
	old.stop()
	r.nodes = nil
	start := time.Now()
	n, err := startNode(old.cfg)
	if err != nil {
		return 0, fmt.Errorf("restarting: %w", err)
	}
	r.nodes, r.url = []*node{n}, n.url
	err = forEach(len(driven), func(i int) error {
		_, err := c.call(phaseRestore, http.MethodGet, n.url+"/v1/sessions/"+driven[i].id+"/status", nil, nil)
		return err
	})
	took := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("restore: %w", err)
	}
	after, err := exportAll(c, phaseRestore, n.url, driven)
	if err != nil {
		return 0, fmt.Errorf("restore: %w", err)
	}
	for i, t := range driven {
		if !bytes.Equal(after[i], t.export) {
			return 0, fmt.Errorf("session %d: export changed across the restart", t.idx)
		}
	}
	return took, nil
}

// quality scores the exports against the generator's truth: the mean
// per-session precision and recall of metrics.Accuracy, and the user
// answers spent per initially wrong cell that ends correct.
func quality(ts []*tenant) (precision, recall, answersPerFix float64, err error) {
	if len(ts) == 0 {
		return 0, 0, 0, errors.New("no session to score")
	}
	var answers, fixed float64
	for _, t := range ts {
		dirty, err := relation.ReadCSV(strings.NewReader(t.csv), "upload")
		if err != nil {
			return 0, 0, 0, err
		}
		final, err := relation.ReadCSV(bytes.NewReader(t.export), "export")
		if err != nil {
			return 0, 0, 0, err
		}
		acc, err := metrics.NewAccuracy(dirty, t.truth)
		if err != nil {
			return 0, 0, 0, err
		}
		p, r := acc.PrecisionRecall(final)
		precision += p
		recall += r
		// A changed cell that is now correct was wrong at the start, so
		// recall × initially-wrong counts the fixes.
		fixed += math.Round(r * float64(acc.InitiallyWrong()))
		for _, rl := range t.rounds {
			answers += float64(len(rl.items))
		}
	}
	n := float64(len(ts))
	return precision / n, recall / n, ratio(answers, fixed), nil
}

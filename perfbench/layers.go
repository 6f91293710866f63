package main

import (
	"fmt"
	"sort"
	"time"

	"gdr/internal/metrics"
	"gdr/internal/obs"
)

// layers fills the traced run's per-layer metrics. Each is measured from
// outside the layer, through its public surface: client spans joined with
// Server-Timing and gdrd's stage histograms for the server, the replay's
// spans for the in-process layers, the RoundTrippers for the proxy.
func layers(out *outcome, w workload, driven []*tenant, results []replayResult, srv serverSide, rec *recorder, elapsed time.Duration, times []roundTime, peak int) {
	set := func(name string, v float64, unit string, n int) { out.layers[name] = metric{v, unit, n} }

	// server: round trips joined with the Server-Timing of each response.
	// gdrd caps the spans of one trace and drops those past the cap; a
	// root stage is recorded when it ends, after its children, so a round
	// with many engine phases can lose its exec and persist stages. Such
	// responses are counted and left out of the stage figures.
	httpMS := map[string][]float64{}
	execMS := map[string][]float64{}
	var queue, slot []float64
	var sumServer, sumReplay float64
	var fbRounds, responses, truncated int
	var feedbackExec float64     // request exec of every feedback response that reports one
	complete := map[int64]bool{} // feedback rounds whose Server-Timing is whole
	var replies []reply
	for _, t := range driven {
		for _, rl := range t.rounds {
			replies = append(replies, rl.replies...)
			for _, tm := range rl.timings {
				responses++
				exec, hasExec := tm.stages["exec"]
				_, hasPersist := tm.stages["persist"]
				if tm.route == "feedback" {
					feedbackExec += exec
				}
				if !hasExec || (w.durable && tm.route == "feedback" && !hasPersist) {
					truncated++
					continue
				}
				httpMS[tm.route] = append(httpMS[tm.route], tm.httpMS())
				execMS[tm.route] = append(execMS[tm.route], tm.stages["exec"])
				queue = append(queue, tm.stages["queue"])
				slot = append(slot, tm.stages["slot"])
				if tm.route == "feedback" {
					sumServer += tm.stages["exec"] + tm.stages["persist"]
					complete[rl.id] = true
				}
			}
			fbRounds++
		}
	}
	for _, route := range []string{"groups", "updates", "feedback"} {
		set("server.http_ms."+route, mean(httpMS[route]), "ms", len(httpMS[route]))
		set("server.exec_ms."+route, mean(execMS[route]), "ms", len(execMS[route]))
	}
	set("server.queue_ms", mean(queue), "ms", len(queue))
	set("server.slot_ms", mean(slot), "ms", len(slot))
	set("server.timing_truncated_ratio", ratio(float64(truncated), float64(responses)), "ratio", responses)

	var answers, snapBytes, snapshots, ranked, ranks, retrains, retrainedExs int
	for _, r := range results {
		answers += r.answers
		snapBytes += r.snapBytes
		snapshots += r.snapshots
		ranked += r.ranked
		ranks += r.ranks
		retrains += r.retrains
		retrainedExs += r.retrainedExs
	}
	if w.durable {
		persist(set, srv, feedbackExec, answers, snapBytes)
	}
	stale, fed := srv.counter["gdrd_feedback_stale_total"], srv.counter["gdrd_feedback_total"]
	set("server.stale_ratio", ratio(float64(stale), float64(stale+fed)), "ratio", int(stale+fed))
	set("server.not_modified_ratio", ratio(float64(srv.counter["gdrd_groups_not_modified_total"]), float64(len(httpMS["groups"]))), "ratio", len(httpMS["groups"]))
	set("server.sheds", float64(srv.counter["gdrd_shed_total"]), "count", int(srv.counter["gdrd_shed_total"]))

	// In-process layers, from the replay's spans.
	spans := rec.snapshot()
	agg := byName(spans)
	set("core.groups_ms", agg["core.groups"].meanMS(), "ms", agg["core.groups"].n)
	set("core.answer_ms", agg["core.answer"].selfMS(), "ms", agg["core.answer"].n)
	set("core.new_session_ms", agg["core.new_session"].meanMS(), "ms", agg["core.new_session"].n)
	set("cfd.new_engine_ms", agg["cfd.new_engine"].meanMS(), "ms", agg["cfd.new_engine"].n)
	set("relation.read_csv_ms", agg["relation.read_csv"].meanMS(), "ms", agg["relation.read_csv"].n)
	set("core.restore_session_ms", agg["core.restore_session"].meanMS(), "ms", agg["core.restore_session"].n)
	set("learn.retrain_ms", agg["learn.retrain"].meanMS(), "ms", agg["learn.retrain"].n)
	set("learn.retrains_per_answer", ratio(float64(retrains), float64(answers)), "ratio", answers)
	set("learn.examples_per_retrain", ratio(float64(retrainedExs), float64(retrains)), "examples", retrains)
	set("voi.rerank_ms", agg["voi.rerank"].meanMS(), "ms", agg["voi.rerank"].n)
	set("group.groups_ranked", ratio(float64(ranked), float64(ranks)), "groups", ranks)
	set("repair.suggest_ms", agg["repair.suggest"].meanMS(), "ms", agg["repair.suggest"].n)
	suggestsInFeedback := 0
	for _, s := range spans {
		if s.Name == "repair.suggest" && s.Parent >= 0 && spans[s.Parent].Name == "core.answer" {
			suggestsInFeedback++
		}
	}
	set("repair.suggest_calls", ratio(float64(suggestsInFeedback), float64(fbRounds)), "calls/round", fbRounds)
	set("snapshot.encode_ms", agg["snapshot.encode"].meanMS(), "ms", agg["snapshot.encode"].n)
	set("snapshot.decode_ms", agg["snapshot.decode"].meanMS(), "ms", agg["snapshot.decode"].n)
	set("snapshot.bytes", ratio(float64(snapBytes), float64(snapshots)), "bytes", snapshots)

	if w.durable {
		set("fs.checkpoint_ms", agg["fs.checkpoint"].meanMS(), "ms", agg["fs.checkpoint"].n)
		set("fs.create_ms", agg["fs.create"].meanMS(), "ms", agg["fs.create"].n)
		set("fs.close_ms", agg["fs.close"].meanMS(), "ms", agg["fs.close"].n)
	}

	// Per-round sum check: the replay's cost of each served feedback round
	// — the answers with their engine phases and, where gdrd checkpoints,
	// the snapshot encode and the file writes — against the server's exec +
	// persist for the same round.
	for _, s := range spans {
		if !complete[s.Round] {
			continue
		}
		switch s.Name {
		case "core.feedback":
			sumReplay += ms(time.Duration(s.End - s.Start))
		case "snapshot.encode", "fs.checkpoint":
			if w.durable {
				sumReplay += ms(time.Duration(s.End - s.Start))
			}
		}
	}
	out.sumRatio = ratio(sumReplay, sumServer)
	out.notes = append(out.notes, line("check.sum_ratio", out.sumRatio, "ratio", len(complete)))

	// cluster: forwards matched to the client call that caused them, and
	// the proxy's own calls.
	fwd := map[string]time.Duration{}
	var upstream []float64
	for _, c := range srv.fwd {
		if c.id != "" {
			fwd[c.id] = c.dur
			upstream = append(upstream, ms(c.dur))
		}
	}
	var hops []float64
	for _, rp := range replies {
		if d, ok := fwd[rp.id]; ok {
			hops = append(hops, ms(rp.rt-d))
		}
	}
	var pushMS []float64
	var bgTotal time.Duration
	byKind := map[string][]float64{}
	for _, c := range srv.bg {
		bgTotal += c.dur
		byKind[c.kind] = append(byKind[c.kind], ms(c.dur))
		if c.kind == "replica.put" {
			pushMS = append(pushMS, ms(c.dur))
		}
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		out.notes = append(out.notes, line("proxy.call_ms."+k, mean(byKind[k]), "ms", len(byKind[k])))
	}
	set("proxy.hop_ms", mean(hops), "ms", len(hops))
	set("proxy.upstream_ms", mean(upstream), "ms", len(upstream))
	set("proxy.replica_push_ms", mean(pushMS), "ms", len(pushMS))
	set("proxy.pushes_per_round", ratio(float64(len(pushMS)), float64(fbRounds)), "ratio", fbRounds)
	set("proxy.background_ms_per_s", ratio(ms(bgTotal), elapsed.Seconds()), "ms/s", len(srv.bg))
	pushFailures := srv.counter["gdrproxy_replica_push_failures_total"]
	set("proxy.push_failures", float64(pushFailures), "count", int(pushFailures))

	// obs: one trace lifecycle with the spans gdrd recorded per request.
	var spansSeen uint64
	for _, n := range srv.cnt {
		spansSeen += n
	}
	perReq := int(ratio(float64(spansSeen), float64(responses)) + 0.5)
	set("obs.trace_us_per_request", traceLifecycle(perReq), "us", traceBatches*traceBatch)
	out.notes = append(out.notes, fmt.Sprintf("obs lifecycle timed with %d spans per request, as gdrd recorded", perReq))

	// loadgen: the benchmark's own validity.
	lags := make([]float64, len(times))
	for i, t := range times {
		lags[i] = ms(t.lag())
	}
	set("loadgen.lag_p99_ms", quantile(sortedCopy(lags), 990), "ms", len(lags))
	set("loadgen.inflight_max", float64(peak), "count", peak)
}

// persist fills the checkpoint metrics of a workload whose gdrd has a data
// dir, from the stage histograms' change over the drive: per checkpoint,
// the persist stage and its write, fsync and rename children, and the
// snapshot bytes written per answer.
func persist(set func(string, float64, string, int), srv serverSide, feedbackExec float64, answers, snapBytes int) {
	n := srv.cnt["persist/feedback"]
	perCheckpoint := func(key string) float64 { return ratio(srv.sum[key]*1e3, float64(n)) }
	set("server.persist_ms", perCheckpoint("persist/feedback"), "ms", int(n))
	// The checkpoint's encode runs on the actor as an exec span nested under
	// persist, which the stage histogram counts but the response's
	// Server-Timing (root stages only) does not. Spans past the cap are all
	// dropped, so a response without its request exec adds to neither side.
	set("server.persist.encode_ms", ratio(srv.sum["exec/feedback"]*1e3-feedbackExec, float64(n)), "ms", int(n))
	set("server.persist.write_ms", perCheckpoint("write/feedback"), "ms", int(n))
	set("server.persist.fsync_ms", perCheckpoint("fsync/feedback"), "ms", int(n))
	set("server.persist.rename_ms", perCheckpoint("rename/feedback"), "ms", int(n))
	set("server.persist.bytes_per_answer", ratio(float64(snapBytes), float64(answers)), "bytes", answers)
}

// The trace lifecycle is timed in traceBatches batches of traceBatch.
const traceBatches, traceBatch = 5, 20000

// traceLifecycle is the cost, in microseconds, of one request's trace
// through internal/obs's public API: start, the given number of spans, the
// Server-Timing render and finish, with a finish hook that feeds per-stage
// histograms as gdrd's does. It reports the median of five batches.
func traceLifecycle(spans int) float64 {
	stages := []string{"admit", "queue", "slot", "exec", "persist"}
	var per []float64
	for b := 0; b < traceBatches; b++ {
		reg := metrics.NewRegistry()
		tr := obs.NewTracer(obs.Config{Seed: 1})
		tr.OnFinish = func(t *obs.Trace) {
			for _, sp := range t.Spans() {
				reg.LabeledHistogram("gdrd_stage_seconds", "stage", sp.Stage, "route", t.Route()).Observe(sp.Dur.Seconds())
			}
		}
		start := time.Now()
		for i := 0; i < traceBatch; i++ {
			t := tr.Start("", "feedback")
			for j := 0; j < spans; j++ {
				t.StartSpan(stages[j%len(stages)]).End()
			}
			_ = t.ServerTiming()
			t.Finish(200)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/traceBatch/1e3)
	}
	return quantile(sortedCopy(per), 500)
}

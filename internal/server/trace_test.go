package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gdr/internal/core"
	"gdr/internal/metrics"
	"gdr/internal/obs"
	"gdr/internal/par"
)

// firstGroupFeedback reads the first VOI group's pending updates and
// returns a feedback body confirming all of them.
func firstGroupFeedback(t *testing.T, ts *httptest.Server, base string) []byte {
	t.Helper()
	var groups GroupsResponse
	if code := doJSON(t, ts.Client(), "GET", base+"/groups?order=voi", nil, &groups); code != 200 {
		t.Fatalf("groups: status %d", code)
	}
	if len(groups.Groups) == 0 {
		t.Fatal("no groups")
	}
	var ups UpdatesResponse
	if code := doJSON(t, ts.Client(), "GET", base+"/groups/"+groups.Groups[0].Key+"/updates", nil, &ups); code != 200 {
		t.Fatalf("updates: status %d", code)
	}
	items := make([]FeedbackItem, len(ups.Updates))
	for i, u := range ups.Updates {
		items[i] = FeedbackItem{Tid: u.Tid, Attr: u.Attr, Value: u.Value, Feedback: "confirm"}
	}
	payload, err := json.Marshal(FeedbackRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// feedbackFirstGroup drives one full feedback round (groups → updates →
// confirm all) against a live test server, returning the response to the
// feedback POST itself so callers can inspect its headers.
func feedbackFirstGroup(t *testing.T, ts *httptest.Server, sessionID, traceparent string) *http.Response {
	t.Helper()
	base := ts.URL + "/v1/sessions/" + sessionID
	payload := firstGroupFeedback(t, ts, base)
	req, err := http.NewRequest("POST", base+"/feedback", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("Traceparent", traceparent)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != 200 {
		t.Fatalf("feedback: status %d", resp.StatusCode)
	}
	return resp
}

// TestRequestTracingEndToEnd drives a feedback round with persistence on and
// checks the full observability contract: the traceparent echo, the
// Server-Timing stage breakdown, and the span tree at /debug/traces showing
// the request's path through the queue, the engine and the checkpoint
// pipeline.
func TestRequestTracingEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{
		DataDir: t.TempDir(),
		Trace:   obs.Config{Seed: 42},
	})
	created := createFigure1Session(t, ts)

	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	resp := feedbackFirstGroup(t, ts, created.Session.ID, inbound)

	echo := resp.Header.Get("Traceparent")
	tid, sid, ok := obs.ParseTraceParent(echo)
	if !ok || tid != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("traceparent echo %q: want the inbound trace ID back", echo)
	}
	if sid == "00f067aa0ba902b7" {
		t.Error("traceparent echo must carry this server's span ID, not the inbound parent's")
	}
	st := resp.Header.Get("Server-Timing")
	for _, stage := range []string{"queue", "exec", "persist"} {
		if !strings.Contains(st, stage+";dur=") {
			t.Errorf("Server-Timing %q missing stage %q", st, stage)
		}
	}

	// The trace debug endpoint (loopback, since httptest serves on 127.0.0.1)
	// must show the feedback trace as a span tree.
	var body obs.TracesBody
	if code := doJSON(t, ts.Client(), "GET", ts.URL+"/debug/traces", nil, &body); code != 200 {
		t.Fatalf("/debug/traces: status %d", code)
	}
	if !body.Enabled || len(body.Recent) == 0 {
		t.Fatalf("traces body: enabled=%v recent=%d", body.Enabled, len(body.Recent))
	}
	tr := body.Recent[0] // newest first; /debug/traces itself is untraced
	if tr.Route != "feedback" || tr.TraceID != tid || tr.Status != 200 {
		t.Fatalf("newest trace: %+v", tr)
	}
	if tr.Session != created.Session.ID {
		t.Errorf("trace session = %q, want %q", tr.Session, created.Session.ID)
	}
	roots := map[string]obs.SpanJSON{}
	var rootSum float64
	for _, sp := range tr.Spans {
		roots[sp.Stage] = sp
		rootSum += sp.Seconds
	}
	for _, stage := range []string{"admit", "queue", "slot", "exec", "persist"} {
		if _, ok := roots[stage]; !ok {
			t.Errorf("span tree missing root stage %q (have %v)", stage, tr.Spans)
		}
	}
	// Root stages are sequential, so their durations must not exceed the
	// request's total (small epsilon for float rounding in the JSON).
	if rootSum > tr.Seconds*1.01+0.001 {
		t.Errorf("root stages sum to %fs > request total %fs", rootSum, tr.Seconds)
	}
	persistChildren := map[string]bool{}
	for _, c := range roots["persist"].Children {
		persistChildren[c.Stage] = true
	}
	for _, stage := range []string{"write", "fsync", "rename"} {
		if !persistChildren[stage] {
			t.Errorf("persist span missing child %q (have %v)", stage, roots["persist"].Children)
		}
	}
}

// TestTracesLoopbackOnly pins the access rule: traces carry tenant names and
// session tokens, so a non-loopback peer gets 403 no matter what.
func TestTracesLoopbackOnly(t *testing.T) {
	srv := New(Config{Trace: obs.Config{Seed: 1}})
	defer srv.Close()
	for addr, want := range map[string]int{
		"192.0.2.1:1234": http.StatusForbidden,
		"127.0.0.1:5000": http.StatusOK,
		"[::1]:5000":     http.StatusOK,
		"10.0.0.8:443":   http.StatusForbidden,
		"not-an-address": http.StatusForbidden,
	} {
		req := httptest.NewRequest("GET", "/debug/traces", nil)
		req.RemoteAddr = addr
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		if rec.Code != want {
			t.Errorf("RemoteAddr %s: status %d, want %d", addr, rec.Code, want)
		}
	}
}

// TestFeedbackOverSpanCapReachesStageHistograms sends one feedback round
// whose engine phases overflow the trace's retention cap. The cap bounds
// only what /debug/traces keeps: the response's Server-Timing still
// carries exec, and gdrd_stage_seconds counts the round's exec exactly once.
func TestFeedbackOverSpanCapReachesStageHistograms(t *testing.T) {
	srv, ts := newTestServer(t, Config{Trace: obs.Config{Seed: 1}})
	csvText, rulesText, _ := hospitalUpload(t, 400, 7)
	base := ts.URL + "/v1/sessions/" + createHTTPSession(t, ts, csvText, rulesText, 7)
	var groups GroupsResponse
	if code := doJSON(t, ts.Client(), "GET", base+"/groups?order=greedy", nil, &groups); code != 200 {
		t.Fatalf("groups: status %d", code)
	}
	// About 80 pending updates: each applied one regenerates suggestions
	// under its own suggest span.
	var items []FeedbackItem
	for _, g := range groups.Groups {
		if len(items) >= 80 {
			break
		}
		var ups UpdatesResponse
		if code := doJSON(t, ts.Client(), "GET", base+"/groups/"+g.Key+"/updates", nil, &ups); code != 200 {
			t.Fatalf("updates: status %d", code)
		}
		for _, u := range ups.Updates {
			items = append(items, FeedbackItem{Tid: u.Tid, Attr: u.Attr, Value: u.Value, Feedback: "confirm"})
		}
	}
	payload, err := json.Marshal(FeedbackRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(base+"/feedback", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	// Reading to EOF waits out the handler, so the trace has finished.
	_, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("feedback: status %d, err %v", resp.StatusCode, err)
	}

	var body obs.TracesBody
	if code := doJSON(t, ts.Client(), "GET", ts.URL+"/debug/traces", nil, &body); code != 200 {
		t.Fatalf("/debug/traces: status %d", code)
	}
	if len(body.Recent) == 0 || body.Recent[0].Route != "feedback" {
		t.Fatalf("newest trace is not the feedback round: %+v", body.Recent)
	}
	if body.Recent[0].Dropped == 0 {
		t.Fatalf("a %d-item round stayed under the span cap; the test needs a bigger batch", len(items))
	}
	if st := resp.Header.Get("Server-Timing"); !strings.Contains(st, "exec;dur=") {
		t.Errorf("Server-Timing %q lost the exec stage", st)
	}
	exec := srv.Registry().LabeledHistogram("gdrd_stage_seconds", "stage", "exec", "route", "feedback")
	if n := exec.Count(); n != 1 {
		t.Errorf("exec/feedback observations = %d, want 1 for one feedback request", n)
	}
}

// TestOneLatencySource drives every session route once on a durable server
// and pins the metrics contract: the trace's spans are the only stage
// timings, so /metrics carries exactly two histogram families, and the
// create's slot wait is one of the spans.
func TestOneLatencySource(t *testing.T) {
	srv, ts := newDurableServer(t, t.TempDir(), core.Config{Workers: 1})
	t.Cleanup(func() { ts.Close(); srv.Close() })
	created := createFigure1Session(t, ts)
	base := ts.URL + "/v1/sessions/" + created.Session.ID
	if code := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/sessions", nil, nil); code != 200 {
		t.Fatalf("list: status %d", code)
	}
	feedbackFirstGroup(t, ts, created.Session.ID, "") // groups, updates, feedback
	for _, req := range []struct{ method, path string }{
		{"GET", "/status"}, {"GET", "/export"}, {"POST", "/snapshot"}, {"DELETE", ""},
	} {
		if code := doJSON(t, ts.Client(), req.method, base+req.path, nil, nil); code != 200 {
			t.Fatalf("%s %s: status %d", req.method, req.path, code)
		}
	}

	got := metricsText(t, ts)
	var families []string
	for _, line := range strings.Split(got, "\n") {
		if name, ok := strings.CutSuffix(line, " histogram"); ok {
			families = append(families, strings.TrimPrefix(name, "# TYPE "))
		}
	}
	if want := "[gdrd_request_seconds gdrd_stage_seconds]"; fmt.Sprint(families) != want {
		t.Errorf("histogram families = %v, want %s", families, want)
	}
	// Two slot waits on route create: the build's, and the first
	// checkpoint's encode command.
	if !strings.Contains(got, `gdrd_stage_seconds_count{route="create",stage="slot"} 2`+"\n") {
		t.Error("the create's slot wait is not counted in gdrd_stage_seconds")
	}
}

// TestRouteLabel pins the bounded route label set — every value becomes a
// Prometheus label, so unknown shapes must collapse to "other".
func TestRouteLabel(t *testing.T) {
	cases := []struct {
		method, path, want string
	}{
		{"GET", "/healthz", "healthz"},
		{"GET", "/metrics", "metrics"},
		{"GET", "/debug/traces", "traces"},
		{"POST", "/v1/sessions", "create"},
		{"GET", "/v1/sessions", "list"},
		{"GET", "/v1/sessions/abc/groups", "groups"},
		{"GET", "/v1/sessions/abc/groups/k1/updates", "updates"},
		{"POST", "/v1/sessions/abc/feedback", "feedback"},
		{"GET", "/v1/sessions/abc/status", "status"},
		{"GET", "/v1/sessions/abc/export", "export"},
		{"POST", "/v1/sessions/abc/snapshot", "snapshot"},
		{"DELETE", "/v1/sessions/abc", "delete"},
		{"GET", "/v1/sessions/abc", "other"},
		{"GET", "/nope", "other"},
	}
	for _, c := range cases {
		if got := routeLabel(c.method, c.path); got != c.want {
			t.Errorf("routeLabel(%s %s) = %q, want %q", c.method, c.path, got, c.want)
		}
	}
}

// TestStageHistogramsResolveOnce pins the per-span cost of the stage
// histograms: once a known stage × route pair has been seen, observing it
// neither builds a series key nor allocates. The handles are the
// registry's own series, and an unknown pair still reaches the registry.
func TestStageHistogramsResolveOnce(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("race instrumentation inflates alloc counts")
	}
	reg := metrics.NewRegistry()
	hs := newStageHists(reg)
	hs.get(core.PhaseRerank, "groups").Observe(0.001)
	allocs := testing.AllocsPerRun(500, func() {
		hs.get(core.PhaseRerank, "groups").Observe(0.002)
	})
	if allocs != 0 {
		t.Fatalf("observing a known stage × route pair allocates %.1f times, want 0", allocs)
	}
	for _, c := range []struct{ stage, route string }{{core.PhaseRerank, "groups"}, {"exec", "feedback"}, {"custom", "groups"}} {
		want := reg.LabeledHistogram("gdrd_stage_seconds", "route", c.route, "stage", c.stage)
		if got := hs.get(c.stage, c.route); got != want {
			t.Errorf("stage %q route %q: handle differs from the registry's series", c.stage, c.route)
		}
	}
}

package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseTraceParent(t *testing.T) {
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"
	const sid = "00f067aa0ba902b7"
	good := "00-" + tid + "-" + sid + "-01"
	gotT, gotS, ok := ParseTraceParent(good)
	if !ok || gotT != tid || gotS != sid {
		t.Fatalf("ParseTraceParent(%q) = %q, %q, %v", good, gotT, gotS, ok)
	}
	bad := map[string]string{
		"empty":         "",
		"truncated":     good[:54],
		"long":          good + "0",
		"version":       "01-" + tid + "-" + sid + "-01",
		"uppercase":     "00-" + strings.ToUpper(tid) + "-" + sid + "-01",
		"nonhex":        "00-" + tid[:31] + "g-" + sid + "-01",
		"zero trace id": "00-" + strings.Repeat("0", 32) + "-" + sid + "-01",
		"zero span id":  "00-" + tid + "-" + strings.Repeat("0", 16) + "-01",
		"bad separator": "00_" + tid + "-" + sid + "-01",
	}
	for name, h := range bad {
		if _, _, ok := ParseTraceParent(h); ok {
			t.Errorf("%s: ParseTraceParent(%q) accepted", name, h)
		}
	}
}

func TestStartAdoptsAndMintsIDs(t *testing.T) {
	tr := NewTracer(Config{Seed: 1})
	const in = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	adopted := tr.Start(in, "feedback")
	if adopted.ID() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("adopted trace ID = %q", adopted.ID())
	}
	if adopted.parentSpan != "00f067aa0ba902b7" {
		t.Errorf("parent span = %q", adopted.parentSpan)
	}
	out := adopted.TraceParent()
	if !strings.HasPrefix(out, "00-"+adopted.ID()+"-") || !strings.HasSuffix(out, "-01") {
		t.Errorf("outbound traceparent %q does not echo the trace ID", out)
	}
	if _, sid, ok := ParseTraceParent(out); !ok || sid == "00f067aa0ba902b7" {
		t.Errorf("outbound traceparent %q must carry our own span ID", out)
	}

	minted := tr.Start("garbage", "status")
	if len(minted.ID()) != 32 || !isLowerHex(minted.ID()) {
		t.Errorf("minted trace ID = %q, want 32 lowercase hex chars", minted.ID())
	}
	if minted.Route() != "status" {
		t.Errorf("route = %q", minted.Route())
	}

	// A fixed seed makes minted IDs reproducible.
	again := NewTracer(Config{Seed: 1}).Start(in, "feedback")
	if again.TraceParent() != out {
		t.Errorf("seeded span IDs differ: %q vs %q", again.TraceParent(), out)
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	// Background work and library callers carry no trace: every trace
	// method must be a no-op on nil.
	var tct *Trace
	tct.SetTenant("a")
	tct.SetSession("b")
	tct.RecordSpan("x", "", time.Now(), time.Second)
	h := tct.StartSpan("y")
	h.End()
	tct.Finish(200)
	if tct.ID() != "" || tct.ServerTiming() != "" || tct.Spans() != nil {
		t.Fatal("nil trace should render empty")
	}
}

// finishWithDur seals tct as if it had run for dur.
func finishWithDur(tct *Trace, dur time.Duration, status int) {
	tct.start = time.Now().Add(-dur)
	tct.Finish(status)
}

func TestRingRetention(t *testing.T) {
	tr := NewTracer(Config{Capacity: 3, Slowest: 2, Seed: 7})
	for i := 0; i < 5; i++ {
		tct := tr.Start("", fmt.Sprintf("r%d", i))
		finishWithDur(tct, time.Duration(i+1)*time.Millisecond, 200)
	}
	recent, slowest, total := tr.snapshot()
	if total != 5 {
		t.Errorf("total = %d, want 5", total)
	}
	var got []string
	for _, tct := range recent {
		got = append(got, tct.Route())
	}
	if want := []string{"r4", "r3", "r2"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("recent = %v, want %v (newest first)", got, want)
	}
	got = got[:0]
	for _, tct := range slowest {
		got = append(got, tct.Route())
	}
	if want := []string{"r4", "r3"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("slowest = %v, want %v (descending)", got, want)
	}
}

func TestSlowestKeepsOutliers(t *testing.T) {
	// A slow early request must survive a burst of fast ones that wraps the
	// ring — that is the whole point of the separate slowest list.
	tr := NewTracer(Config{Capacity: 2, Slowest: 4, Seed: 7})
	outlier := tr.Start("", "slow")
	finishWithDur(outlier, time.Second, 200)
	for i := 0; i < 10; i++ {
		finishWithDur(tr.Start("", "fast"), time.Millisecond, 200)
	}
	recent, slowest, _ := tr.snapshot()
	for _, tct := range recent {
		if tct.Route() == "slow" {
			t.Fatal("outlier should have been evicted from the ring by now")
		}
	}
	if len(slowest) == 0 || slowest[0].Route() != "slow" {
		t.Fatalf("slowest[0] should be the outlier, got %v", slowest)
	}
	if len(slowest) > 4 {
		t.Fatalf("slowest list exceeded its bound: %d", len(slowest))
	}
}

func TestSpanCapDropsExcess(t *testing.T) {
	tr := NewTracer(Config{Seed: 1})
	tct := tr.Start("", "feedback")
	for i := 0; i < maxSpans+5; i++ {
		tct.RecordSpan("s", "", time.Now(), time.Millisecond)
	}
	tct.Finish(200) // the cap applies to what the finished trace retains
	if n := len(tct.Spans()); n != maxSpans {
		t.Errorf("retained %d spans, want %d", n, maxSpans)
	}
	if d := tct.Dropped(); d != 5 {
		t.Errorf("dropped = %d, want 5", d)
	}
}

// TestOnFinishSeesEverySpan pins recording versus retention: the cap bounds
// only what a finished trace keeps, so the finish hook (which feeds gdrd's
// stage histograms) sees every span the request recorded.
func TestOnFinishSeesEverySpan(t *testing.T) {
	tr := NewTracer(Config{Seed: 1})
	var seen int
	tr.OnFinish = func(tct *Trace) { seen = len(tct.Spans()) }
	tct := tr.Start("", "feedback")
	for i := 0; i < maxSpans+5; i++ {
		tct.RecordSpan("s", "", time.Now(), time.Millisecond)
	}
	if n, d := len(tct.Spans()), tct.Dropped(); n != maxSpans+5 || d != 0 {
		t.Fatalf("before Finish: %d spans, %d dropped; want %d, 0", n, d, maxSpans+5)
	}
	tct.Finish(200)
	if seen != maxSpans+5 {
		t.Errorf("OnFinish saw %d spans, want all %d", seen, maxSpans+5)
	}
	if n, d := len(tct.Spans()), tct.Dropped(); n != maxSpans || d != 5 {
		t.Errorf("after Finish: %d spans, %d dropped; want %d, 5", n, d, maxSpans)
	}
}

// TestSpanAfterFinishNotKept: a finished trace is immutable, so a span
// that ends after Finish counts as dropped instead of joining it.
func TestSpanAfterFinishNotKept(t *testing.T) {
	tr := NewTracer(Config{Seed: 1})
	tct := tr.Start("", "feedback")
	tct.RecordSpan("queue", "", time.Now(), time.Millisecond)
	tct.Finish(200)
	tct.RecordSpan("late", "", time.Now(), time.Millisecond)
	if n := len(tct.Spans()); n != 1 {
		t.Errorf("retained %d spans, want 1", n)
	}
	if d := tct.Dropped(); d != 1 {
		t.Errorf("dropped = %d, want 1", d)
	}
}

// TestConcurrentSpansAllAccounted races span recording against Finish:
// every span is either retained or counted as dropped, and the retained
// trace stays within the cap.
func TestConcurrentSpansAllAccounted(t *testing.T) {
	tr := NewTracer(Config{Seed: 1})
	tct := tr.Start("", "feedback")
	const workers, each = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tct.StartChild("exec", "suggest").End()
			}
		}()
	}
	tct.Finish(200)
	wg.Wait()
	retained := len(tct.Spans())
	if retained > maxSpans || retained+tct.Dropped() != workers*each {
		t.Errorf("retained %d + dropped %d spans, want at most %d retained and %d in all",
			retained, tct.Dropped(), maxSpans, workers*each)
	}
}

// TestRetentionKeepsRootStages: trimming a heavy trace keeps every root
// stage and fills the rest of the cap with the earliest children, so the
// slowest requests — the ones /debug/traces keeps on purpose — still show
// where their time went, with the kept children nested under exec.
func TestRetentionKeepsRootStages(t *testing.T) {
	tr := NewTracer(Config{Seed: 1})
	tct := tr.Start("", "feedback")
	now := time.Now()
	tct.RecordSpan("admit", "", now, time.Millisecond)
	tct.RecordSpan("queue", "", now, time.Millisecond)
	tct.RecordSpan("slot", "", now, time.Millisecond)
	const children = 70
	for i := 0; i < children; i++ {
		tct.RecordSpan("suggest", "exec", now, time.Duration(i+1)*time.Microsecond)
	}
	tct.RecordSpan("exec", "", now, 100*time.Millisecond)
	tct.Finish(200)

	spans := tct.Spans()
	if len(spans) != maxSpans {
		t.Fatalf("retained %d spans, want %d", len(spans), maxSpans)
	}
	if d := tct.Dropped(); d != 4+children-maxSpans {
		t.Errorf("dropped = %d, want %d", d, 4+children-maxSpans)
	}
	kept := 0
	for i, sp := range spans {
		if sp.Stage != "suggest" {
			continue
		}
		// The earliest children survive, in recording order.
		kept++
		if want := time.Duration(kept) * time.Microsecond; sp.Dur != want {
			t.Errorf("span %d: child lasts %v, want %v", i, sp.Dur, want)
		}
	}
	if kept != maxSpans-4 {
		t.Errorf("kept %d children, want %d", kept, maxSpans-4)
	}

	j, _ := tct.render(0)
	if j.Dropped != 4+children-maxSpans {
		t.Errorf("rendered dropped_spans = %d", j.Dropped)
	}
	var roots []string
	for _, n := range j.Spans {
		roots = append(roots, n.Stage)
		if n.Stage == "exec" && len(n.Children) != maxSpans-4 {
			t.Errorf("exec nests %d children, want %d", len(n.Children), maxSpans-4)
		}
	}
	if want := "[admit queue slot exec]"; fmt.Sprint(roots) != want {
		t.Errorf("rendered roots = %v, want %s", roots, want)
	}
}

// TestTrimKeepsFirstRoots: when the roots alone exceed the cap, the trace
// keeps the first maxSpans of them and no children.
func TestTrimKeepsFirstRoots(t *testing.T) {
	tr := NewTracer(Config{Seed: 1})
	tct := tr.Start("", "feedback")
	now := time.Now()
	for i := 0; i < maxSpans+3; i++ {
		tct.RecordSpan("suggest", "exec", now, time.Microsecond)
		tct.RecordSpan(fmt.Sprintf("r%d", i), "", now, time.Microsecond)
	}
	tct.Finish(200)
	spans := tct.Spans()
	if len(spans) != maxSpans || tct.Dropped() != maxSpans+6 {
		t.Fatalf("retained %d spans, dropped %d; want %d, %d", len(spans), tct.Dropped(), maxSpans, maxSpans+6)
	}
	for i, sp := range spans {
		if want := fmt.Sprintf("r%d", i); sp.Stage != want || sp.Parent != "" {
			t.Fatalf("span %d = %+v, want root %s", i, sp, want)
		}
	}
}

func TestServerTimingMergesRoots(t *testing.T) {
	tr := NewTracer(Config{Seed: 1})
	tct := tr.Start("", "feedback")
	now := time.Now()
	tct.RecordSpan("admit", "", now, 2*time.Millisecond)
	tct.RecordSpan("queue", "", now, 3*time.Millisecond)
	tct.RecordSpan("queue", "", now, 4*time.Millisecond) // merged with the first
	tct.RecordSpan("suggest", "exec", now, time.Millisecond)
	got := tct.ServerTiming()
	if got != "admit;dur=2.000, queue;dur=7.000" {
		t.Errorf("ServerTiming = %q", got)
	}
	if empty := tr.Start("", "x").ServerTiming(); empty != "" {
		t.Errorf("no roots should render empty, got %q", empty)
	}
}

func TestFinishSealsOnce(t *testing.T) {
	tr := NewTracer(Config{Seed: 1})
	tct := tr.Start("", "feedback")
	finishWithDur(tct, 50*time.Millisecond, 503)
	first := tct.Duration()
	if tct.Status() != 503 || first < 50*time.Millisecond {
		t.Fatalf("sealed status=%d dur=%v", tct.Status(), first)
	}
	tct.Finish(200) // second call must be ignored
	if tct.Status() != 503 || tct.Duration() != first {
		t.Error("Finish resealed an already-finished trace")
	}
	if _, _, total := tr.snapshot(); total != 1 {
		t.Errorf("trace filed %d times", total)
	}
}

func TestSpanDurSumsStage(t *testing.T) {
	tr := NewTracer(Config{Seed: 1})
	tct := tr.Start("", "feedback")
	now := time.Now()
	tct.RecordSpan("queue", "", now, 2*time.Millisecond)
	tct.RecordSpan("queue", "persist", now, 3*time.Millisecond)
	if d := tct.SpanDur("queue"); d != 5*time.Millisecond {
		t.Errorf("SpanDur(queue) = %v", d)
	}
	if d := tct.SpanDur("absent"); d != 0 {
		t.Errorf("SpanDur(absent) = %v", d)
	}
}

func TestBuildTreeNestsByStage(t *testing.T) {
	// Spans are recorded at End, so parents follow their children in the
	// flat list — exactly the order a feedback round with a checkpoint
	// produces. The tree must reattach children to the nearest FOLLOWING
	// matching stage, falling back to a preceding one.
	spans := []Span{
		{Stage: "admit", Parent: ""},
		{Stage: "queue", Parent: ""},
		{Stage: "suggest", Parent: "exec"},
		{Stage: "exec", Parent: ""},
		{Stage: "write", Parent: "persist"},
		{Stage: "fsync", Parent: "persist"},
		{Stage: "persist", Parent: ""},
		{Stage: "orphan", Parent: "nosuch"},
	}
	tree := buildTree(spans)
	byStage := map[string][]string{}
	var walk func(nodes []SpanJSON, parent string)
	walk = func(nodes []SpanJSON, parent string) {
		for _, n := range nodes {
			byStage[parent] = append(byStage[parent], n.Stage)
			walk(n.Children, n.Stage)
		}
	}
	walk(tree, "")
	if want := "[admit queue exec persist orphan]"; fmt.Sprint(byStage[""]) != want {
		t.Errorf("roots = %v, want %s", byStage[""], want)
	}
	if want := "[suggest]"; fmt.Sprint(byStage["exec"]) != want {
		t.Errorf("exec children = %v, want %s", byStage["exec"], want)
	}
	if want := "[write fsync]"; fmt.Sprint(byStage["persist"]) != want {
		t.Errorf("persist children = %v, want %s", byStage["persist"], want)
	}
}

func TestHandlerServesTraces(t *testing.T) {
	tr := NewTracer(Config{Seed: 1})
	fast := tr.Start("", "status")
	finishWithDur(fast, time.Millisecond, 200)
	slow := tr.Start("", "feedback")
	slow.SetTenant("acme")
	slow.SetSession("tok123")
	slow.RecordSpan("queue", "", time.Now(), 2*time.Millisecond)
	finishWithDur(slow, 200*time.Millisecond, 200)

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	var body TracesBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if !body.Enabled || body.Total != 2 || len(body.Recent) != 2 {
		t.Fatalf("body = enabled %v total %d recent %d", body.Enabled, body.Total, len(body.Recent))
	}
	got := body.Recent[0]
	if got.Route != "feedback" || got.Tenant != "acme" || got.Session != "tok123" {
		t.Errorf("newest trace = %+v", got)
	}
	if len(got.Spans) != 1 || got.Spans[0].Stage != "queue" {
		t.Errorf("spans = %+v", got.Spans)
	}

	// min_dur filters both lists.
	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?min_dur=100ms", nil))
	body = TracesBody{}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(body.Recent) != 1 || body.Recent[0].Route != "feedback" {
		t.Errorf("min_dur filter kept %+v", body.Recent)
	}

	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?min_dur=bogus", nil))
	if rec.Code != 400 {
		t.Errorf("bad min_dur: status %d, want 400", rec.Code)
	}
}

func TestNewLoggerAndParseLevel(t *testing.T) {
	var buf strings.Builder
	logger, err := NewLogger(&buf, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("hidden")
	logger.Warn("shown", "trace_id", "abc")
	line := strings.TrimSpace(buf.String())
	if strings.Contains(line, "hidden") {
		t.Error("info line leaked past warn level")
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("json log line %q: %v", line, err)
	}
	if rec["msg"] != "shown" || rec["trace_id"] != "abc" {
		t.Errorf("record = %v", rec)
	}
	if _, err := NewLogger(&buf, "xml", "info"); err == nil {
		t.Error("bad format accepted")
	}
	if _, err := NewLogger(&buf, "text", "loud"); err == nil {
		t.Error("bad level accepted")
	}
	for name, want := range map[string]string{"": "INFO", "debug": "DEBUG", "warning": "WARN", "error": "ERROR"} {
		lvl, err := ParseLevel(name)
		if err != nil || lvl.String() != want {
			t.Errorf("ParseLevel(%q) = %v, %v", name, lvl, err)
		}
	}
}

package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
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

func TestNewTracerDisabled(t *testing.T) {
	tr := NewTracer(Config{Capacity: -1})
	if tr != nil {
		t.Fatal("negative capacity should disable tracing")
	}
	tct := tr.Start("", "feedback") // nil receiver: valid, returns nil
	if tct != nil {
		t.Fatal("nil tracer must hand out nil traces")
	}
	// Every trace method must be a no-op on nil.
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
	if n := len(tct.Spans()); n != maxSpans {
		t.Errorf("retained %d spans, want %d", n, maxSpans)
	}
	if d := tct.Dropped(); d != 5 {
		t.Errorf("dropped = %d, want 5", d)
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

	// A nil tracer serves a well-formed disabled document.
	rec = httptest.NewRecorder()
	(*Tracer)(nil).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	body = TracesBody{Enabled: true}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Enabled {
		t.Errorf("nil tracer: err=%v enabled=%v", err, body.Enabled)
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

// Package obs is gdrd's observability layer: a stdlib-only, context-
// propagated request tracer and the daemon's structured-logging helpers.
//
// Every HTTP request gets a Trace at ingress — its ID adopted from an
// incoming W3C traceparent header or minted from the tracer's seeded RNG —
// and the trace rides the request context through admission, the session's
// turn, the CPU-slot scheduler, command execution, the engine phases and
// the checkpoint pipeline. Each tier records flat Spans (stage name, parent
// stage name, offset, duration); the span tree is only materialized when a
// human asks for it at /debug/traces. Every span a request records reaches
// the tracer's OnFinish hook, which is how the serving tier's latency
// histograms see each stage. A finished trace is then trimmed to a bounded
// copy and lands in a fixed-size ring plus a separate slowest-N list, so the
// interesting outliers survive even under high request rates.
//
// Tracing is always on. The package is deliberately dependency-free, and a
// nil *Trace (background work, library callers) is a valid no-op receiver
// everywhere, which is what lets the serving tier instrument
// unconditionally.
package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"strconv"
	"sync"
	"time"
)

// Config tunes a Tracer.
type Config struct {
	// Capacity is the completed-trace ring size (<= 0 selects the default,
	// 256).
	Capacity int
	// Slowest is how many slowest traces are retained independently of the
	// ring (default 32), so outliers survive a burst of fast requests.
	Slowest int
	// Seed seeds the trace/span ID source (0 = from the wall clock). A
	// fixed seed makes trace IDs reproducible for tests.
	Seed int64
}

// Defaults for Config's zero values.
const (
	defaultCapacity = 256
	defaultSlowest  = 32
)

// Span bounds: spanPrealloc covers a typical request without regrowing the
// slice; maxSpans bounds what a finished trace retains, enough for a
// feedback round with a checkpoint (admit, queue, slot, exec, a handful of
// engine phases, encode, persist and its three children). Finish trims the
// rest.
const (
	spanPrealloc = 16
	maxSpans     = 64
)

// Tracer mints per-request Traces and retains completed ones: the last
// Capacity in a ring plus the Slowest worst offenders.
type Tracer struct {
	slowN int

	// OnFinish, when set before serving starts, observes every finished
	// trace (the server exports per-stage histograms from it). It runs on
	// the goroutine that calls Finish, after the trace is sealed and before
	// it is trimmed, so Spans returns every span the request recorded.
	OnFinish func(*Trace)

	mu    sync.Mutex
	rng   *rand.Rand  // gdr:guarded-by mu — trace/span ID source
	ring  []*Trace    // gdr:guarded-by mu — finished traces, oldest overwritten
	next  int         // gdr:guarded-by mu — ring write cursor
	total uint64      // gdr:guarded-by mu — finished traces ever
	slow  []slowEntry // gdr:guarded-by mu — slowest finished, descending
}

// slowEntry pairs a finished trace with its duration, copied at insertion
// so ordering the list never reads another trace's fields.
type slowEntry struct {
	t   *Trace
	dur time.Duration
}

// NewTracer builds a tracer.
func NewTracer(cfg Config) *Tracer {
	if cfg.Capacity <= 0 {
		cfg.Capacity = defaultCapacity
	}
	if cfg.Slowest <= 0 {
		cfg.Slowest = defaultSlowest
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	return &Tracer{
		slowN: cfg.Slowest,
		rng:   rand.New(rand.NewSource(seed)),
		ring:  make([]*Trace, cfg.Capacity),
		slow:  make([]slowEntry, 0, cfg.Slowest),
	}
}

// Start begins a trace for one request. traceparent is the raw incoming
// header value ("" or malformed mints a fresh trace ID); route is the
// bounded route label the trace is attributed to.
func (tr *Tracer) Start(traceparent, route string) *Trace {
	t := &Trace{
		tracer: tr,
		route:  route,
		start:  time.Now(),
		spans:  make([]Span, 0, spanPrealloc),
	}
	if tid, sid, ok := ParseTraceParent(traceparent); ok {
		t.id, t.parentSpan = tid, sid
	}
	tr.mu.Lock()
	if t.id == "" {
		t.id = randHex(tr.rng, 16)
	}
	t.spanID = randHex(tr.rng, 8)
	tr.mu.Unlock()
	return t
}

// finish hands a sealed trace to OnFinish with every span it recorded,
// trims it, then files it into the ring and the slowest list.
func (tr *Tracer) finish(t *Trace, dur time.Duration) {
	if tr.OnFinish != nil {
		tr.OnFinish(t)
	}
	t.trim()
	tr.mu.Lock()
	tr.ring[tr.next] = t
	tr.next = (tr.next + 1) % len(tr.ring)
	tr.total++
	if len(tr.slow) < tr.slowN || dur > tr.slow[len(tr.slow)-1].dur {
		// Insertion point by hand: the list is short (defaultSlowest) and a
		// sort.Search closure would read tr.slow outside guardedby's lock
		// tracking.
		i := 0
		for i < len(tr.slow) && tr.slow[i].dur >= dur {
			i++
		}
		if len(tr.slow) < tr.slowN {
			tr.slow = append(tr.slow, slowEntry{})
		}
		copy(tr.slow[i+1:], tr.slow[i:])
		tr.slow[i] = slowEntry{t: t, dur: dur}
	}
	tr.mu.Unlock()
}

// snapshot copies the retained traces: ring contents newest-first, then the
// slowest list (descending). Total is the number of traces ever finished.
func (tr *Tracer) snapshot() (recent, slowest []*Trace, total uint64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	recent = make([]*Trace, 0, len(tr.ring))
	for i := 0; i < len(tr.ring); i++ {
		t := tr.ring[(tr.next-1-i+2*len(tr.ring))%len(tr.ring)]
		if t == nil {
			break
		}
		recent = append(recent, t)
	}
	slowest = make([]*Trace, len(tr.slow))
	for i, e := range tr.slow {
		slowest[i] = e.t
	}
	return recent, slowest, tr.total
}

// randHex draws nbytes (at most 16) of seeded randomness as lowercase hex.
func randHex(rng *rand.Rand, nbytes int) string {
	var b [16]byte
	for i := 0; i < nbytes; i += 8 {
		binary.BigEndian.PutUint64(b[i:i+8], rng.Uint64())
	}
	return hex.EncodeToString(b[:nbytes])
}

// Span is one completed stage of a trace. Start is the offset from the
// trace's start; Parent names the enclosing stage ("" = a root span).
// Parent-by-stage-name keeps recording allocation-free across goroutine and
// process layers — the tree is only built for display.
type Span struct {
	Stage  string
	Parent string
	Start  time.Duration
	Dur    time.Duration
}

// Trace is one request's trace. It is created by Tracer.Start, carried in
// the request context, filled with Spans by each tier (from any goroutine),
// and sealed by Finish. All methods are safe on a nil receiver.
type Trace struct {
	tracer     *Tracer
	id         string // 32 lowercase hex chars
	spanID     string // this server's span, 16 hex chars
	parentSpan string // inbound parent span ID ("" when we originated the trace)
	route      string
	start      time.Time

	mu      sync.Mutex
	tenant  string        // gdr:guarded-by mu
	session string        // gdr:guarded-by mu
	spans   []Span        // gdr:guarded-by mu
	dropped int           // gdr:guarded-by mu — spans trimmed at Finish or recorded after it
	done    bool          // gdr:guarded-by mu — Finish sealed the trace
	status  int           // gdr:guarded-by mu — HTTP status, set by Finish
	dur     time.Duration // gdr:guarded-by mu — total duration, set by Finish
}

// ID returns the 32-hex-char trace ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Route returns the bounded route label ("" on a nil trace).
func (t *Trace) Route() string {
	if t == nil {
		return ""
	}
	return t.route
}

// TraceParent renders the outbound W3C traceparent header for this trace:
// our span ID under the (possibly adopted) trace ID, sampled flag set.
func (t *Trace) TraceParent() string {
	if t == nil {
		return ""
	}
	return "00-" + t.id + "-" + t.spanID + "-01"
}

// SetTenant attributes the trace to a tenant.
func (t *Trace) SetTenant(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.tenant = name
	t.mu.Unlock()
}

// Tenant returns the attributed tenant ("" if none).
func (t *Trace) Tenant() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tenant
}

// SetSession attributes the trace to a session token.
func (t *Trace) SetSession(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.session = id
	t.mu.Unlock()
}

// Session returns the attributed session token ("" if none).
func (t *Trace) Session() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.session
}

// RecordSpan appends one completed span. Until Finish every span is kept,
// so OnFinish sees them all; a span recorded after Finish is not kept and
// counts as dropped.
func (t *Trace) RecordSpan(stage, parent string, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	off := start.Sub(t.start)
	t.mu.Lock()
	if t.done {
		t.dropped++
	} else {
		t.spans = append(t.spans, Span{Stage: stage, Parent: parent, Start: off, Dur: dur})
	}
	t.mu.Unlock()
}

// RecordSince records a span that started at start and ends now.
func (t *Trace) RecordSince(stage, parent string, start time.Time) {
	if t == nil {
		return
	}
	t.RecordSpan(stage, parent, start, time.Since(start))
}

// SpanHandle is an open span: created by StartSpan/StartChild, completed by
// End. It is a value (no allocation); the zero handle (from a nil trace) is
// a no-op.
type SpanHandle struct {
	t      *Trace
	stage  string
	parent string
	start  time.Time
}

// StartSpan opens a root span.
func (t *Trace) StartSpan(stage string) SpanHandle {
	return t.StartChild("", stage)
}

// StartChild opens a span under the named parent stage.
func (t *Trace) StartChild(parent, stage string) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	return SpanHandle{t: t, stage: stage, parent: parent, start: time.Now()}
}

// End records the span. Safe on the zero handle.
func (h SpanHandle) End() {
	if h.t == nil {
		return
	}
	h.t.RecordSpan(h.stage, h.parent, h.start, time.Since(h.start))
}

// Spans returns a copy of the recorded spans: every one until Finish has
// handed the trace to OnFinish, the retained ones after.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Dropped returns how many spans the retained trace lost: those trimmed at
// Finish past the per-trace cap, plus any recorded after Finish.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SpanDur sums the durations of all spans with the given stage name.
func (t *Trace) SpanDur(stage string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, sp := range t.spans {
		if sp.Stage == stage {
			d += sp.Dur
		}
	}
	return d
}

// maxTimingStages bounds the distinct root stages a Server-Timing header
// reports; the serving tier records at most five.
const maxTimingStages = 8

// ServerTiming renders the root spans recorded so far as a Server-Timing
// header value (durations in milliseconds), merging repeated stages. It is
// called at response-header time, before Finish.
func (t *Trace) ServerTiming() string {
	if t == nil {
		return ""
	}
	type agg struct {
		stage string
		dur   time.Duration
	}
	var roots [maxTimingStages]agg
	n := 0
	t.mu.Lock()
	for _, sp := range t.spans {
		if sp.Parent != "" {
			continue
		}
		merged := false
		for i := 0; i < n; i++ {
			if roots[i].stage == sp.Stage {
				roots[i].dur += sp.Dur
				merged = true
				break
			}
		}
		if !merged && n < len(roots) {
			roots[n] = agg{stage: sp.Stage, dur: sp.Dur}
			n++
		}
	}
	t.mu.Unlock()
	if n == 0 {
		return ""
	}
	buf := make([]byte, 0, 24*n)
	for i := 0; i < n; i++ {
		if i > 0 {
			buf = append(buf, ',', ' ')
		}
		buf = append(buf, roots[i].stage...)
		buf = append(buf, ";dur="...)
		buf = strconv.AppendFloat(buf, float64(roots[i].dur)/float64(time.Millisecond), 'f', 3, 64)
	}
	return string(buf)
}

// Finish seals the trace with the response status, hands every recorded
// span to the tracer's OnFinish, trims the trace to at most maxSpans spans
// and files it with the tracer. Only the first call has effect; later span
// recording is dropped by the done flag staying set (filed traces are
// immutable, which is what makes them safe to serve from /debug/traces).
func (t *Trace) Finish(status int) {
	if t == nil {
		return
	}
	d := time.Since(t.start)
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.status = status
	t.dur = d
	t.mu.Unlock()
	t.tracer.finish(t, d)
}

// trim cuts a sealed trace down to maxSpans spans: every root span first
// (the first maxSpans if there are more), then the earliest children, so
// the slowest requests keep their root stages and buildTree still nests
// the children. The kept spans are copied, in recording order, to a fresh
// slice, so a retained trace never pins a large in-flight array.
func (t *Trace) trim() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) <= maxSpans {
		return
	}
	roots := 0
	for _, sp := range t.spans {
		if sp.Parent == "" {
			roots++
		}
	}
	roots = min(roots, maxSpans)
	children := maxSpans - roots
	kept := make([]Span, 0, maxSpans)
	for _, sp := range t.spans {
		switch {
		case sp.Parent == "" && roots > 0:
			kept = append(kept, sp)
			roots--
		case sp.Parent != "" && children > 0:
			kept = append(kept, sp)
			children--
		}
	}
	t.dropped += len(t.spans) - len(kept)
	t.spans = kept
}

// Duration returns the sealed total duration (0 before Finish).
func (t *Trace) Duration() time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dur
}

// Status returns the sealed HTTP status (0 before Finish).
func (t *Trace) Status() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// ctxKey carries the *Trace in a request context.
type ctxKey struct{}

// NewContext returns ctx carrying the trace (ctx unchanged for nil).
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the context's trace, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// ParseTraceParent parses a W3C traceparent header
// (version "00": 00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>).
// It returns the trace and parent span IDs, or ok=false for anything
// malformed — a bad header is ignored, never an error.
func ParseTraceParent(h string) (traceID, spanID string, ok bool) {
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	tid, sid, flags := h[3:35], h[36:52], h[53:55]
	if !isLowerHex(tid) || !isLowerHex(sid) || !isLowerHex(flags) {
		return "", "", false
	}
	if allZero(tid) || allZero(sid) {
		return "", "", false
	}
	return tid, sid, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

package obs

import (
	"testing"
	"time"

	"gdr/internal/par"
)

// TestSpanRecordingSteadyStateAllocs pins the per-span cost on a live trace:
// below the preallocated span capacity, opening and ending a span must not
// allocate — SpanHandle is a value and the spans slice is sized for a full
// feedback round up front.
func TestSpanRecordingSteadyStateAllocs(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	tr := NewTracer(Config{Seed: 1})
	tct := tr.Start("", "feedback")
	allocs := testing.AllocsPerRun(spanPrealloc-2, func() {
		h := tct.StartChild("exec", "suggest")
		h.End()
	})
	if allocs != 0 {
		t.Errorf("span recording cost %v allocs, want 0 below the preallocated capacity", allocs)
	}
}

// TestTraceLifecycleAllocBound bounds the whole per-request tracing cost —
// mint, a representative span set, Server-Timing render, finish — to a small
// constant, so tracing stays cheap enough to leave on in production.
func TestTraceLifecycleAllocBound(t *testing.T) {
	if par.RaceEnabled {
		t.Skip("allocation counts are inflated under the race detector")
	}
	tr := NewTracer(Config{Capacity: 8, Seed: 1})
	allocs := testing.AllocsPerRun(100, func() {
		tct := tr.Start("", "feedback")
		now := time.Now()
		tct.RecordSpan("admit", "", now, time.Millisecond)
		tct.RecordSpan("queue", "", now, time.Millisecond)
		tct.RecordSpan("exec", "", now, time.Millisecond)
		_ = tct.ServerTiming()
		tct.Finish(200)
	})
	// Trace struct, span slice, two ID strings, Server-Timing buffer and its
	// string — leave modest headroom without letting a per-span regression by.
	if allocs > 8 {
		t.Errorf("trace lifecycle cost %v allocs per request, want <= 8", allocs)
	}
}

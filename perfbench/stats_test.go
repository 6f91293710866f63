package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPermille(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {50, 0}, {99, 0}, {100, 900}, {999, 900},
		{1000, 990}, {9999, 990}, {10000, 999},
	} {
		if got := tailPermille(c.n); got != c.want {
			t.Errorf("tailPermille(%d) = %d, want %d", c.n, got, c.want)
		}
		if pm := tailPermille(c.n); pm > 0 && beyond(c.n, pm) < minBeyond {
			t.Errorf("n=%d: p%d has only %d samples beyond it", c.n, pm, beyond(c.n, pm))
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		pm   int
		want float64
	}{{500, 50}, {900, 90}, {990, 99}, {999, 100}, {1, 1}} {
		if got := quantile(xs, c.pm); got != c.want {
			t.Errorf("quantile(1..100, %d) = %g, want %g", c.pm, got, c.want)
		}
	}
	if got := quantile(nil, 500); got != 0 {
		t.Errorf("quantile of nothing = %g, want 0", got)
	}
}

func TestServerTimingJoin(t *testing.T) {
	h := "admit;dur=0.010, queue;dur=0.5, bogus, exec;desc=x;dur=4.25, slot;dur=abc, persist;dur=12, exec;dur=0.25"
	tm := joinTiming("feedback", 20*time.Millisecond, h)
	want := map[string]float64{"admit": 0.01, "queue": 0.5, "exec": 4.5, "persist": 12}
	if len(tm.stages) != len(want) {
		t.Fatalf("stages = %v, want %v", tm.stages, want)
	}
	for k, v := range want {
		if math.Abs(tm.stages[k]-v) > 1e-9 {
			t.Errorf("stage %s = %g, want %g", k, tm.stages[k], v)
		}
	}
	if got := tm.serverMS(); math.Abs(got-17.01) > 1e-9 {
		t.Errorf("serverMS = %g, want 17.01", got)
	}
	if got := tm.httpMS(); math.Abs(got-2.99) > 1e-9 {
		t.Errorf("httpMS = %g, want 2.99 (round trip minus server stages)", got)
	}
	if empty := joinTiming("groups", time.Millisecond, ""); empty.serverMS() != 0 || empty.httpMS() != 1 {
		t.Errorf("no header: server %g http %g, want 0 and the whole round trip", empty.serverMS(), empty.httpMS())
	}
}

func TestOpenLoopLateness(t *testing.T) {
	r := roundTime{due: 10 * time.Millisecond, start: 30 * time.Millisecond, end: 35 * time.Millisecond}
	if r.lag() != 20*time.Millisecond || r.latency() != 25*time.Millisecond {
		t.Fatalf("lag %v latency %v, want 20ms and 25ms counted from the due time", r.lag(), r.latency())
	}

	const interval = 4 * time.Millisecond
	schedule := func(n int, lag func(i int) time.Duration) []roundTime {
		out := make([]roundTime, n)
		for i := range out {
			due := time.Duration(i) * interval
			out[i] = roundTime{due: due, start: due + lag(i), end: due + lag(i) + time.Millisecond}
		}
		return out
	}
	onTime := schedule(1000, func(i int) time.Duration { return time.Duration(i%3) * 100 * time.Microsecond })
	if risingBacklog(onTime) {
		t.Error("an on-time loop reads as a rising backlog")
	}
	// Service slower than the schedule: each round is sent 0.5ms later
	// than the one before, so lateness grows without bound.
	behind := schedule(1000, func(i int) time.Duration { return time.Duration(i) * 500 * time.Microsecond })
	if !risingBacklog(behind) {
		t.Error("a loop falling steadily behind is not flagged")
	}
	// One 300ms stall in the second quarter that the system then drains.
	stall := schedule(1000, func(i int) time.Duration {
		if i >= 300 && i < 375 {
			return time.Duration(375-i) * interval
		}
		return 0
	})
	if risingBacklog(stall) {
		t.Error("a stall the system recovered from reads as a rising backlog")
	}
	if risingBacklog(nil) {
		t.Error("no rounds reads as a rising backlog")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},    // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120},   // spills past the parent
		{Name: "a1", Parent: 1, Start: 15, End: 20},   // grandchild: a's, not root's
		{Name: "other", Parent: -1, Start: 0, End: 7}, // an unrelated root
	}
	want := []int64{100 - 40 - 10, 20 - 5, 30, 30, 5, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	agg := byName(spans)
	if l := agg["root"]; l.n != 1 || l.total != 100 || l.own != 50 {
		t.Errorf("byName(root) = %+v, want one span of 100 with 50 self", l)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct{ method, path, want string }{
		{"GET", "/healthz", "health"},
		{"GET", "/v1/replicas", "replica.list"},
		{"PUT", "/v1/replicas/t@abc", "replica.put"},
		{"DELETE", "/v1/replicas/abc", "replica.delete"},
		{"GET", "/v1/replicas/abc", "replica.get"},
		{"POST", "/v1/sessions", "create"},
		{"GET", "/v1/sessions", "list"},
		{"POST", "/v1/sessions/abc/snapshot", "snapshot"},
		{"GET", "/v1/sessions/abc/groups", "groups"},
		{"GET", "/v1/sessions/abc/groups/a:b/updates", "updates"},
		{"POST", "/v1/sessions/abc/feedback", "feedback"},
		{"GET", "/v1/sessions/abc/export", "export"},
		{"DELETE", "/v1/sessions/abc", "delete"},
		{"GET", "/elsewhere", "other"},
	} {
		if got := classify(c.method, c.path); got != c.want {
			t.Errorf("classify(%s %s) = %q, want %q", c.method, c.path, got, c.want)
		}
	}
}

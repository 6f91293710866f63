package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

// TestProxyClusterLoadRun is the acceptance drive for -proxy mode: a
// 3-node in-process cluster with one node abruptly killed mid-run. Every
// tenant must still finish 100% repaired (no session lost to the crash),
// and the report must carry the per-node distribution.
func TestProxyClusterLoadRun(t *testing.T) {
	var out bytes.Buffer
	err := run(runConfig{
		proxyN: 3, kill: true, sessions: 4, users: 8, rounds: 200,
		n: 120, seed: 42,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	if rep.Cluster == nil {
		t.Fatal("proxy mode produced no cluster report")
	}
	if rep.Cluster.Nodes != 3 || len(rep.Cluster.PerNode) != 3 {
		t.Fatalf("cluster distribution: %+v", rep.Cluster)
	}
	if rep.Cluster.KilledNode == "" {
		t.Fatal("no node was killed mid-drive")
	}
	live, requests := 0, int64(0)
	for _, nl := range rep.Cluster.PerNode {
		if nl.Live {
			live++
		}
		requests += nl.Requests
		if nl.URL == rep.Cluster.KilledNode && nl.Live {
			t.Fatalf("killed node %s still on the ring", nl.URL)
		}
	}
	if live != 2 {
		t.Fatalf("live nodes after kill = %d, want 2", live)
	}
	if requests == 0 {
		t.Fatal("proxy forwarded no requests")
	}
	if rep.Cluster.Recovered == 0 && rep.Cluster.Migrations == 0 {
		t.Fatal("the crash triggered neither recovery nor migration")
	}
	// The acceptance bar: every tenant drove its repair to completion
	// despite the crash — the suggestion queue is fully drained (an
	// uncrashed single-node run of this workload ends the same way, with
	// ~85-96% of cells cleaned and the remainder beyond the candidate
	// generator), and nobody lost enough state to stall below that band.
	if len(rep.Sessions) != 4 {
		t.Fatalf("outcomes: %+v", rep.Sessions)
	}
	for _, o := range rep.Sessions {
		if o.Pending != 0 {
			t.Fatalf("session %d still has pending suggestions: %+v", o.Index, o)
		}
		if o.Applied == 0 || o.CleanedPct < 80 {
			t.Fatalf("session %d lost repair progress to the crash: %+v", o.Index, o)
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	var out bytes.Buffer
	if err := run(runConfig{proxyN: 2, users: 1, rounds: 1, n: 50, seed: 1}, &out); err == nil {
		t.Fatal("zero sessions accepted")
	}
	if err := run(runConfig{proxyN: 1, kill: true, sessions: 1, users: 1, rounds: 1, n: 50, seed: 1}, &out); err == nil {
		t.Fatal("-kill with a single-node cluster accepted")
	}
}

func TestBackoffDelay(t *testing.T) {
	// No jitter, no hint: half the exponential span.
	if d := backoffDelay(0, 0, 0); d != retryBase/2 {
		t.Fatalf("attempt 0: %s, want %s", d, retryBase/2)
	}
	if d := backoffDelay(3, 0, 0); d != (retryBase<<3)/2 {
		t.Fatalf("attempt 3: %s, want %s", d, (retryBase<<3)/2)
	}
	// Full jitter stays inside the span.
	if d := backoffDelay(0, 0, 0.999); d <= retryBase/2 || d >= retryBase {
		t.Fatalf("jittered attempt 0: %s, want in (%s, %s)", d, retryBase/2, retryBase)
	}
	// Deep attempts cap (including the shift-overflow regime).
	for _, attempt := range []int{10, 40, 80} {
		if d := backoffDelay(attempt, 0, 0); d != retryCap/2 {
			t.Fatalf("attempt %d: %s, want capped %s", attempt, d, retryCap/2)
		}
		if d := backoffDelay(attempt, 0, 0.999); d > retryCap {
			t.Fatalf("attempt %d jittered: %s exceeds cap %s", attempt, d, retryCap)
		}
	}
	// The server's Retry-After hint is a floor.
	if d := backoffDelay(0, 2*time.Second, 0.5); d != 2*time.Second {
		t.Fatalf("Retry-After floor: %s, want 2s", d)
	}
	// ...but a longer computed backoff is kept.
	if d := backoffDelay(40, time.Second, 0); d != retryCap/2 {
		t.Fatalf("hint below curve: %s, want %s", d, retryCap/2)
	}
}

func TestParseRetryAfter(t *testing.T) {
	for h, want := range map[string]time.Duration{
		"1":    time.Second,
		" 3 ":  3 * time.Second,
		"":     0,
		"soon": 0,
		"-2":   0,
		"1.5":  0,
	} {
		if got := parseRetryAfter(h); got != want {
			t.Errorf("parseRetryAfter(%q) = %s, want %s", h, got, want)
		}
	}
}

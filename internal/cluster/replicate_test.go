package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gdr/internal/faultfs"
	"gdr/internal/server"
)

// replicaOf returns the fakeNode designated as a token's replica holder.
func replicaOf(p *Proxy, nodes []*fakeNode, token string) *fakeNode {
	return nodeByURL(nodes, p.currentRing().LookupReplica(token))
}

func (n *fakeNode) replica(key string) (fakeReplica, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	rep, ok := n.replicas[key]
	return rep, ok
}

func (n *fakeNode) putReplica(key string, seq uint64, data []byte) {
	n.mu.Lock()
	n.replicas[key] = fakeReplica{seq: seq, data: data}
	n.mu.Unlock()
}

// waitReplica polls a node, for up to 2s, until it holds a replica under key.
func waitReplica(t *testing.T, n *fakeNode, key string) fakeReplica {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if rep, ok := n.replica(key); ok {
			return rep
		}
		if time.Now().After(deadline) {
			t.Fatalf("no replica %s appeared on %s", key, n.ts.URL)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRingLookupReplica pins the placement rule: the replica is always a
// live node distinct from the owner, deterministic per key, and absent on
// rings too small to hold a second copy.
func TestRingLookupReplica(t *testing.T) {
	r := NewRing()
	if r.LookupReplica("any") != "" {
		t.Fatal("empty ring should have no replica")
	}
	r = r.Add("http://n1")
	if r.LookupReplica("any") != "" {
		t.Fatal("single-node ring should have no replica")
	}
	for _, n := range []string{"http://n2", "http://n3", "http://n4"} {
		r = r.Add(n)
	}
	counts := map[string]int{}
	for i := 0; i < 256; i++ {
		key := strings.Repeat("k", 1) + string(rune('a'+i%26)) + strings.Repeat("x", i%7)
		owner, rep := r.Lookup(key), r.LookupReplica(key)
		if rep == "" || rep == owner {
			t.Fatalf("key %q: owner %q replica %q", key, owner, rep)
		}
		if rep != r.LookupReplica(key) {
			t.Fatalf("key %q: replica not deterministic", key)
		}
		counts[rep]++
	}
	if len(counts) < 3 {
		t.Fatalf("replica load concentrated on too few nodes: %v", counts)
	}
	// Removing the replica holder re-hints the key to another survivor.
	key := "pinned-key"
	rep := r.LookupReplica(key)
	r2 := r.Remove(rep)
	if got := r2.LookupReplica(key); got == "" || got == rep || got == r2.Lookup(key) {
		t.Fatalf("after losing %q the replica went to %q (owner %q)", rep, got, r2.Lookup(key))
	}
}

// TestProxyReplicatesOnCreateAndFeedback drives the full push pipeline:
// create lands a replica on the ring's replica node, feedback refreshes it
// with a higher watermark, delete drops it.
func TestProxyReplicatesOnCreateAndFeedback(t *testing.T) {
	p, nodes, ts := newTestProxy(t, 3, nil)
	p.Start() // replicator worker; health ticks are an hour away
	defer p.Close()

	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var created server.CreateSessionResponse
	_ = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	token := created.Session.ID

	repNode := replicaOf(p, nodes, token)
	waitReplica := func(label string, minSeq uint64) fakeReplica {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			if rep, ok := repNode.replica(token); ok && rep.seq >= minSeq {
				return rep
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: replica for %s never appeared on %s", label, token, repNode.ts.URL)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	rep := waitReplica("after create", 0)
	if len(rep.data) == 0 {
		t.Fatal("replica push carried no bytes")
	}

	// A mutating round: bump the primary's seq, then hit feedback via the
	// proxy. The fake's feedback endpoint is the status one — use a real
	// feedback-shaped path by registering the mutation directly.
	owner := nodeByURL(nodes, p.currentRing().Lookup(token))
	owner.mu.Lock()
	s := owner.sessions[token]
	s.seq, s.snap = 5, []byte("snap-v5")
	owner.sessions[token] = s
	owner.mu.Unlock()
	p.enqueueReplicate(token) // what a feedback 200 does via observeForReplication
	rep = waitReplica("after mutation", 5)
	if string(rep.data) != "snap-v5" {
		t.Fatalf("replica bytes = %q, want the v5 snapshot", rep.data)
	}

	// Delete via the proxy: the replica must go too.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+token, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d", dresp.StatusCode)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, ok := repNode.replica(token); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("replica survived the session delete")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestProxyFeedbackResponseEnqueuesPush pins the observe hook itself: a
// feedback 200 flowing through the reverse proxy queues the token.
func TestProxyFeedbackResponseEnqueuesPush(t *testing.T) {
	p, _, _ := newTestProxy(t, 2, nil)
	token := strings.Repeat("ab", 16)
	req, _ := http.NewRequest(http.MethodPost, "http://x/v1/sessions/"+token+"/feedback", nil)
	p.observeForReplication(&http.Response{StatusCode: http.StatusOK, Request: req,
		Header: http.Header{server.MutationSeqHeader: {"1"}}})
	p.replMu.Lock()
	_, queued := p.replPend[token]
	p.replMu.Unlock()
	if !queued {
		t.Fatal("feedback 200 did not queue a replica push")
	}
	// A non-mutating 200 must not queue.
	p2, _, _ := newTestProxy(t, 2, nil)
	greq, _ := http.NewRequest(http.MethodGet, "http://x/v1/sessions/"+token+"/status", nil)
	p2.observeForReplication(&http.Response{StatusCode: http.StatusOK, Request: greq})
	p2.replMu.Lock()
	pending := len(p2.replPend)
	p2.replMu.Unlock()
	if pending != 0 {
		t.Fatal("a read queued a replica push")
	}
}

// TestProxyReplayQueuesNoPush: a feedback 200 the node marks as a replay
// (a dedup hit) changed nothing, so it queues no replica push.
func TestProxyReplayQueuesNoPush(t *testing.T) {
	p, _, _ := newTestProxy(t, 2, nil)
	token := strings.Repeat("ab", 16)
	req, _ := http.NewRequest(http.MethodPost, "http://x/v1/sessions/"+token+"/feedback", nil)
	p.observeForReplication(&http.Response{StatusCode: http.StatusOK, Request: req,
		Header: http.Header{server.DuplicateHeader: {"1"}}})
	p.replMu.Lock()
	pending := len(p.replPend)
	p.replMu.Unlock()
	if pending != 0 {
		t.Fatal("a replayed feedback round queued a replica push")
	}
}

// TestProxyRandomOrderPollReplicates: a random-order groups poll bumps the
// session's mut_seq on its owner, so the proxy pushes the replica after it
// as after feedback, with no health tick to wait for (the tick is an hour).
func TestProxyRandomOrderPollReplicates(t *testing.T) {
	var urls []string
	for range 2 {
		srv := server.New(server.Config{ClusterMode: true, Workers: 1, TTL: time.Hour, Logger: slog.New(slog.DiscardHandler)})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		urls = append(urls, ts.URL)
	}
	p, err := New(Config{Nodes: urls, HealthEvery: time.Hour, Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	defer p.Close()
	gw := httptest.NewServer(p.Handler())
	defer gw.Close()

	body, _ := json.Marshal(server.CreateSessionRequest{CSV: figure1CSV, Rules: figure1Rules, Seed: 1})
	resp, err := http.Post(gw.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var created server.CreateSessionResponse
	_ = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %s", resp.Status)
	}
	token := created.Session.ID
	resp, err = http.Get(gw.URL + "/v1/sessions/" + token + "/groups?order=random")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("random-order poll: %s", resp.Status)
	}

	ctx := context.Background()
	owner := p.Ring().Lookup(token)
	infos, err := p.listNode(ctx, owner, "")
	if err != nil {
		t.Fatal(err)
	}
	var seq uint64
	for _, s := range infos {
		if s.ID == token {
			seq = s.MutSeq
		}
	}
	if seq == 0 {
		t.Fatalf("the owner lists %s at mut_seq 0 after a random-order poll", token)
	}
	holder := replicaTarget(p.Ring(), token, owner)
	deadline := time.Now().Add(2 * time.Second)
	for {
		reps, err := p.listReplicas(ctx, holder)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range reps {
			if rep.Token == token && rep.Seq == seq {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("the replica holder lists %+v, never %s at the owner's watermark %d", reps, token, seq)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicatorWaitsPushDelay: a push reaches the replica node no sooner
// than pushDelay after the enqueue that woke the replicator.
func TestReplicatorWaitsPushDelay(t *testing.T) {
	p, nodes, _ := newTestProxy(t, 2, nil)
	p.Start()
	defer p.Close()
	token := strings.Repeat("5e", 16)
	nodeByURL(nodes, p.currentRing().Lookup(token)).put(token, "")
	start := time.Now()
	p.enqueueReplicate(token)
	rep := waitReplica(t, replicaOf(p, nodes, token), token)
	if waited := rep.at.Sub(start); waited < pushDelay {
		t.Fatalf("the push reached the replica node %v after its enqueue, want at least %v", waited, pushDelay)
	}
}

// TestReplicatorCoalescesDuringWait: enqueues of one token made while the
// replicator waits ride one drain, so they make one PUT.
func TestReplicatorCoalescesDuringWait(t *testing.T) {
	p, nodes, _ := newTestProxy(t, 2, nil)
	p.Start()
	defer p.Close()
	token := strings.Repeat("6f", 16)
	nodeByURL(nodes, p.currentRing().Lookup(token)).put(token, "")
	repNode := replicaOf(p, nodes, token)
	// The wait starts no sooner than the first enqueue, so every enqueue
	// that returns less than pushDelay after it lands before the drain.
	first := time.Now()
	last := first
	for last.Sub(first) < pushDelay/2 {
		p.enqueueReplicate(token)
		last = time.Now()
	}
	if span := last.Sub(first); span >= pushDelay {
		t.Skipf("the enqueues spanned %v, past the %v wait", span, pushDelay)
	}
	waitReplica(t, repNode, token)
	p.drainMu.Lock() // wait out the drain that made the PUT
	p.replMu.Lock()
	pending := len(p.replPend)
	p.replMu.Unlock()
	p.drainMu.Unlock()
	if puts := repNode.count("PUT /v1/replicas/" + token); puts != 1 || pending != 0 {
		t.Fatalf("enqueues during the wait made %d PUTs and left %d tokens queued, want 1 and 0", puts, pending)
	}
}

// TestProxyFailoverPromotesFromReplica is the shared-nothing headline: a
// node dies, its disk is gone (no DataDirs entry at all), and its sessions
// still come back — promoted from the survivors' replica stores, freshest
// copy winning.
func TestProxyFailoverPromotesFromReplica(t *testing.T) {
	p, nodes, ts := newTestProxy(t, 3, nil)
	token := strings.Repeat("77", 16)
	owner := p.currentRing().Lookup(token)
	nodeByURL(nodes, owner).put(token, "acme")

	// Two survivors hold replicas at different watermarks; the freshest
	// must win the promotion.
	var survivors []*fakeNode
	for _, n := range nodes {
		if n.ts.URL != owner {
			survivors = append(survivors, n)
		}
	}
	survivors[0].putReplica("acme@"+token, 3, []byte("replica-v3"))
	survivors[1].putReplica("acme@"+token, 5, []byte("replica-v5"))

	dead := nodeByURL(nodes, owner)
	dead.mu.Lock()
	dead.down = true
	dead.sessions = map[string]fakeSession{} // the node and its state are gone
	dead.mu.Unlock()
	p.mu.Lock()
	p.nodes[owner].dead, p.nodes[owner].orphaned = true, true
	p.ring = p.ring.Remove(owner)
	p.mu.Unlock()
	if err := p.Rebalance(context.Background()); err != nil {
		t.Fatal(err)
	}

	newOwner := nodeByURL(nodes, p.currentRing().Lookup(token))
	newOwner.mu.Lock()
	s, ok := newOwner.sessions[token]
	newOwner.mu.Unlock()
	if !ok {
		t.Fatal("session not promoted onto the new ring owner")
	}
	if string(s.snap) != "replica-v5" {
		t.Fatalf("promoted bytes = %q, want the freshest replica", s.snap)
	}
	if s.tenant != "acme" {
		t.Fatalf("promoted tenant = %q, want acme", s.tenant)
	}
	resp, err := http.Get(ts.URL + "/v1/sessions/" + token + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promoted session unreachable via proxy: %d", resp.StatusCode)
	}
}

// TestProxySyncReplicasConverges: the audit derives placement from the
// session inventory alone, so even replicas nobody queued (or that failed
// their first push) appear after one sync.
func TestProxySyncReplicasConverges(t *testing.T) {
	faults := faultfs.New(1)
	p, nodes, _ := newTestProxy(t, 3, func(c *Config) { c.Faults = faults })
	token := strings.Repeat("99", 16)
	owner := p.currentRing().Lookup(token)
	nodeByURL(nodes, owner).put(token, "")

	// First push eats a fault: SyncReplicas must surface the failure...
	faults.Set(FaultReplicate, faultfs.Rule{P: 1})
	p.enqueueReplicate(token)
	if err := p.SyncReplicas(context.Background()); err == nil {
		t.Fatal("SyncReplicas swallowed a replication fault")
	}
	// ...and converge once the fault clears, from the audit alone.
	faults.Clear()
	if err := p.SyncReplicas(context.Background()); err != nil {
		t.Fatalf("SyncReplicas after heal: %v", err)
	}
	if _, ok := replicaOf(p, nodes, token).replica(token); !ok {
		t.Fatal("audit did not materialize the missing replica")
	}
}

// TestProxyAuditReplicatesPinnedSession: a session pinned off its ring
// owner (the owner holds an older copy that cannot be deleted) is still the
// routed primary, so the audit pushes it a replica on a node other than
// its own and the quiet-cluster GC keeps that replica. It pins the session
// once on the ring's replica node and once on the third node.
func TestProxyAuditReplicatesPinnedSession(t *testing.T) {
	for pick := 0; pick < 2; pick++ {
		faults := faultfs.New(1)
		p, nodes, _ := newTestProxy(t, 3, func(c *Config) { c.Faults = faults })
		token := strings.Repeat("4d", 16)
		owner := p.currentRing().Lookup(token)
		var others []*fakeNode
		for _, n := range nodes {
			if n.ts.URL != owner {
				others = append(others, n)
			}
		}
		kept := others[pick]
		nodeByURL(nodes, owner).putSeq(token, 3, "stale")
		kept.putSeq(token, 5, "fresh")
		faults.Set(FaultDelete, faultfs.Rule{P: 1})
		for i := 0; i < 2; i++ { // the second audit runs the quiet-cluster GC over the pushed replica
			if err := p.SyncReplicas(context.Background()); err != nil {
				t.Fatalf("sync %d: %v", i, err)
			}
		}
		if got := p.routeToken(token); got != kept.ts.URL {
			t.Fatalf("routing points at %s, want the pinned fresh copy", got)
		}
		var holders []string
		for _, n := range nodes {
			if rep, ok := n.replica(token); ok && rep.seq == 5 {
				holders = append(holders, n.ts.URL)
			}
		}
		if len(holders) != 1 || holders[0] == kept.ts.URL {
			t.Fatalf("replicas of the session pinned on %s at watermark 5 are on %v, want one on another node", kept.ts.URL, holders)
		}
	}
}

// TestProxyReadyzSplitsFromHealthz: /healthz keeps answering 200 while the
// cluster is unsettled, /readyz goes 503 — the probe a load balancer
// should watch — and answers 200 again once a settle pass has run.
func TestProxyReadyzSplitsFromHealthz(t *testing.T) {
	p, nodes, ts := newTestProxy(t, 2, nil)
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz at boot: %d", code)
	}
	drainWithoutRebalance(p, nodes[1].ts.URL)
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after a ring change: %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after a ring change: %d, want 200", code)
	}
	if err := p.Rebalance(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after the settle pass: %d, want 200", code)
	}
}

// TestProxyHealthHysteresis: one good probe must not re-admit a dead node;
// FailAfter consecutive ones must.
func TestProxyHealthHysteresis(t *testing.T) {
	p, nodes, _ := newTestProxy(t, 2, func(c *Config) { c.FailAfter = 3 })
	victim := nodes[1].ts.URL
	p.mu.Lock()
	p.nodes[victim].dead = true
	p.ring = p.ring.Remove(victim)
	p.mu.Unlock()
	for i := 1; i <= 3; i++ {
		p.checkAll()
		has := p.currentRing().Has(victim)
		if i < 3 && has {
			t.Fatalf("node re-admitted after %d good probes, want %d", i, 3)
		}
		if i == 3 && !has {
			t.Fatal("node not re-admitted after FailAfter good probes")
		}
	}
	// A flap resets the streak: two successes, one failure, two successes
	// again — still out.
	p.mu.Lock()
	p.nodes[victim].dead = true
	p.ring = p.ring.Remove(victim)
	p.mu.Unlock()
	p.checkAll()
	p.checkAll()
	nodes[1].mu.Lock()
	nodes[1].down = true
	nodes[1].mu.Unlock()
	p.checkAll()
	nodes[1].mu.Lock()
	nodes[1].down = false
	nodes[1].mu.Unlock()
	p.checkAll()
	p.checkAll()
	if p.currentRing().Has(victim) {
		t.Fatal("a flapping node was re-admitted before a full success streak")
	}
	p.checkAll()
	if !p.currentRing().Has(victim) {
		t.Fatal("node not re-admitted after the streak completed")
	}
}

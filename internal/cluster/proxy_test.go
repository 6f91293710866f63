package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gdr/internal/faultfs"
	"gdr/internal/server"
)

// fakeSession is what a fakeNode stores per token.
type fakeSession struct {
	tenant   string
	snap     []byte
	seq      uint64 // mutation sequence reported on export, listing and 409
	building bool   // a create still in flight: its 409 carries no watermark
}

// fakeReplica is one spill-store entry on a fakeNode.
type fakeReplica struct {
	seq  uint64
	data []byte
	at   time.Time // when the PUT that stored it arrived
}

// fakeNode is a minimal in-memory stand-in for a cluster-mode gdrd: enough
// of the /v1 session surface for the proxy's routing, migration and
// failover logic to be tested hermetically, plus request recording.
type fakeNode struct {
	ts *httptest.Server

	mu       sync.Mutex
	sessions map[string]fakeSession
	replicas map[string]fakeReplica
	calls    []string // "METHOD path" log, in arrival order
	down     bool     // refuse everything with a closed-ish 500
	unlisted bool     // answer session listings 503, as a node that cannot list
	// replicaGate, once armed, holds the next replica listing until its
	// release channel closes (see holdReplicaListing).
	replicaGate *listingGate
}

// listingGate is a one-shot hold on a fakeNode's replica listing.
type listingGate struct{ arrived, release chan struct{} }

func newFakeNode(t *testing.T) *fakeNode {
	t.Helper()
	n := &fakeNode{sessions: make(map[string]fakeSession), replicas: make(map[string]fakeReplica)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if n.failing() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		n.record(r)
		token := r.Header.Get(server.AssignTokenHeader)
		if token == "" {
			http.Error(w, "fake node requires an assigned token", http.StatusBadRequest)
			return
		}
		var req server.CreateSessionRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		n.mu.Lock()
		if held, dup := n.sessions[token]; dup {
			n.mu.Unlock()
			if !held.building {
				w.Header().Set(server.MutationSeqHeader, fmt.Sprint(held.seq))
			}
			w.WriteHeader(http.StatusConflict)
			_ = json.NewEncoder(w).Encode(server.ErrorBody{Error: "token in use"})
			return
		}
		n.sessions[token] = fakeSession{tenant: r.Header.Get(server.AssignTenantHeader), snap: req.Snapshot}
		n.mu.Unlock()
		w.WriteHeader(http.StatusCreated)
		_ = json.NewEncoder(w).Encode(server.CreateSessionResponse{Session: server.SessionInfo{ID: token}})
	})
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		n.record(r)
		n.mu.Lock()
		if n.unlisted {
			n.mu.Unlock()
			http.Error(w, "cannot list", http.StatusServiceUnavailable)
			return
		}
		list := server.SessionList{}
		for token, s := range n.sessions {
			list.Sessions = append(list.Sessions, server.SessionInfo{ID: token, Tenant: s.tenant, MutSeq: s.seq})
		}
		n.mu.Unlock()
		sortSessions(list.Sessions)
		_ = json.NewEncoder(w).Encode(list)
	})
	mux.HandleFunc("POST /v1/sessions/{id}/snapshot", func(w http.ResponseWriter, r *http.Request) {
		n.record(r)
		n.mu.Lock()
		s, ok := n.sessions[r.PathValue("id")]
		n.mu.Unlock()
		if !ok {
			http.Error(w, "no session", http.StatusNotFound)
			return
		}
		snap := s.snap
		if snap == nil {
			snap = []byte("snap-" + r.PathValue("id"))
		}
		w.Header().Set(server.MutationSeqHeader, fmt.Sprint(s.seq))
		if s.tenant != "" {
			w.Header().Set(server.AssignTenantHeader, s.tenant)
		}
		_, _ = w.Write(snap)
	})
	mux.HandleFunc("PUT /v1/replicas/{key}", func(w http.ResponseWriter, r *http.Request) {
		n.record(r)
		var seq uint64
		fmt.Sscan(r.Header.Get(server.MutationSeqHeader), &seq)
		data, _ := io.ReadAll(r.Body)
		n.mu.Lock()
		defer n.mu.Unlock()
		if prev, ok := n.replicas[r.PathValue("key")]; ok && seq < prev.seq {
			w.WriteHeader(http.StatusConflict)
			return
		}
		n.replicas[r.PathValue("key")] = fakeReplica{seq: seq, data: data, at: time.Now()}
		fmt.Fprint(w, `{"status":"stored"}`)
	})
	mux.HandleFunc("GET /v1/replicas", func(w http.ResponseWriter, r *http.Request) {
		n.record(r)
		n.mu.Lock()
		if g := n.replicaGate; g != nil {
			n.replicaGate = nil
			n.mu.Unlock()
			close(g.arrived)
			<-g.release
			n.mu.Lock()
		}
		list := server.ReplicaList{}
		for key, rep := range n.replicas {
			tenant, token := "", key
			if t, tok, ok := strings.Cut(key, "@"); ok {
				tenant, token = t, tok
			}
			list.Replicas = append(list.Replicas, server.ReplicaInfo{
				Key: key, Token: token, Tenant: tenant, Seq: rep.seq, Size: len(rep.data)})
		}
		n.mu.Unlock()
		_ = json.NewEncoder(w).Encode(list)
	})
	mux.HandleFunc("GET /v1/replicas/{key}", func(w http.ResponseWriter, r *http.Request) {
		n.record(r)
		n.mu.Lock()
		rep, ok := n.replicas[r.PathValue("key")]
		n.mu.Unlock()
		if !ok {
			http.Error(w, "no replica", http.StatusNotFound)
			return
		}
		w.Header().Set(server.MutationSeqHeader, fmt.Sprint(rep.seq))
		_, _ = w.Write(rep.data)
	})
	mux.HandleFunc("DELETE /v1/replicas/{key}", func(w http.ResponseWriter, r *http.Request) {
		n.record(r)
		n.mu.Lock()
		_, ok := n.replicas[r.PathValue("key")]
		delete(n.replicas, r.PathValue("key"))
		n.mu.Unlock()
		if !ok {
			http.Error(w, "no replica", http.StatusNotFound)
			return
		}
		fmt.Fprint(w, `{"status":"deleted"}`)
	})
	mux.HandleFunc("GET /v1/sessions/{id}/status", func(w http.ResponseWriter, r *http.Request) {
		n.record(r)
		n.mu.Lock()
		_, ok := n.sessions[r.PathValue("id")]
		n.mu.Unlock()
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			_ = json.NewEncoder(w).Encode(server.ErrorBody{Error: "session not found"})
			return
		}
		fmt.Fprintf(w, `{"id":%q}`, r.PathValue("id"))
	})
	mux.HandleFunc("DELETE /v1/sessions/{id}", func(w http.ResponseWriter, r *http.Request) {
		n.record(r)
		n.mu.Lock()
		_, ok := n.sessions[r.PathValue("id")]
		delete(n.sessions, r.PathValue("id"))
		n.mu.Unlock()
		if !ok {
			http.Error(w, "no session", http.StatusNotFound)
			return
		}
		fmt.Fprint(w, `{"status":"deleted"}`)
	})
	n.ts = httptest.NewServer(mux)
	t.Cleanup(n.ts.Close)
	return n
}

func sortSessions(s []server.SessionInfo) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].ID < s[j-1].ID; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func (n *fakeNode) failing() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

func (n *fakeNode) record(r *http.Request) {
	n.mu.Lock()
	n.calls = append(n.calls, r.Method+" "+r.URL.Path)
	n.mu.Unlock()
}

func (n *fakeNode) has(token string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.sessions[token]
	return ok
}

func (n *fakeNode) put(token, tenant string) {
	n.mu.Lock()
	n.sessions[token] = fakeSession{tenant: tenant}
	n.mu.Unlock()
}

// saw reports whether the node ever received a given "METHOD path" call.
func (n *fakeNode) saw(call string) bool { return n.count(call) > 0 }

// count reports how often the node received a given "METHOD path" call.
func (n *fakeNode) count(call string) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := 0
	for _, c := range n.calls {
		if c == call {
			k++
		}
	}
	return k
}

// newTestProxy builds a proxy over k fake nodes. The health loop is not
// started — membership changes are test-driven.
func newTestProxy(t *testing.T, k int, tweak func(*Config)) (*Proxy, []*fakeNode, *httptest.Server) {
	t.Helper()
	nodes := make([]*fakeNode, k)
	urls := make([]string, k)
	for i := range nodes {
		nodes[i] = newFakeNode(t)
		urls[i] = nodes[i].ts.URL
	}
	cfg := Config{Nodes: urls, HealthEvery: time.Hour}
	if tweak != nil {
		tweak(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p.Handler())
	t.Cleanup(ts.Close)
	return p, nodes, ts
}

// nodeByURL maps a ring member back to its fake.
func nodeByURL(nodes []*fakeNode, url string) *fakeNode {
	for _, n := range nodes {
		if n.ts.URL == url {
			return n
		}
	}
	return nil
}

func TestProxyCreateLandsOnRingOwner(t *testing.T) {
	p, nodes, ts := newTestProxy(t, 3, nil)
	for i := 0; i < 8; i++ {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		var created server.CreateSessionResponse
		if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create: code = %d", resp.StatusCode)
		}
		token := created.Session.ID
		owner := p.currentRing().Lookup(token)
		if own := nodeByURL(nodes, owner); own == nil || !own.has(token) {
			t.Fatalf("session %s not on its ring owner %s", token, owner)
		}
		// Follow-up verbs route to the same node.
		st, err := http.Get(ts.URL + "/v1/sessions/" + token + "/status")
		if err != nil {
			t.Fatal(err)
		}
		st.Body.Close()
		if st.StatusCode != http.StatusOK {
			t.Fatalf("status via proxy: code = %d", st.StatusCode)
		}
	}
}

func TestProxyListMergesNodes(t *testing.T) {
	_, nodes, ts := newTestProxy(t, 3, nil)
	want := map[string]bool{}
	for i, n := range nodes {
		token := strings.Repeat(fmt.Sprintf("%x", i+1), 32)[:32]
		n.put(token, "")
		want[token] = true
	}
	resp, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list server.SessionList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != len(want) {
		t.Fatalf("merged list has %d sessions, want %d: %+v", len(list.Sessions), len(want), list)
	}
	for i := 1; i < len(list.Sessions); i++ {
		if list.Sessions[i-1].ID >= list.Sessions[i].ID {
			t.Fatal("merged list not sorted by id")
		}
	}
	for _, s := range list.Sessions {
		if !want[s.ID] {
			t.Fatalf("unexpected session %s in merged list", s.ID)
		}
	}
}

// TestProxyListReportsServedCopy: the merged listing reports each session
// as the copy the proxy serves. A session a drained node still serves (its
// move failed) is listed, and a session routed to its fresher copy while
// the ring owner keeps an older one (whose delete failed) is listed at the
// fresher copy's watermark.
func TestProxyListReportsServedCopy(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault faultfs.Point
		// setup places the copies and runs the membership change the fault
		// makes fail; owner is the token's ring owner.
		setup func(p *Proxy, owner, other *fakeNode, token string) error
	}{
		{"drained node still serving", FaultImport, func(p *Proxy, owner, other *fakeNode, token string) error {
			other.putSeq(token, 5, "fresh")
			return p.RemoveNode(context.Background(), other.ts.URL)
		}},
		{"routed past an undeletable older copy", FaultDelete, func(p *Proxy, owner, other *fakeNode, token string) error {
			owner.putSeq(token, 3, "stale")
			other.putSeq(token, 5, "fresh")
			return p.Rebalance(context.Background())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faults := faultfs.New(1)
			p, nodes, ts := newTestProxy(t, 2, func(c *Config) { c.Faults = faults })
			token := strings.Repeat("3c", 16)
			owner, other := nodes[0], nodes[1]
			if p.currentRing().Lookup(token) != owner.ts.URL {
				owner, other = other, owner
			}
			faults.Set(tc.fault, faultfs.Rule{P: 1})
			if err := tc.setup(p, owner, other, token); err == nil {
				t.Fatal("the move off the fresh copy's node should have failed")
			}
			faults.Clear()
			if got := p.routeToken(token); got != other.ts.URL {
				t.Fatalf("routing points at %s, want the fresh copy's node %s", got, other.ts.URL)
			}
			resp, err := http.Get(ts.URL + "/v1/sessions")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var list server.SessionList
			if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
				t.Fatal(err)
			}
			if len(list.Sessions) != 1 || list.Sessions[0].ID != token || list.Sessions[0].MutSeq != 5 {
				t.Fatalf("listing %+v, want %s once, at the served copy's watermark 5", list.Sessions, token)
			}
		})
	}
}

func TestProxyRemoveNodeMigratesSessions(t *testing.T) {
	p, nodes, ts := newTestProxy(t, 3, nil)
	// Create enough sessions that every node owns some.
	var tokens []string
	for i := 0; i < 12; i++ {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{}`))
		if err != nil {
			t.Fatal(err)
		}
		var created server.CreateSessionResponse
		_ = json.NewDecoder(resp.Body).Decode(&created)
		resp.Body.Close()
		tokens = append(tokens, created.Session.ID)
	}
	victim := p.currentRing().Lookup(tokens[0])
	if err := p.RemoveNode(context.Background(), victim); err != nil {
		t.Fatalf("RemoveNode: %v", err)
	}
	if nodeByURL(nodes, victim).hasAny() {
		t.Fatal("drained node still holds sessions")
	}
	ring := p.currentRing()
	if ring.Has(victim) {
		t.Fatal("drained node still in ring")
	}
	for _, token := range tokens {
		owner := ring.Lookup(token)
		if own := nodeByURL(nodes, owner); own == nil || !own.has(token) {
			t.Fatalf("session %s not on post-drain owner %s", token, owner)
		}
		resp, err := http.Get(ts.URL + "/v1/sessions/" + token + "/status")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("session %s unreachable after drain: %d", token, resp.StatusCode)
		}
	}
	// The ring change is observable on the proxy's own health surface.
	var health struct {
		RingVersion uint64 `json:"ring_version"`
		LiveNodes   int    `json:"live_nodes"`
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health.LiveNodes != 2 {
		t.Fatalf("healthz live_nodes = %d, want 2", health.LiveNodes)
	}
}

func (n *fakeNode) hasAny() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.sessions) > 0
}

// TestProxyMigrationPreservesTenant pins the ownership half of a move: the
// import must carry the source session's tenant, or a migrated session
// would go unowned and leak across tenants.
func TestProxyMigrationPreservesTenant(t *testing.T) {
	p, nodes, _ := newTestProxy(t, 2, nil)
	ring := p.currentRing()
	token := strings.Repeat("ab", 16)
	src := ring.Lookup(token)
	dst := ring.Nodes()[0]
	if dst == src {
		dst = ring.Nodes()[1]
	}
	nodeByURL(nodes, src).put(token, "acme")
	// Drain src: the session must land on dst with its tenant intact.
	if err := p.RemoveNode(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	d := nodeByURL(nodes, dst)
	d.mu.Lock()
	s, ok := d.sessions[token]
	d.mu.Unlock()
	if !ok {
		t.Fatal("session did not land on the surviving node")
	}
	if s.tenant != "acme" {
		t.Fatalf("migrated session tenant = %q, want acme", s.tenant)
	}
	if s.snap == nil {
		t.Fatal("import carried no snapshot bytes")
	}
}

// TestProxyStaleSourceResolvedBySweep drives the delete-failure path: the
// destination copy wins immediately and routing stays on it while the
// superseded source copy lingers; a ring flip back to the stale node must
// NOT route to the superseded copy; and once deletes heal, exactly one
// copy — the fresh one, identified by its mutated snapshot bytes —
// survives on the ring owner.
func TestProxyStaleSourceResolvedBySweep(t *testing.T) {
	faults := faultfs.New(1)
	p, nodes, ts := newTestProxy(t, 2, func(c *Config) { c.Faults = faults })
	ring := p.currentRing()
	token := strings.Repeat("cd", 16)
	src := ring.Lookup(token)
	dst := ring.Nodes()[0]
	if dst == src {
		dst = ring.Nodes()[1]
	}
	nodeByURL(nodes, src).put(token, "")
	faults.Set(FaultDelete, faultfs.Rule{P: 1})
	if err := p.RemoveNode(context.Background(), src); err != nil {
		t.Fatalf("drain with failing delete: %v", err)
	}
	// Both copies exist (delete was eaten), but routing prefers dst.
	if !nodeByURL(nodes, src).has(token) || !nodeByURL(nodes, dst).has(token) {
		t.Fatal("expected transient src+dst overlap after failed delete")
	}
	// Mark the fresh copy so the end state proves which one survived: the
	// destination copy diverges from the stale one the moment feedback
	// lands on it, and v2 at watermark 1 stands in for that round.
	fresh := []byte("snap-" + token + "-v2")
	d := nodeByURL(nodes, dst)
	d.mu.Lock()
	d.sessions[token] = fakeSession{snap: fresh, seq: 1}
	d.mu.Unlock()
	statusCall := "GET /v1/sessions/" + token + "/status"
	mustStatus := func(label string) {
		resp, err := http.Get(ts.URL + "/v1/sessions/" + token + "/status")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: session unreachable: %d", label, resp.StatusCode)
		}
	}
	mustStatus("during overlap")
	if nodeByURL(nodes, src).saw(statusCall) {
		t.Fatal("a request routed to the stale source copy during the overlap")
	}
	// Ring flips back while deletes are still failing: the token's hash
	// owner is src again — the node holding the SUPERSEDED copy. The stale
	// copy cannot be deleted and the older copy cannot absorb the move
	// back, so routing must keep serving the fresh dst copy.
	if err := p.AddNode(context.Background(), src); err == nil {
		t.Fatal("rebalance onto a node holding an undeletable stale copy should report the stuck move")
	}
	mustStatus("after ring flip-back")
	if nodeByURL(nodes, src).saw(statusCall) {
		t.Fatal("ring flip-back routed to the stale copy; the fresh one must stay pinned")
	}
	// Deletes heal: the rebalance deletes the stale copy, then moves the
	// fresh copy onto its ring owner.
	faults.Clear()
	if err := p.Rebalance(context.Background()); err != nil {
		t.Fatalf("healed rebalance: %v", err)
	}
	ring = p.currentRing()
	owner := ring.Lookup(token)
	copies := 0
	for _, n := range nodes {
		if n.has(token) {
			copies++
		}
	}
	if copies != 1 {
		t.Fatalf("session exists on %d nodes after heal, want exactly 1", copies)
	}
	own := nodeByURL(nodes, owner)
	if !own.has(token) {
		t.Fatalf("surviving copy is not on the ring owner %s", owner)
	}
	own.mu.Lock()
	got := own.sessions[token].snap
	own.mu.Unlock()
	if string(got) != string(fresh) {
		t.Fatalf("the STALE copy survived the heal: snap = %q, want %q", got, fresh)
	}
	mustStatus("after heal")
}

// TestProxyMoveConflictNeedsFresherCopy pins the 409 rule of a move: the
// destination's copy stands in for the import only when its watermark is
// at least the source's. An older copy, or one still being built (no
// watermark on the 409), fails the move, and the source stays, routed.
func TestProxyMoveConflictNeedsFresherCopy(t *testing.T) {
	for _, tc := range []struct {
		name  string
		held  fakeSession
		moved bool
	}{
		{"older watermark", fakeSession{seq: 2}, false},
		{"still being built", fakeSession{seq: 9, building: true}, false},
		{"equal watermark", fakeSession{seq: 3}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, nodes, _ := newTestProxy(t, 2, nil)
			token := strings.Repeat("5a", 16)
			src, dst := nodes[0], nodes[1]
			src.mu.Lock()
			src.sessions[token] = fakeSession{seq: 3, snap: []byte("fresh")}
			src.mu.Unlock()
			dst.mu.Lock()
			dst.sessions[token] = tc.held
			dst.mu.Unlock()
			err := p.runMoves(context.Background(), []move{{token: token, from: src.ts.URL, to: dst.ts.URL}})
			if moved := err == nil; moved != tc.moved {
				t.Fatalf("move reported moved=%v (err %v), want %v", moved, err, tc.moved)
			}
			if src.has(token) == tc.moved {
				t.Fatalf("source copy kept=%v, want %v", src.has(token), !tc.moved)
			}
			if got := p.routeToken(token); !tc.moved && got != src.ts.URL {
				t.Fatalf("routing points at %s after the failed move, want the source", got)
			}
		})
	}
}

// TestProxyPartialInventorySettlesNothing: a copy a failed listing hides
// may be the one routing points at, so while any listed node cannot list,
// the placement pass deletes no copy and moves no routing, and a drain is
// refused with membership unchanged. Each case holds the routed copy at
// watermark 5 and an older leftover at watermark 3 on the ring owner; once
// the listing heals, the leftover goes and the routed copy ends on the
// ring owner.
func TestProxyPartialInventorySettlesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		// setup places the routed copy and returns its node; nodes[0] is
		// the token's ring owner.
		setup func(t *testing.T, p *Proxy, nodes []*fakeNode, token string) *fakeNode
	}{
		{"routed ring member", func(t *testing.T, p *Proxy, nodes []*fakeNode, token string) *fakeNode {
			// nodes[1] holds the leftover (a source delete that failed); the
			// ring owner serves.
			nodes[0].putSeq(token, 5, "fresh")
			nodes[1].putSeq(token, 3, "stale")
			return nodes[0]
		}},
		{"routed drained node", func(t *testing.T, p *Proxy, nodes []*fakeNode, token string) *fakeNode {
			// nodes[1] is drained while its move fails, so it keeps serving
			// the session, pinned; the ring owner holds an older leftover.
			nodes[1].putSeq(token, 5, "fresh")
			faults := faultfs.New(1)
			p.cfg.Faults = faults
			faults.Set(FaultImport, faultfs.Rule{P: 1})
			if err := p.RemoveNode(context.Background(), nodes[1].ts.URL); err == nil {
				t.Fatal("drain with a failing import should report the stuck move")
			}
			p.cfg.Faults = nil
			nodes[0].putSeq(token, 3, "stale")
			return nodes[1]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, nodes, _ := newTestProxy(t, 3, nil)
			token := strings.Repeat("7e", 16)
			owner := p.currentRing().Lookup(token)
			for i, n := range nodes {
				if n.ts.URL == owner {
					nodes[0], nodes[i] = nodes[i], nodes[0]
				}
			}
			routed := tc.setup(t, p, nodes, token)
			mustHold := func(label string) {
				t.Helper()
				if got := p.routeToken(token); got != routed.ts.URL {
					t.Fatalf("%s: routing moved to %s, want the routed copy's node %s", label, got, routed.ts.URL)
				}
				if !nodes[0].has(token) || !nodes[1].has(token) {
					t.Fatalf("%s: a copy was deleted on a partial inventory", label)
				}
			}
			mustHold("set-up")
			routed.mu.Lock()
			routed.unlisted = true
			routed.mu.Unlock()
			if err := p.Rebalance(context.Background()); err == nil {
				t.Fatal("a placement pass without a full inventory reported success")
			}
			mustHold("placement pass")
			ringBefore := p.currentRing().Version()
			if err := p.RemoveNode(context.Background(), nodes[2].ts.URL); err == nil {
				t.Fatal("a drain without a full inventory reported success")
			}
			if p.currentRing().Version() != ringBefore || !p.currentRing().Has(nodes[2].ts.URL) {
				t.Fatal("a drain that could not be planned still changed membership")
			}
			mustHold("refused drain")

			routed.mu.Lock()
			routed.unlisted = false
			routed.mu.Unlock()
			if err := p.Rebalance(context.Background()); err != nil {
				t.Fatalf("healed rebalance: %v", err)
			}
			if nodes[1].has(token) || !nodes[0].has(token) {
				t.Fatal("after the heal the session is not exactly on its ring owner")
			}
			nodes[0].mu.Lock()
			got := nodes[0].sessions[token]
			nodes[0].mu.Unlock()
			if string(got.snap) != "fresh" {
				t.Fatalf("the ring owner holds the %q copy, want the routed one", got.snap)
			}
			if route := p.routeToken(token); route != owner {
				t.Fatalf("routing points at %s after the heal, want the ring owner", route)
			}
		})
	}
}

// putSeq stores a session copy at a given watermark, its snapshot bytes
// naming it.
func (n *fakeNode) putSeq(token string, seq uint64, snap string) {
	n.mu.Lock()
	n.sessions[token] = fakeSession{seq: seq, snap: []byte(snap)}
	n.mu.Unlock()
}

// TestProxyFailoverOrphanRule: a dead node's session is promoted from its
// freshest replica unless a live copy is at least as fresh; an older live
// copy (a leftover) is deleted first, so one copy remains either way.
func TestProxyFailoverOrphanRule(t *testing.T) {
	for _, tc := range []struct {
		name     string
		liveSeq  uint64
		promoted bool
	}{
		{"older live copy", 2, true},
		{"live copy as fresh", 5, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, nodes, _ := newTestProxy(t, 3, nil)
			token := strings.Repeat("3c", 16)
			owner := p.currentRing().Lookup(token)
			var survivors []*fakeNode
			for _, n := range nodes {
				if n.ts.URL != owner {
					survivors = append(survivors, n)
				}
			}
			survivors[0].mu.Lock()
			survivors[0].sessions[token] = fakeSession{seq: tc.liveSeq, snap: []byte("live")}
			survivors[0].mu.Unlock()
			survivors[1].putReplica(token, 5, []byte("replica-v5"))
			p.mu.Lock()
			p.nodes[owner].dead, p.nodes[owner].orphaned = true, true
			p.ring = p.ring.Remove(owner)
			p.mu.Unlock()
			if err := p.Rebalance(context.Background()); err != nil {
				t.Fatal(err)
			}

			want := "live"
			if tc.promoted {
				want = "replica-v5"
			}
			var copies []string
			for _, n := range survivors {
				n.mu.Lock()
				if s, ok := n.sessions[token]; ok {
					copies = append(copies, string(s.snap))
				}
				n.mu.Unlock()
			}
			if len(copies) != 1 || copies[0] != want {
				t.Fatalf("copies after failover = %q, want only %q", copies, want)
			}
		})
	}
}

// TestProxyCreateWaitsForFirstReplica: a create answers only after its
// first replica landed (no replicator runs here), and a failing first push
// is counted without failing the create.
func TestProxyCreateWaitsForFirstReplica(t *testing.T) {
	faults := faultfs.New(1)
	p, nodes, ts := newTestProxy(t, 3, func(c *Config) { c.Faults = faults })
	create := func() string {
		t.Helper()
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
		return created.Session.ID
	}
	token := create()
	if _, ok := replicaOf(p, nodes, token).replica(token); !ok {
		t.Fatal("the create answered before its first replica landed")
	}
	faults.Set(FaultReplicate, faultfs.Rule{P: 1})
	token = create()
	if _, ok := replicaOf(p, nodes, token).replica(token); ok {
		t.Fatal("a failing push still stored a replica")
	}
	if n := p.Registry().Counter("gdrproxy_replica_push_failures_total").Value(); n != 1 {
		t.Fatalf("push failures = %d, want 1", n)
	}
}

// drainWithoutRebalance makes the ring change RemoveNode makes before its
// rebalance: the node is drained and leaves the ring, and no settle pass
// has followed yet.
func drainWithoutRebalance(p *Proxy, node string) {
	p.mu.Lock()
	p.nodes[node].drained = true
	p.ring = p.ring.Remove(node)
	p.mu.Unlock()
}

// TestProxy404RetryableWhileUnsettled: between a ring change and the settle
// pass after it, a 404 from a node may mean "in flight", and the proxy must
// answer with the retryable 503 dialect instead; once the pass has run, a
// 404 is a 404.
func TestProxy404RetryableWhileUnsettled(t *testing.T) {
	p, nodes, ts := newTestProxy(t, 2, nil)
	token := strings.Repeat("ee", 16)
	drainWithoutRebalance(p, nodes[1].ts.URL)
	resp, err := http.Get(ts.URL + "/v1/sessions/" + token + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("unsettled 404: code = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("unsettled 503 missing Retry-After")
	}
	if err := p.Rebalance(context.Background()); err != nil {
		t.Fatalf("settle pass: %v", err)
	}
	resp, err = http.Get(ts.URL + "/v1/sessions/" + token + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("settled miss: code = %d, want 404", resp.StatusCode)
	}
}

// TestProxy404FromNodeRoutedAway: a settled proxy passes a node's 404
// through only while the token still routes to that node. A request routed
// before a settle pass pinned its token elsewhere is answered after it,
// and its 404 from the node the pass routed away from is the retryable
// 503.
func TestProxy404FromNodeRoutedAway(t *testing.T) {
	p, nodes, _ := newTestProxy(t, 2, nil)
	token := strings.Repeat("f5", 16)
	owner := p.currentRing().Lookup(token)
	other := nodes[0].ts.URL
	if other == owner {
		other = nodes[1].ts.URL
	}
	answer := func(from string) int {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet, from+"/v1/sessions/"+token+"/status", nil)
		req = req.WithContext(context.WithValue(req.Context(), targetKey{}, p.urls[from]))
		resp := &http.Response{StatusCode: http.StatusNotFound, Request: req, Header: http.Header{},
			Body: io.NopCloser(strings.NewReader(`{"error":"session not found"}`))}
		if err := p.modifyResponse(resp); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}
	if code := answer(owner); code != http.StatusNotFound {
		t.Fatalf("the routed node's 404: %d, want 404", code)
	}
	p.mu.Lock()
	p.overrides[token] = other
	p.mu.Unlock()
	if code := answer(owner); code != http.StatusServiceUnavailable {
		t.Fatalf("a 404 from the node the token was routed away from: %d, want 503", code)
	}
	if code := answer(other); code != http.StatusNotFound {
		t.Fatalf("the pinned node's 404: %d, want 404", code)
	}
}

// TestProxyHealthLoopDetectsDeath runs the real membership loop against a
// fake node flipping down and back up.
func TestProxyHealthLoopDetectsDeath(t *testing.T) {
	p, nodes, _ := newTestProxy(t, 2, func(c *Config) {
		c.HealthEvery = 10 * time.Millisecond
		c.FailAfter = 2
	})
	p.Start()
	defer p.Close()
	victim := nodes[1]
	victim.mu.Lock()
	victim.down = true
	victim.mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for p.currentRing().Has(victim.ts.URL) {
		if time.Now().After(deadline) {
			t.Fatal("health loop never removed the dead node")
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim.mu.Lock()
	victim.down = false
	victim.mu.Unlock()
	deadline = time.Now().Add(2 * time.Second)
	for !p.currentRing().Has(victim.ts.URL) {
		if time.Now().After(deadline) {
			t.Fatal("health loop never re-admitted the recovered node")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRouteTokenZeroAlloc pins the proxy's per-request routing cost — an
// override check plus a ring lookup — at zero heap allocations.
func TestRouteTokenZeroAlloc(t *testing.T) {
	p, _, _ := newTestProxy(t, 3, nil)
	token := strings.Repeat("ff", 16)
	allocs := testing.AllocsPerRun(200, func() {
		if p.routeToken(token) == "" {
			t.Fail()
		}
	})
	if allocs != 0 {
		t.Fatalf("routeToken allocates %.1f times per call, want 0", allocs)
	}
}

// TestForwardCountZeroAlloc pins the in-flight count every session request
// carries — counted in on routing, out when its forward returns — at zero
// heap allocations in steady state.
func TestForwardCountZeroAlloc(t *testing.T) {
	p, _, _ := newTestProxy(t, 3, nil)
	token := strings.Repeat("ff", 16)
	allocs := testing.AllocsPerRun(1000, func() {
		node, moving := p.enter(token)
		if node == "" || moving != nil {
			t.Fail()
		}
		p.leave(token)
	})
	if allocs != 0 {
		t.Fatalf("counting a forward in and out allocates %.1f times per request, want 0", allocs)
	}
}

// TestCreateHeaderRewriteAllocBound pins the create path's header work
// (assign-token header set on a live header map) to a fixed small bound.
func TestCreateHeaderRewriteAllocBound(t *testing.T) {
	h := make(http.Header, 4)
	token := strings.Repeat("aa", 16)
	allocs := testing.AllocsPerRun(200, func() {
		h.Set(server.AssignTokenHeader, token)
	})
	if allocs > 2 {
		t.Fatalf("header rewrite allocates %.1f times per call, want <= 2", allocs)
	}
}

// TestNodeCallsReuseConnections: 20 sequential calls of one kind the proxy
// makes on its own account open one connection to the node, whatever the
// answer's status and whether or not the caller reads the body.
func TestNodeCallsReuseConnections(t *testing.T) {
	const calls = 20
	ctx := context.Background()
	cases := []struct {
		name   string
		status int
		body   string
		call   func(p *Proxy, n string) error
	}{
		{"probe", http.StatusOK, `{"status":"ok"}`, func(p *Proxy, n string) error {
			if !p.probe(n) {
				return fmt.Errorf("probe failed")
			}
			return nil
		}},
		{"listNode", http.StatusOK, `{"sessions":[]}`, func(p *Proxy, n string) error { _, err := p.listNode(ctx, n, ""); return err }},
		{"exportSession", http.StatusOK, "snap", func(p *Proxy, n string) error { _, _, _, err := p.exportSession(ctx, n, "t1"); return err }},
		{"getReplica", http.StatusOK, "snap", func(p *Proxy, n string) error { _, err := p.getReplica(ctx, n, "acme@t1"); return err }},
		{"putReplica", http.StatusOK, `{"status":"stored"}`, func(p *Proxy, n string) error { return p.putReplica(ctx, n, "acme@t1", 1, []byte("snap")) }},
		{"putReplica", http.StatusConflict, `{"error":"stale watermark"}`, func(p *Proxy, n string) error { return p.putReplica(ctx, n, "acme@t1", 1, []byte("snap")) }},
		{"deleteReplica", http.StatusOK, `{"status":"deleted"}`, func(p *Proxy, n string) error { return p.deleteReplica(ctx, n, "acme@t1") }},
		{"deleteReplica", http.StatusNotFound, `{"error":"no replica"}`, func(p *Proxy, n string) error { return p.deleteReplica(ctx, n, "acme@t1") }},
		{"deleteSession", http.StatusOK, `{"status":"deleted"}`, func(p *Proxy, n string) error { return p.deleteSession(ctx, n, "t1") }},
		{"deleteSession", http.StatusNotFound, `{"error":"session not found"}`, func(p *Proxy, n string) error { return p.deleteSession(ctx, n, "t1") }},
		{"importSession", http.StatusCreated, `{"session":{"id":"t1"}}`, func(p *Proxy, n string) error { return p.importSession(ctx, n, "t1", "acme", []byte("snap"), 1) }},
		{"importSession", http.StatusConflict, `{"error":"token in use"}`, func(p *Proxy, n string) error { return p.importSession(ctx, n, "t1", "acme", []byte("snap"), 1) }},
		{"listReplicas", http.StatusOK, `{"replicas":[]}`, func(p *Proxy, n string) error { _, err := p.listReplicas(ctx, n); return err }},
		{"listReplicas", http.StatusNotFound, `{"error":"not found"}`, func(p *Proxy, n string) error { _, err := p.listReplicas(ctx, n); return err }},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%d", c.name, c.status), func(t *testing.T) {
			var conns atomic.Int64
			node := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				_, _ = io.Copy(io.Discard, r.Body)
				w.Header().Set(server.MutationSeqHeader, "1") // a 409's copy is as fresh as the import
				w.WriteHeader(c.status)
				_, _ = io.WriteString(w, c.body)
			}))
			node.Config.ConnState = func(_ net.Conn, s http.ConnState) {
				if s == http.StateNew {
					conns.Add(1)
				}
			}
			node.Start()
			defer node.Close()
			p, err := New(Config{Nodes: []string{node.URL}, HealthEvery: time.Second, Logger: slog.New(slog.DiscardHandler)})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			for i := 0; i < calls; i++ {
				if err := c.call(p, node.URL); err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
			}
			if n := conns.Load(); n != 1 {
				t.Fatalf("%d calls opened %d connections, want 1", calls, n)
			}
		})
	}
}

package cluster

import (
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"gdr/internal/faultfs"
)

// holdReplicaListing arms a one-shot gate on the node's replica listing:
// the next GET /v1/replicas closes arrived, then waits until release is
// called. The release also runs at cleanup, before the node closes.
func (n *fakeNode) holdReplicaListing(t *testing.T) (arrived <-chan struct{}, release func()) {
	g := &listingGate{arrived: make(chan struct{}), release: make(chan struct{})}
	n.mu.Lock()
	n.replicaGate = g
	n.mu.Unlock()
	release = sync.OnceFunc(func() { close(g.release) })
	t.Cleanup(release)
	return g.arrived, release
}

// wipe drops everything the node holds, as a node that lost its disk.
func (n *fakeNode) wipe() {
	n.mu.Lock()
	n.sessions = map[string]fakeSession{}
	n.replicas = map[string]fakeReplica{}
	n.mu.Unlock()
}

// setDown makes the node fail (or pass) its health probes.
func (n *fakeNode) setDown(down bool) {
	n.mu.Lock()
	n.down = down
	n.mu.Unlock()
}

// snapOf returns the snapshot bytes a node holds for a token.
func (n *fakeNode) snapOf(token string) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return string(n.sessions[token].snap)
}

// promotions reads the proxy's promotion counter.
func promotions(p *Proxy) int64 {
	return p.Registry().Counter("gdrproxy_replica_promotions_total").Value()
}

// TestProxyPromotesAfterListingHeals: a session's owner dies while another
// survivor cannot list its sessions, so the death's pass cannot promote.
// The orphan mark stays, and the first pass after the listing heals
// promotes the session from its replica.
func TestProxyPromotesAfterListingHeals(t *testing.T) {
	p, nodes, ts := newTestProxy(t, 3, func(c *Config) { c.FailAfter = 1 })
	token := strings.Repeat("a1", 16)
	owner := nodeByURL(nodes, p.currentRing().Lookup(token))
	holder := replicaOf(p, nodes, token)
	var blind *fakeNode
	for _, n := range nodes {
		if n != owner && n != holder {
			blind = n
		}
	}
	owner.putSeq(token, 2, "live")
	holder.putReplica(token, 2, []byte("replica-v2"))
	blind.mu.Lock()
	blind.unlisted = true
	blind.mu.Unlock()
	owner.wipe()
	owner.setDown(true)
	p.checkAll()
	if code, _ := statusOf(t, ts.URL, token); code != http.StatusServiceUnavailable {
		t.Fatalf("the orphaned session answered %d while a survivor cannot list, want 503", code)
	}
	blind.mu.Lock()
	blind.unlisted = false
	blind.mu.Unlock()
	if err := p.Rebalance(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, _ := statusOf(t, ts.URL, token); code != http.StatusOK {
		t.Fatalf("the session answered %d after the listing healed, want 200", code)
	}
	if n := promotions(p); n != 1 {
		t.Fatalf("promotions = %d, want 1", n)
	}
	if got := nodeByURL(nodes, p.currentRing().Lookup(token)).snapOf(token); got != "replica-v2" {
		t.Fatalf("the ring owner serves %q, want the promoted replica", got)
	}
}

// TestProxyPromotesWhenHolderReturns: both nodes of two die, the replica
// holder first and then the owner with its disk, so no pass has a node to
// promote onto. When the holder returns, the session is promoted onto it;
// when the wiped owner returns too, the session moves home and is not
// lost to the replica GC.
func TestProxyPromotesWhenHolderReturns(t *testing.T) {
	p, nodes, ts := newTestProxy(t, 2, func(c *Config) { c.FailAfter = 1 })
	token := strings.Repeat("b2", 16)
	owner := nodeByURL(nodes, p.currentRing().Lookup(token))
	holder := replicaOf(p, nodes, token)
	owner.putSeq(token, 3, "live")
	holder.putReplica(token, 3, []byte("replica-v3"))

	holder.setDown(true)
	p.checkAll()
	owner.wipe()
	owner.setDown(true)
	p.checkAll()
	if p.currentRing().Len() != 0 {
		t.Fatal("both nodes are down, but the ring is not empty")
	}

	holder.setDown(false)
	p.checkAll()
	if code, _ := statusOf(t, ts.URL, token); code != http.StatusOK {
		t.Fatalf("the session answered %d once its replica's holder returned, want 200", code)
	}
	owner.setDown(false)
	p.checkAll()
	if !owner.has(token) && !holder.has(token) {
		t.Fatal("no node holds the session after the wiped owner returned")
	}
	if code, _ := statusOf(t, ts.URL, token); code != http.StatusOK {
		t.Fatalf("the session answered %d after the wiped owner returned, want 200", code)
	}
}

// TestProxyRetriesFailedMove: a drain whose move fails leaves the session
// on the drained node, pinned. Once the fault clears, the health loop's
// pass moves it to its ring owner, with no ring change to prompt it.
func TestProxyRetriesFailedMove(t *testing.T) {
	faults := faultfs.New(1)
	p, nodes, _ := newTestProxy(t, 3, func(c *Config) {
		c.Faults = faults
		c.HealthEvery = 10 * time.Millisecond
	})
	token := strings.Repeat("c3", 16)
	src := nodeByURL(nodes, p.currentRing().Lookup(token))
	src.put(token, "")
	faults.Set(FaultImport, faultfs.Rule{P: 1})
	if err := p.RemoveNode(context.Background(), src.ts.URL); err == nil {
		t.Fatal("a drain with a failing import reported success")
	}
	if !src.has(token) || p.routeToken(token) != src.ts.URL {
		t.Fatal("the failed move did not leave the session on the drained node, routed")
	}
	faults.Clear()
	p.Start()
	defer p.Close()
	dst := nodeByURL(nodes, p.currentRing().Lookup(token))
	deadline := time.Now().Add(2 * time.Second)
	for src.has(token) || !dst.has(token) {
		if time.Now().After(deadline) {
			t.Fatal("the health loop never retried the failed move")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestProxyPromotesDeathDeclaredMidPass: a death declared while another
// pass is listing replicas is promoted by the pass after it. The running
// pass's inventory predates the death and lists the dead owner's copy as
// live, so that pass must leave the new orphan mark alone.
func TestProxyPromotesDeathDeclaredMidPass(t *testing.T) {
	p, nodes, ts := newTestProxy(t, 3, func(c *Config) { c.FailAfter = 1 })
	token := strings.Repeat("d4", 16)
	owner := nodeByURL(nodes, p.currentRing().Lookup(token))
	holder := replicaOf(p, nodes, token)
	owner.putSeq(token, 2, "live")
	holder.putReplica(token, 2, []byte("replica-v2"))

	arrived, release := holder.holdReplicaListing(t)
	passed := make(chan error, 1)
	go func() { passed <- p.Rebalance(context.Background()) }()
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the pass never listed the holder's replicas")
	}
	owner.wipe()
	owner.setDown(true)
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		p.checkAll()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for p.currentRing().Has(owner.ts.URL) {
		if time.Now().After(deadline) {
			t.Fatal("the health round never took the down owner out of the ring")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-passed; err != nil {
		t.Fatal(err)
	}
	<-checked
	if code, _ := statusOf(t, ts.URL, token); code != http.StatusOK {
		t.Fatalf("the dead owner's session answered %d after both passes, want 200", code)
	}
	if n := promotions(p); n != 1 {
		t.Fatalf("promotions = %d, want 1", n)
	}
}

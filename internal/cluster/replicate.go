package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"gdr/internal/server"
)

// Shared-nothing session replication. Every session's latest snapshot
// lives in two places: on its ring owner (the primary, serving traffic)
// and in the replica spill store of the next distinct ring node. The proxy
// drives the copies:
//
//	push    — a create's first replica is pushed before the 201 goes back,
//	          so a session has a replica from its first response; after
//	          every feedback 200 the token is queued, and the replicator
//	          exports the snapshot from the primary and PUTs it to the
//	          replica node, watermarked with the mutation sequence the bytes
//	          capture. The store rejects stale watermarks, so a delayed push
//	          can never roll a replica back. Pushes after the first are
//	          asynchronous: a node lost for good takes with it the rounds
//	          since its last landed push (gdrd_replica_lag_rounds shows
//	          that exposure).
//	promote — when a node dies, failover() imports the freshest replica of
//	          each orphaned session onto its new ring owner — no access to
//	          the dead node's disk required.
//	audit   — every health tick the anti-entropy sweep settles duplicate
//	          primaries (see settle), re-derives the desired placement
//	          (each kept copy is a routed primary; its replica goes to
//	          LookupReplica, or to the ring owner for a copy pinned onto
//	          that node) and queues pushes for missing or lagging
//	          replicas. It acts only on a full inventory. Because the ring only
//	          contains live nodes, a dead replica holder's keys are
//	          automatically re-hinted to the next distinct survivor, and
//	          move back when it rejoins.
//	gc      — replicas whose session is gone or whose placement moved are
//	          deleted, but only in a quiet cluster (every configured node
//	          live and the whole inventory readable): deleting a copy is the
//	          one irreversible act here, so it waits until the sweep can see
//	          the whole board.

// observeForReplication inspects one successful upstream response on the
// proxying hot path and queues replica work. Only a create waits, for its
// first replica push; everything else is a map merge plus a
// buffered-channel doorbell.
func (p *Proxy) observeForReplication(resp *http.Response) {
	r := resp.Request
	switch {
	case r.Method == http.MethodPost && resp.StatusCode == http.StatusCreated && r.URL.Path == "/v1/sessions":
		// A fresh session gets its replica before the client hears of it,
		// so it survives its owner's death from its first response. A
		// failed push does not fail the create; the audit retries it.
		if token := r.Header.Get(server.AssignTokenHeader); token != "" {
			if err := p.pushReplica(r.Context(), token); err != nil {
				p.reg.Counter("gdrproxy_replica_push_failures_total").Inc()
				p.log.Warn("first replica push failed; the audit will retry", "token", token, "err", err)
			}
		}
	case r.Method == http.MethodPost && resp.StatusCode == http.StatusOK && strings.HasSuffix(r.URL.Path, "/feedback"):
		if token := sessionTokenFromPath(r.URL.Path); token != "" {
			p.enqueueReplicate(token)
		}
	case r.Method == http.MethodDelete && resp.StatusCode == http.StatusOK:
		if token := sessionTokenFromPath(r.URL.Path); token != "" && !strings.Contains(strings.TrimPrefix(r.URL.Path, "/v1/sessions/"), "/") {
			p.enqueueDrop(token)
		}
	}
}

// sessionTokenFromPath extracts the token segment of /v1/sessions/{id}[/…].
func sessionTokenFromPath(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/sessions/")
	if !ok {
		return ""
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// enqueueReplicate queues one token for a replica push.
func (p *Proxy) enqueueReplicate(token string) {
	p.replMu.Lock()
	p.replPend[token] = struct{}{}
	delete(p.replDrop, token) // a live mutation supersedes a pending drop
	p.replMu.Unlock()
	p.wakeReplicator()
}

// enqueueDrop queues one deleted session's replicas for removal.
func (p *Proxy) enqueueDrop(token string) {
	p.replMu.Lock()
	delete(p.replPend, token)
	p.replDrop[token] = struct{}{}
	p.replMu.Unlock()
	p.wakeReplicator()
}

func (p *Proxy) wakeReplicator() {
	select {
	case p.replWake <- struct{}{}:
	default:
	}
}

// replicator is the background worker draining the push/drop queues. It is
// deliberately not in the request path: feedback latency never waits on a
// replica push, and a slow replica node degrades durability (visible as
// audit re-queues) rather than serving.
func (p *Proxy) replicator() {
	defer p.healthWG.Done()
	for {
		select {
		case <-p.replWake:
			p.drainMu.Lock()
			p.drainReplication(context.Background())
			p.drainMu.Unlock()
		case <-p.stop:
			return
		}
	}
}

// drainReplication processes everything currently queued, in token order.
// A failed push is counted and logged but not re-queued here — the
// anti-entropy audit re-derives the need on the next health tick, which
// also gives the target time to recover. Callers hold drainMu.
func (p *Proxy) drainReplication(ctx context.Context) error {
	p.replMu.Lock()
	pushes := make([]string, 0, len(p.replPend))
	for t := range p.replPend {
		pushes = append(pushes, t)
	}
	drops := p.replDrop
	p.replDrop = make(map[string]struct{})
	clear(p.replPend)
	p.replMu.Unlock()
	sort.Strings(pushes)
	var firstErr error
	for _, token := range pushes {
		if err := p.pushReplica(ctx, token); err != nil {
			p.reg.Counter("gdrproxy_replica_push_failures_total").Inc()
			p.log.Warn("replica push failed; the audit will retry", "token", token, "err", err)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	if len(drops) > 0 {
		p.dropReplicas(ctx, drops)
	}
	return firstErr
}

// pushReplica refreshes one session's replica: export from the current
// primary, PUT to the ring's replica node, watermarked.
func (p *Proxy) pushReplica(ctx context.Context, token string) error {
	if err := p.cfg.Faults.Fault(FaultReplicate); err != nil {
		return err
	}
	primary := p.routeToken(token)
	if primary == "" {
		return fmt.Errorf("cluster: no node serves %s", token)
	}
	target := replicaTarget(p.currentRing(), token, primary)
	if target == "" {
		return nil // single-node ring: nowhere distinct to replicate
	}
	snap, seq, tenant, err := p.exportSession(ctx, primary, token)
	if err != nil {
		return fmt.Errorf("exporting %s from %s: %w", token, primary, err)
	}
	if err := p.putReplica(ctx, target, replicaKey(tenant, token), seq, snap); err != nil {
		return fmt.Errorf("pushing %s to %s: %w", token, target, err)
	}
	p.reg.Counter("gdrproxy_replica_pushes_total").Inc()
	return nil
}

// replicaTarget is the node that holds a session's replica: the ring's
// replica node, or the ring owner when routing pins the session onto the
// replica node.
func replicaTarget(ring *Ring, token, primary string) string {
	if t := ring.LookupReplica(token); t != primary {
		return t
	}
	return ring.Lookup(token)
}

// dropReplicas removes every node's replicas of the deleted sessions,
// listing each node's spill store once for the whole batch.
func (p *Proxy) dropReplicas(ctx context.Context, gone map[string]struct{}) {
	for _, node := range p.currentRing().Nodes() {
		held, err := p.listReplicas(ctx, node)
		if err != nil {
			continue // the quiet-cluster GC will finish the job
		}
		for _, rep := range held {
			if _, ok := gone[rep.Token]; !ok {
				continue
			}
			if err := p.deleteReplica(ctx, node, rep.Key); err == nil {
				p.reg.Counter("gdrproxy_replica_drops_total").Inc()
			}
		}
	}
}

// replicaKey renders the spill-store key for a session.
func replicaKey(tenant, token string) string {
	if tenant == "" {
		return token
	}
	return tenant + "@" + token
}

// auditReplicas is the anti-entropy sweep: settle duplicate primaries,
// re-derive the desired replica placement from the kept copies and queue a
// push for every replica that is missing, misplaced, or behind its
// primary's mutation sequence. Without a full inventory it does nothing:
// settling on a partial view could delete or re-route to the wrong copy.
// Runs on every health tick and after ring changes (via the tick that
// applied them).
func (p *Proxy) auditReplicas(ctx context.Context) {
	if len(p.cfg.Nodes) < 2 {
		return // one node: no duplicates, no distinct node to hold replicas
	}
	p.workMu.Lock()
	defer p.workMu.Unlock()
	inv, err := p.inventory(ctx)
	if err != nil {
		return
	}
	kept := p.settle(ctx, inv)
	ring := p.currentRing()
	if ring.Len() < 2 {
		return
	}
	// Every kept copy is routed (settle pins one off its ring owner), so
	// every kept copy replicates.
	desired := make(map[string]replicaWant, len(kept)) // replica key → requirement
	for _, c := range kept {
		desired[replicaKey(c.info.Tenant, c.info.ID)] = replicaWant{token: c.info.ID, seq: c.info.MutSeq, target: replicaTarget(ring, c.info.ID, c.node)}
	}
	inventoryOK := true
	held := make(map[string]map[string]server.ReplicaInfo) // node → key → info
	for _, node := range ring.Nodes() {
		reps, err := p.listReplicas(ctx, node)
		if err != nil {
			inventoryOK = false
			continue
		}
		byKey := make(map[string]server.ReplicaInfo, len(reps))
		for _, rep := range reps {
			byKey[rep.Key] = rep
		}
		held[node] = byKey
	}
	for key, w := range desired {
		rep, ok := held[w.target][key]
		if !ok || rep.Seq < w.seq {
			p.enqueueReplicate(w.token)
		}
	}
	p.gcReplicas(ctx, desired, held, inventoryOK)
}

// replicaWant is one session's replication requirement, derived from the
// live inventory during an audit.
type replicaWant struct {
	token  string
	seq    uint64
	target string
}

// gcReplicas deletes replicas no longer called for — the session is gone
// or its placement moved — but only in a quiet cluster: every configured
// node live and the whole inventory readable. Otherwise a copy that looks
// superfluous may be the one copy left, so the sweep keeps it. (The audit
// holds workMu, so no failover or migration is in flight.)
func (p *Proxy) gcReplicas(ctx context.Context, desired map[string]replicaWant, held map[string]map[string]server.ReplicaInfo, inventoryOK bool) {
	if !inventoryOK {
		return
	}
	p.mu.Lock()
	quiet := true
	for _, st := range p.nodes {
		if !st.live {
			quiet = false
			break
		}
	}
	p.mu.Unlock()
	if !quiet {
		return
	}
	for node, byKey := range held {
		for key := range byKey {
			if w, ok := desired[key]; ok && w.target == node {
				continue
			}
			if err := p.deleteReplica(ctx, node, key); err != nil {
				p.log.Warn("replica gc delete failed", "node", node, "key", key, "err", err)
				continue
			}
			p.reg.Counter("gdrproxy_replica_drops_total").Inc()
			p.log.Info("garbage-collected replica", "node", node, "key", key)
		}
	}
}

// SyncReplicas drives replication to convergence right now: drain the
// queue, audit, drain again. Tests and operational scripts call this
// before deliberately killing a node, so the kill provably costs nothing.
func (p *Proxy) SyncReplicas(ctx context.Context) error {
	p.drainMu.Lock()
	defer p.drainMu.Unlock()
	if err := p.drainReplication(ctx); err != nil {
		return err
	}
	p.auditReplicas(ctx)
	return p.drainReplication(ctx)
}

// putReplica PUTs one watermarked snapshot into a node's spill store.
func (p *Proxy) putReplica(ctx context.Context, node, key string, seq uint64, data []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, node+"/v1/replicas/"+key, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(server.MutationSeqHeader, strconv.FormatUint(seq, 10))
	p.setAdminAuth(req)
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusConflict:
		// The store already holds a newer copy — a racing push won. Fine.
		return nil
	default:
		return fmt.Errorf("%s: %s", resp.Status, readErrorBody(resp.Body))
	}
}

// getReplica pulls one replica's bytes and watermark from a node.
func (p *Proxy) getReplica(ctx context.Context, node, key string) ([]byte, uint64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/v1/replicas/"+key, nil)
	if err != nil {
		return nil, 0, err
	}
	p.setAdminAuth(req)
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("%s: %s", resp.Status, readErrorBody(resp.Body))
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	seq, _ := strconv.ParseUint(resp.Header.Get(server.MutationSeqHeader), 10, 64)
	return data, seq, nil
}

// deleteReplica drops one replica from a node's spill store.
func (p *Proxy) deleteReplica(ctx context.Context, node, key string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, node+"/v1/replicas/"+key, nil)
	if err != nil {
		return err
	}
	p.setAdminAuth(req)
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		return fmt.Errorf("%s: %s", resp.Status, readErrorBody(resp.Body))
	}
	return nil
}

// listReplicas inventories one node's spill store. A node that does not
// expose the replica surface (pre-replication build) reads as empty.
func (p *Proxy) listReplicas(ctx context.Context, node string) ([]server.ReplicaInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/v1/replicas", nil)
	if err != nil {
		return nil, err
	}
	p.setAdminAuth(req)
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: listing replicas on %s: %s", node, resp.Status)
	}
	var list server.ReplicaList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, err
	}
	return list.Replicas, nil
}

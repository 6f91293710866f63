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
	"time"

	"gdr/internal/server"
)

// Shared-nothing session replication. Every session's latest snapshot
// lives in two places: on its ring owner (the primary, serving traffic)
// and in the replica spill store of the next distinct ring node. The proxy
// drives the copies:
//
//	push    — a create's first replica is pushed before the 201 goes back,
//	          so a session has a replica from its first response; after
//	          every other mutation the proxy sees (a feedback 200 that is
//	          not a replay, a random-order groups 200) the token is queued,
//	          and the replicator, pushDelay after it is woken, exports the
//	          snapshot from the primary and PUTs it to the replica node,
//	          watermarked with the mutation sequence the bytes capture. The
//	          store rejects stale watermarks, so a delayed push can never
//	          roll a replica back. Pushes after the first are asynchronous:
//	          a node lost for good takes with it the rounds since its last
//	          landed push. (gdrd_replica_lag_rounds is not that live
//	          exposure: it counts the rounds the node's latest accepted
//	          push skipped over.)
//	promote — when a node dies, the next placement pass (reconcile)
//	          imports the freshest replica of each session left without a
//	          live copy onto its ring owner — no access to the dead node's
//	          disk required.
//	audit   — the same pass, on every health tick, settles duplicate
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
		// A replayed round (a dedup hit) changed nothing on the node.
		if token := sessionTokenFromPath(r.URL.Path); token != "" && resp.Header.Get(server.DuplicateHeader) == "" {
			p.enqueueReplicate(token)
		}
	case r.Method == http.MethodGet && resp.StatusCode == http.StatusOK && strings.HasSuffix(r.URL.Path, "/groups") &&
		r.URL.Query().Get("order") == "random":
		// A random-order poll advances the session's shuffle count, so the
		// node bumps its mut_seq (handleGroups in internal/server): a
		// replica left behind would repeat an order the client has seen.
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

// pushDelay is how long the woken replicator waits before it drains the
// queue. A push started at once would export and PUT a snapshot while the
// answer of the round that queued it is still on its way to the client,
// and the two would contend for the same CPUs: on 2 CPUs, the wait took
// cluster-census feedback_p50_ms from 0.68 to 0.33 ms (ARCHITECTURE
// "Replication", Pacing). Tokens queued during the wait ride the same
// drain. The cost is freshness: a replica trails its owner by up to
// pushDelay more.
const pushDelay = 2 * time.Millisecond

// replicator is the background worker draining the push/drop queues. It is
// deliberately not in the request path: feedback latency never waits on a
// replica push, and a slow replica node degrades durability (visible as
// audit re-queues) rather than serving.
func (p *Proxy) replicator() {
	defer p.healthWG.Done()
	for {
		select {
		case <-p.replWake:
		case <-p.stop:
			return
		}
		select {
		case <-time.After(pushDelay):
		case <-p.stop:
			return
		}
		p.drainMu.Lock()
		p.drainReplication(context.Background())
		p.drainMu.Unlock()
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
	if err := p.putReplica(ctx, target, server.SessionKey(tenant, token), seq, snap); err != nil {
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

// listReplicaStores lists every ring member's replica store once for a
// placement pass, by node and key, and reports whether every listing
// succeeded.
func (p *Proxy) listReplicaStores(ctx context.Context, ring *Ring) (map[string]map[string]server.ReplicaInfo, bool) {
	ok := true
	held := make(map[string]map[string]server.ReplicaInfo, ring.Len()) // node → key → info
	for _, node := range ring.Nodes() {
		reps, err := p.listReplicas(ctx, node)
		if err != nil {
			p.log.Warn("listing replicas failed", "node", node, "err", err)
			ok = false
			continue
		}
		byKey := make(map[string]server.ReplicaInfo, len(reps))
		for _, rep := range reps {
			byKey[rep.Key] = rep
		}
		held[node] = byKey
	}
	return held, ok
}

// queueReplicas is the pass's anti-entropy step. Every kept copy is a
// routed primary (settle pins one off its ring owner), so every kept copy
// replicates: a push is queued for each whose replica is missing from its
// target or behind its watermark, the target following where the copy is
// routed after the pass's moves. Then the quiet-cluster GC runs over the
// pass's replica listing.
func (p *Proxy) queueReplicas(ctx context.Context, ring *Ring, kept []sessionCopy, held map[string]map[string]server.ReplicaInfo, heldOK bool) {
	if ring.Len() < 2 {
		return // no distinct node to hold replicas
	}
	desired := make(map[string]string, len(kept)) // replica key → target node
	for _, c := range kept {
		key := server.SessionKey(c.info.Tenant, c.info.ID)
		target := replicaTarget(ring, c.info.ID, p.routeToken(c.info.ID))
		desired[key] = target
		if rep, ok := held[target][key]; !ok || rep.Seq < c.info.MutSeq {
			p.enqueueReplicate(c.info.ID)
		}
	}
	p.gcReplicas(ctx, desired, held, heldOK)
}

// gcReplicas deletes replicas no longer called for — the session is gone
// or its placement moved — but only in a quiet cluster: every configured
// node live and the whole inventory readable. Otherwise a copy that looks
// superfluous may be the one copy left, so the sweep keeps it. (The pass
// holds workMu, so no promotion or move is in flight.)
func (p *Proxy) gcReplicas(ctx context.Context, desired map[string]string, held map[string]map[string]server.ReplicaInfo, inventoryOK bool) {
	if !inventoryOK {
		return
	}
	if p.currentRing().Len() < len(p.cfg.Nodes) {
		return // not quiet: some configured node is out of the ring
	}
	for node, byKey := range held {
		for key := range byKey {
			if desired[key] == node {
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
// queue, run the placement pass, drain again. It reports the queue's
// failures; a listing or move the pass could not make is the next health
// tick's to retry. It is Go API, not a gdrproxy command: the in-process
// rigs and embedders call it before deliberately killing a node, so the
// kill provably costs nothing.
func (p *Proxy) SyncReplicas(ctx context.Context) error {
	p.drainMu.Lock()
	defer p.drainMu.Unlock()
	if err := p.drainReplication(ctx); err != nil {
		return err
	}
	_ = p.Rebalance(ctx) // a failed listing or move is the next tick's to retry
	return p.drainReplication(ctx)
}

// putReplica PUTs one watermarked snapshot into a node's spill store. A
// 409 counts as landed: the store already holds a newer copy, so a racing
// push won.
func (p *Proxy) putReplica(ctx context.Context, node, key string, seq uint64, data []byte) error {
	header := http.Header{"Content-Type": {"application/octet-stream"}, server.MutationSeqHeader: {strconv.FormatUint(seq, 10)}}
	resp, err := p.call(ctx, http.MethodPut, node+"/v1/replicas/"+key, p.adminAuth(), bytes.NewReader(data), header,
		http.StatusOK, http.StatusConflict)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// getReplica pulls one replica's bytes from a node.
func (p *Proxy) getReplica(ctx context.Context, node, key string) ([]byte, error) {
	resp, err := p.call(ctx, http.MethodGet, node+"/v1/replicas/"+key, p.adminAuth(), nil, nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// deleteReplica drops one replica from a node's spill store.
func (p *Proxy) deleteReplica(ctx context.Context, node, key string) error {
	resp, err := p.call(ctx, http.MethodDelete, node+"/v1/replicas/"+key, p.adminAuth(), nil, nil,
		http.StatusOK, http.StatusNotFound)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// listReplicas inventories one node's spill store. A node that does not
// expose the replica surface (pre-replication build) reads as empty.
func (p *Proxy) listReplicas(ctx context.Context, node string) ([]server.ReplicaInfo, error) {
	resp, err := p.call(ctx, http.MethodGet, node+"/v1/replicas", p.adminAuth(), nil, nil,
		http.StatusOK, http.StatusNotFound)
	if err != nil {
		return nil, fmt.Errorf("cluster: listing replicas on %s: %w", node, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	var list server.ReplicaList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, err
	}
	return list.Replicas, nil
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"time"

	"gdr/internal/server"
)

// The migration protocol. A session moves in four steps:
//
//	drain   — the token is marked migrating; new requests for it wait, and
//	          the move waits until the forwards already routed to the
//	          source have returned, so none reaches it after the export
//	export  — POST src/…/snapshot captures the session (the export rides
//	          the source actor queue behind every in-flight command, and
//	          holds an eviction lease, so the bytes are complete and safe)
//	import  — POST dst/v1/sessions with the snapshot body and the
//	          placement headers recreates the session under its original
//	          token and tenant; byte-identical resume (the snapshot
//	          invariant) makes the copy indistinguishable from the source
//	redirect — the source copy is deleted and the routing override drops,
//	          so the ring sends every subsequent request to dst
//
// Failure at any step leaves the session with one authoritative copy:
// export fails → still src; import fails → still src (override stays). A
// destination that already holds the token answers 409 with its copy's
// watermark, and that copy stands in for the import only when it is at
// least as fresh as the source's; otherwise the move fails and the source
// stays routed. A failed source delete leaves a superseded copy behind, so
// routing is pinned to dst until a later pass deletes the leftover. A
// failed move is retried by the next pass, on the next health tick.
//
// Which copy of a session is real is decided by one rule. One placement
// pass (reconcile) re-derives it from the nodes' own listings on every
// health tick and every membership change, so a restarted proxy rebuilds
// it from nothing:
//
//  1. The serving lineage wins. A node the health loop declared dead loses
//     its copies of every session a listed node holds before it is listed
//     again (see admit): those copies predate the promotion, and
//     watermarks cannot order them against the promoted copy's history.
//  2. Within the lineage, the freshest watermark wins. Moves and
//     promotions copy state forward and only the routed copy is mutated,
//     so any other duplicate is ordered by watermark, and equal watermarks
//     mean equivalent state (see settle): a VOI poll may regrow a stale
//     committee without a mutation, and every copy regrows it identically
//     on its next prediction. Only a full inventory is settled: the copy a
//     failed listing hides may be the freshest.

// migrateTimeout bounds one session move end to end.
const migrateTimeout = 30 * time.Second

// move is one planned session migration.
type move struct {
	token  string
	tenant string
	from   string
	to     string
}

// sessionCopy is one node's copy of a session, as its listing reports it.
type sessionCopy struct {
	node string
	info server.SessionInfo
}

// holders returns every node that may hold a copy of a session: every
// configured node the health loop has not declared dead (ring members and
// drained nodes), in configured order. A dead node is not asked: rule 1
// settles its copies before it is listed again (see admit).
func (p *Proxy) holders() []string {
	var nodes []string
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, n := range p.cfg.Nodes {
		if !p.nodes[n].dead {
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// inventory lists the sessions on every holder. Any failed listing fails
// the whole inventory, since the copy it hides may be the one routing
// points at; settling, moving or promoting on a partial view could serve
// or keep an older copy.
func (p *Proxy) inventory(ctx context.Context) (map[string][]sessionCopy, error) {
	inv := make(map[string][]sessionCopy)
	for _, n := range p.holders() {
		infos, err := p.listNode(ctx, n, p.adminAuth())
		if err != nil {
			p.log.Warn("listing node failed; placement waits for a full inventory", "node", n, "err", err)
			return nil, err
		}
		for _, s := range infos {
			inv[s.ID] = append(inv[s.ID], sessionCopy{node: n, info: s})
		}
	}
	return inv, nil
}

// settle applies rule 2 to an inventory: of each session's copies it keeps
// the one with the highest watermark, among equals the one routing points
// at, and deletes the rest. Routing is pinned to the kept copy while the
// ring points elsewhere or a superseded copy survives its delete, and the
// pin drops once the ring owner holds the only copy. It returns the kept
// copy of every session, in token order. Callers hold workMu, so no token
// is mid-move, and pass a full inventory and the ring version they read
// before taking it.
//
// Every session is then routed to a node holding it, so settle records
// that version as settled (never lowering the recorded one) and the proxy
// answers 404s as 404s again (see unsettled) — unless a node is still
// orphaned: a death declared during the pass, or one whose sessions the
// pass could not promote.
func (p *Proxy) settle(ctx context.Context, inv map[string][]sessionCopy, version uint64) []sessionCopy {
	tokens := make([]string, 0, len(inv))
	for token := range inv {
		tokens = append(tokens, token)
	}
	sort.Strings(tokens)
	kept := make([]sessionCopy, 0, len(inv))
	for _, token := range tokens {
		keep := freshest(inv[token], p.routeToken(token))
		kept = append(kept, keep)
		left := 1
		for _, c := range inv[token] {
			if c.node == keep.node {
				continue
			}
			if err := p.deleteSession(ctx, c.node, token); err != nil {
				left++
				p.log.Warn("superseded session copy still undeletable; will retry",
					"token", token, "node", c.node, "err", err)
				continue
			}
			p.log.Info("deleted superseded session copy", "token", token, "node", c.node,
				"seq", c.info.MutSeq, "kept", keep.node, "kept_seq", keep.info.MutSeq)
		}
		p.mu.Lock()
		if left > 1 || p.ring.Lookup(token) != keep.node {
			p.overrides[token] = keep.node
		} else {
			delete(p.overrides, token)
		}
		p.mu.Unlock()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, st := range p.nodes {
		if st.orphaned {
			return kept
		}
	}
	p.settled = max(p.settled, version)
	return kept
}

// freshest picks the copy settle keeps: the highest watermark, and among
// equal watermarks the copy on the routed node (else the first listed).
func freshest(copies []sessionCopy, routed string) sessionCopy {
	keep := copies[0]
	for _, c := range copies[1:] {
		if c.info.MutSeq > keep.info.MutSeq || c.info.MutSeq == keep.info.MutSeq && c.node == routed {
			keep = c
		}
	}
	return keep
}

// reconcile is the placement pass, the one step that acts on the recovery
// rule. From one inventory it promotes the sessions a death left without a
// live copy, settles each session to one copy, moves every kept copy onto
// its ring owner, and queues the replica pushes that placement needs. The
// health loop runs it on every tick, and a death, a revival, AddNode,
// RemoveNode, Rebalance and SyncReplicas run it at once, so a step that a
// failed listing or a failed move skipped is retried on the next tick.
// Without a full inventory it changes nothing and returns the error;
// otherwise it returns the first failed move's. Callers hold workMu.
func (p *Proxy) reconcile(ctx context.Context) error {
	// The ring and the orphan marks are read before the inventory. A death
	// declared after this point may have copies the inventory still lists
	// as live, so its promotion, and its mark, are the next pass's.
	p.mu.Lock()
	ring := p.ring
	var orphans []*nodeState
	for _, n := range p.cfg.Nodes {
		if st := p.nodes[n]; st.orphaned {
			orphans = append(orphans, st)
		}
	}
	p.mu.Unlock()
	inv, err := p.inventory(ctx)
	if err != nil {
		return err
	}
	held, heldOK := p.listReplicaStores(ctx, ring)
	// A replica a failed listing hides may be the freshest, and an empty
	// ring has no node to promote onto: then the marks wait for a pass that
	// can promote.
	if len(orphans) > 0 && ring.Len() > 0 && heldOK {
		p.promoteOrphans(ctx, ring, inv, held)
		p.mu.Lock()
		for _, st := range orphans {
			st.orphaned = false
		}
		p.mu.Unlock()
	}
	kept := p.settle(ctx, inv, ring.Version())
	var moves []move
	for _, c := range kept {
		if want := ring.Lookup(c.info.ID); want != "" && want != c.node {
			moves = append(moves, move{token: c.info.ID, tenant: c.info.Tenant, from: c.node, to: want})
		}
	}
	err = p.runMoves(ctx, moves)
	p.queueReplicas(ctx, ring, kept, held, heldOK)
	return err
}

// Rebalance is the operator/test resync entry point: it runs the placement
// pass at once, under workMu.
func (p *Proxy) Rebalance(ctx context.Context) error {
	p.workMu.Lock()
	defer p.workMu.Unlock()
	return p.reconcile(ctx)
}

// runMoves executes planned migrations serially, in the given order
// (reconcile plans them in token order: deterministic and gentle, one
// session in flight at a time). The first error does not stop the sweep —
// every move is attempted — but is reported.
func (p *Proxy) runMoves(ctx context.Context, moves []move) error {
	p.mu.Lock()
	for _, m := range moves {
		p.overrides[m.token] = m.from
	}
	p.mu.Unlock()
	var firstErr error
	for _, m := range moves {
		if err := p.migrate(ctx, m); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// migrate moves one session. On success the override is dropped (the ring
// now routes to dst), or pinned to dst if the source copy survived its
// delete; on failure the override stays pointing at src, which still
// authoritatively holds the session.
func (p *Proxy) migrate(ctx context.Context, m move) (err error) {
	mg := &migration{done: make(chan struct{}), idle: make(chan struct{})}
	p.mu.Lock()
	p.migrating[m.token] = mg
	if p.inflight[m.token] == 0 {
		close(mg.idle)
	}
	p.mu.Unlock()

	start := time.Now()
	moved, pinned := false, false
	defer func() {
		p.mu.Lock()
		delete(p.migrating, m.token)
		switch {
		case pinned:
			p.overrides[m.token] = m.to
		case moved:
			delete(p.overrides, m.token)
		}
		p.mu.Unlock()
		close(mg.done)
		if err != nil {
			p.reg.Counter("gdrproxy_migration_failures_total").Inc()
			p.log.Warn("migration failed; session stays on source",
				"token", m.token, "from", m.from, "to", m.to, "err", err)
		} else {
			took := time.Since(start)
			p.reg.Counter("gdrproxy_migrations_total").Inc()
			p.reg.Histogram("gdrproxy_migration_seconds").Observe(took.Seconds())
			p.log.Info("migrated session", "token", m.token, "from", m.from, "to", m.to,
				"took", took)
		}
	}()

	ctx, cancel := context.WithTimeout(ctx, migrateTimeout)
	defer cancel()
	// A request routed to the source just before the mark may still be on
	// its way there: exported before it lands, its answered round would be
	// deleted with the source.
	select {
	case <-mg.idle:
	case <-ctx.Done():
		return fmt.Errorf("cluster: waiting out forwards of %s to %s: %w", m.token, m.from, ctx.Err())
	}
	if ferr := p.cfg.Faults.Fault(FaultExport); ferr != nil {
		return fmt.Errorf("cluster: exporting %s from %s: %w", m.token, m.from, ferr)
	}
	snap, seq, _, err := p.exportSession(ctx, m.from, m.token)
	if err != nil {
		return fmt.Errorf("cluster: exporting %s from %s: %w", m.token, m.from, err)
	}
	if ferr := p.cfg.Faults.Fault(FaultImport); ferr != nil {
		return fmt.Errorf("cluster: importing %s onto %s: %w", m.token, m.to, ferr)
	}
	if err := p.importSession(ctx, m.to, m.token, m.tenant, snap, seq); err != nil {
		return fmt.Errorf("cluster: importing %s onto %s: %w", m.token, m.to, err)
	}
	// The destination copy is authoritative from here on; routing flips to
	// it even if the source-side delete fails.
	moved = true
	if err := p.deleteSession(ctx, m.from, m.token); err != nil {
		pinned = true
		p.reg.Counter("gdrproxy_stale_source_total").Inc()
		p.log.Warn("migration source delete failed; routing pinned to the destination until a placement pass deletes it",
			"token", m.token, "from", m.from, "err", err)
	}
	return nil
}

// exportSession pulls a session's snapshot bytes off a node, plus the
// mutation sequence the bytes capture (the replica push watermark) and the
// owning tenant, both from the export's response headers. An export
// without a well-formed watermark is an error: read as 0, it would let an
// older copy stand in for the import, and stamp a push the replica refuses.
func (p *Proxy) exportSession(ctx context.Context, node, token string) ([]byte, uint64, string, error) {
	resp, err := p.call(ctx, http.MethodPost, node+"/v1/sessions/"+token+"/snapshot", p.adminAuth(), nil, nil, http.StatusOK)
	if err != nil {
		return nil, 0, "", err
	}
	defer resp.Body.Close()
	seq, err := strconv.ParseUint(resp.Header.Get(server.MutationSeqHeader), 10, 64)
	if err != nil {
		return nil, 0, "", fmt.Errorf("the export names no watermark: %w", err)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, "", err
	}
	return data, seq, resp.Header.Get(server.AssignTenantHeader), nil
}

// importSession recreates a session from snapshot bytes on a node, under
// its original token and tenant; seq is the watermark the bytes capture. A
// 409 means the node already holds the token. That copy stands in for the
// import only if its watermark (reported on the 409) is at least seq; an
// older copy, or one still being built (no watermark), fails the import.
func (p *Proxy) importSession(ctx context.Context, node, token, tenant string, snap []byte, seq uint64) error {
	body, err := json.Marshal(server.CreateSessionRequest{Snapshot: snap})
	if err != nil {
		return err
	}
	header := http.Header{"Content-Type": {"application/json"}, server.AssignTokenHeader: {token}}
	if tenant != "" {
		header.Set(server.AssignTenantHeader, tenant)
	}
	resp, err := p.call(ctx, http.MethodPost, node+"/v1/sessions", p.adminAuth(), bytes.NewReader(body), header,
		http.StatusCreated, http.StatusConflict)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusCreated {
		return nil
	}
	held, perr := strconv.ParseUint(resp.Header.Get(server.MutationSeqHeader), 10, 64)
	if perr != nil {
		return fmt.Errorf("the node's copy of the token is still being built")
	}
	if held < seq {
		return fmt.Errorf("the node holds an older copy (watermark %d < %d)", held, seq)
	}
	p.reg.Counter("gdrproxy_duplicate_imports_total").Inc()
	return nil
}

// deleteSession removes a session from a node. Every session delete the
// proxy makes on its own account goes through here, and FaultDelete fails
// it.
func (p *Proxy) deleteSession(ctx context.Context, node, token string) error {
	if err := p.cfg.Faults.Fault(FaultDelete); err != nil {
		return err
	}
	resp, err := p.call(ctx, http.MethodDelete, node+"/v1/sessions/"+token, p.adminAuth(), nil, nil,
		http.StatusOK, http.StatusNotFound)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// promoteOrphans is the pass's failover step, shared-nothing: nothing of a
// dead node is read, not even its disk. A session's freshest replica
// (among equal watermarks, the first holder in ring order) is promoted
// onto its ring owner unless some live copy's watermark is at least the
// replica's. Its live copies are then all older, so promote deletes them
// first. Each promoted copy replaces its session's entry in inv, so settle
// treats it like any kept copy. A failed promotion is counted and logged,
// and is not retried.
func (p *Proxy) promoteOrphans(ctx context.Context, ring *Ring, inv map[string][]sessionCopy, held map[string]map[string]server.ReplicaInfo) {
	type candidate struct {
		holder string
		info   server.ReplicaInfo
	}
	best := make(map[string]candidate) // token → freshest replica
	for _, n := range ring.Nodes() {
		for _, rep := range held[n] {
			if cur, ok := best[rep.Token]; !ok || rep.Seq > cur.info.Seq {
				best[rep.Token] = candidate{holder: n, info: rep}
			}
		}
	}
	for _, token := range slices.Sorted(maps.Keys(best)) {
		c := best[token]
		if live := inv[token]; len(live) > 0 && freshest(live, "").info.MutSeq >= c.info.Seq {
			continue
		}
		want := ring.Lookup(token)
		if err := p.promote(ctx, c.holder, c.info, want, inv[token]); err != nil {
			p.reg.Counter("gdrproxy_recovery_failures_total").Inc()
			p.log.Warn("promoting replica failed", "token", token, "from", c.holder, "to", want, "err", err)
			continue
		}
		p.reg.Counter("gdrproxy_replica_promotions_total").Inc()
		p.log.Info("promoted replica", "token", token, "seq", c.info.Seq, "from", c.holder, "to", want)
		inv[token] = []sessionCopy{{node: want, info: server.SessionInfo{ID: token, Tenant: c.info.Tenant, MutSeq: c.info.Seq}}}
	}
}

// promote imports one replica onto its session's ring owner, first
// deleting the session's live copies, which are all older than it.
func (p *Proxy) promote(ctx context.Context, holder string, rep server.ReplicaInfo, to string, older []sessionCopy) error {
	data, err := p.getReplica(ctx, holder, rep.Key)
	if err != nil {
		return err
	}
	for _, c := range older {
		if err := p.deleteSession(ctx, c.node, rep.Token); err != nil {
			return err
		}
	}
	return p.importSession(ctx, to, rep.Token, rep.Tenant, data, rep.Seq)
}

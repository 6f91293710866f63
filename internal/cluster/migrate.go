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

// The migration protocol. A session moves in four steps:
//
//	drain   — the token is marked migrating; new requests for it wait
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
// routing is pinned to dst until an audit deletes the leftover.
//
// Which copy of a session is real is decided by one rule, re-derived from
// the nodes' own listings on every audit and before every rebalance, so a
// restarted proxy rebuilds it from nothing:
//
//  1. The serving lineage wins. A node the health loop declared dead loses
//     its copies of every session a listed node holds before it is listed
//     again (see admit): those copies predate the failover, and watermarks
//     cannot order them against the promoted copy's history.
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

// inventory lists the sessions on every node that may hold a copy: every
// configured node the health loop has not declared dead (ring members and
// drained nodes), in configured order. A dead node is not asked: rule 1
// settles its copies before it is listed again (see admit). Any failed
// listing fails the whole inventory, since the copy it hides may be the
// one routing points at; settling, moving or promoting on a partial view
// could serve or keep an older copy.
func (p *Proxy) inventory(ctx context.Context) (map[string][]sessionCopy, error) {
	var nodes []string
	p.mu.Lock()
	for _, n := range p.cfg.Nodes {
		if !p.nodes[n].dead {
			nodes = append(nodes, n)
		}
	}
	p.mu.Unlock()
	inv := make(map[string][]sessionCopy)
	for _, n := range nodes {
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
// is mid-move, and pass a full inventory.
func (p *Proxy) settle(ctx context.Context, inv map[string][]sessionCopy) []sessionCopy {
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

// rebalance settles every session to one copy, then moves each kept copy
// whose ring owner is another node — off drained nodes, and onto nodes that
// joined. Without a full inventory it does neither and returns the error.
// Callers hold workMu. Overrides for all pending moves are installed
// before the first migration starts, so a request for a not-yet-moved
// session still reaches its current home.
func (p *Proxy) rebalance(ctx context.Context) error {
	inv, err := p.inventory(ctx)
	if err != nil {
		return err
	}
	ring := p.currentRing()
	var moves []move
	for _, c := range p.settle(ctx, inv) {
		if want := ring.Lookup(c.info.ID); want != "" && want != c.node {
			moves = append(moves, move{token: c.info.ID, tenant: c.info.Tenant, from: c.node, to: want})
		}
	}
	return p.runMoves(ctx, moves)
}

// Rebalance is the operator/test resync entry point: delete superseded
// copies, then move every session onto its ring owner.
func (p *Proxy) Rebalance(ctx context.Context) error {
	p.workMu.Lock()
	defer p.workMu.Unlock()
	return p.rebalance(ctx)
}

// runMoves executes planned migrations serially, in the given order
// (rebalance plans them in token order: deterministic and gentle, one
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
	ch := make(chan struct{})
	p.mu.Lock()
	p.migrating[m.token] = ch
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
		close(ch)
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
		p.log.Warn("migration source delete failed; routing pinned to the destination until an audit deletes it",
			"token", m.token, "from", m.from, "err", err)
	}
	return nil
}

// exportSession pulls a session's snapshot bytes off a node, plus the
// mutation sequence the bytes capture (the replica push watermark) and the
// owning tenant, both from the export's response headers. A node predating
// those headers yields seq 0 and tenant "" — still importable, just
// watermarked conservatively.
func (p *Proxy) exportSession(ctx context.Context, node, token string) ([]byte, uint64, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/v1/sessions/"+token+"/snapshot", nil)
	if err != nil {
		return nil, 0, "", err
	}
	p.setAdminAuth(req)
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, "", fmt.Errorf("%s: %s", resp.Status, readErrorBody(resp.Body))
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, "", err
	}
	seq, _ := strconv.ParseUint(resp.Header.Get(server.MutationSeqHeader), 10, 64)
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
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, node+"/v1/sessions", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(server.AssignTokenHeader, token)
	if tenant != "" {
		req.Header.Set(server.AssignTenantHeader, tenant)
	}
	p.setAdminAuth(req)
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusCreated:
		return nil
	case http.StatusConflict:
		held, perr := strconv.ParseUint(resp.Header.Get(server.MutationSeqHeader), 10, 64)
		if perr != nil {
			return fmt.Errorf("the node's copy of the token is still being built")
		}
		if held < seq {
			return fmt.Errorf("the node holds an older copy (watermark %d < %d)", held, seq)
		}
		p.reg.Counter("gdrproxy_duplicate_imports_total").Inc()
		return nil
	default:
		return fmt.Errorf("%s: %s", resp.Status, readErrorBody(resp.Body))
	}
}

// deleteSession removes a session from a node. Every session delete the
// proxy makes on its own account goes through here, and FaultDelete fails
// it.
func (p *Proxy) deleteSession(ctx context.Context, node, token string) error {
	if err := p.cfg.Faults.Fault(FaultDelete); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, node+"/v1/sessions/"+token, nil)
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

// failover restores a dead node's sessions from the survivors' replica
// stores — shared-nothing: nothing of the dead node is read, not even its
// disk. A session counts as orphaned unless some live copy's watermark is
// at least its freshest replica's. An orphan's live copies are all older
// than that replica, so they are deleted, and the replica is imported onto
// the session's new ring owner and queued for re-replication, so the
// cluster converges back to primary + replica under the new placement.
// Callers hold workMu.
func (p *Proxy) failover(ctx context.Context, node string) {
	p.mu.Lock()
	p.recover++
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.recover--
		p.mu.Unlock()
	}()
	ring := p.currentRing()
	if ring.Len() == 0 {
		return
	}
	// An unreadable ring member might hold a live copy, and promoting over
	// it would fork the session.
	inv, err := p.inventory(ctx)
	if err != nil {
		p.log.Warn("failover: a listed node's sessions are unknown; skipping replica promotion",
			"dead", node, "err", err)
		return
	}
	type candidate struct {
		holder string
		info   server.ReplicaInfo
	}
	best := make(map[string]candidate) // token → freshest replica
	for _, n := range ring.Nodes() {
		reps, err := p.listReplicas(ctx, n)
		if err != nil {
			p.log.Warn("failover: listing replicas failed", "node", n, "err", err)
			continue
		}
		for _, rep := range reps {
			if cur, ok := best[rep.Token]; !ok || rep.Seq > cur.info.Seq {
				best[rep.Token] = candidate{holder: n, info: rep}
			}
		}
	}
	tokens := make([]string, 0, len(best))
	for token := range best {
		tokens = append(tokens, token)
	}
	sort.Strings(tokens)
	promoted := 0
	for _, token := range tokens {
		c := best[token]
		want := ring.Lookup(token)
		if live := inv[token]; want == "" || len(live) > 0 && freshest(live, "").info.MutSeq >= c.info.Seq {
			continue
		}
		if err := p.promote(ctx, c.holder, c.info, want, inv[token]); err != nil {
			p.reg.Counter("gdrproxy_recovery_failures_total").Inc()
			p.log.Warn("promoting replica failed", "token", token, "from", c.holder, "to", want, "err", err)
			continue
		}
		promoted++
		p.reg.Counter("gdrproxy_replica_promotions_total").Inc()
		p.log.Info("promoted replica", "token", token, "seq", c.info.Seq,
			"from", c.holder, "to", want, "dead", node)
		p.enqueueReplicate(token)
	}
	p.reg.Counter("gdrproxy_recovered_sessions_total").Add(int64(promoted))
}

// promote imports one replica onto its session's ring owner, first
// deleting the session's live copies, which are all older than it.
func (p *Proxy) promote(ctx context.Context, holder string, rep server.ReplicaInfo, to string, older []sessionCopy) error {
	data, _, err := p.getReplica(ctx, holder, rep.Key)
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

// adminAuth renders the proxy's own Authorization header value ("" in
// open mode).
func (p *Proxy) adminAuth() string {
	if p.cfg.AdminKey == "" {
		return ""
	}
	return "Bearer " + p.cfg.AdminKey
}

func (p *Proxy) setAdminAuth(req *http.Request) {
	if a := p.adminAuth(); a != "" {
		req.Header.Set("Authorization", a)
	}
}

// readErrorBody extracts the error string from a gdrd error response,
// falling back to the raw body.
func readErrorBody(r io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(r, 4096))
	var eb server.ErrorBody
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		return eb.Error
	}
	return strings.TrimSpace(string(data))
}

package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"
)

// healthLoop is the membership driver: it probes every configured node's
// /healthz on a jittered cadence, declares a node dead after FailAfter
// consecutive failures (removing it from the ring and restoring its
// sessions onto the survivors), and welcomes a recovered node back only
// after FailAfter consecutive successes — symmetric hysteresis, so a node
// flapping at the probe frequency cannot thrash the ring in either
// direction. Ring changes happen only here and in the explicit
// AddNode/RemoveNode calls, so membership is single-writer. Each round
// ends with the replica anti-entropy sweep, which converges every session
// toward one fresh primary plus one fresh replica.
func (p *Proxy) healthLoop() {
	defer p.healthWG.Done()
	timer := time.NewTimer(p.jitteredCadence())
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
			p.checkAll()
			p.auditReplicas(context.Background())
			timer.Reset(p.jitteredCadence())
		case <-p.stop:
			return
		}
	}
}

// jitteredCadence spreads probes ±10% around HealthEvery so a fleet of
// proxies started together does not synchronize its probe bursts against
// the nodes.
func (p *Proxy) jitteredCadence() time.Duration {
	d := p.cfg.HealthEvery
	span := int64(d / 5)
	if span <= 0 {
		return d
	}
	return d - d/10 + time.Duration(rand.Int64N(span))
}

// checkAll runs one probe round over the configured node set. A death
// fails the node's sessions over from their replicas; a return is admitted
// only once the node has shed its superseded copies (see admit), and until
// then every further good probe retries. Drained nodes are probed too: one
// that dies is not listed again until it has shed its copies the same way.
func (p *Proxy) checkAll() {
	ctx := context.Background()
	for _, node := range p.cfg.Nodes {
		ok := p.probe(node)
		p.mu.Lock()
		st := p.nodes[node]
		if st == nil {
			p.mu.Unlock()
			continue
		}
		var died, revived bool
		if ok {
			st.fails = 0
			if st.dead {
				// Hysteresis: one good probe is not proof of life. A node must
				// answer FailAfter times in a row before it returns, or a
				// half-up node would bounce sessions on every probe.
				st.succs++
				revived = st.succs >= p.cfg.FailAfter
			} else {
				st.succs = 0
			}
		} else {
			st.succs = 0
			st.fails++
			if !st.dead && st.fails >= p.cfg.FailAfter {
				died = true
				st.dead = true
				if st.live {
					st.live = false
					p.ring = p.ring.Remove(node)
					p.markSettlingLocked()
				}
			}
		}
		p.mu.Unlock()
		switch {
		case died:
			p.log.Warn("node declared dead", "node", node, "fail_after", p.cfg.FailAfter)
			p.reg.LabeledCounter("gdrproxy_node_deaths_total", "node", node).Inc()
			p.workMu.Lock()
			p.failover(ctx, node)
			p.rebalance(ctx)
			p.workMu.Unlock()
		case revived:
			p.workMu.Lock()
			err := p.admit(ctx, node, true)
			if err == nil {
				p.rebalance(ctx)
			}
			p.workMu.Unlock()
			if err != nil {
				if err != errNotDead {
					p.log.Warn("returning node kept out; will retry", "node", node, "err", err)
				}
				continue
			}
			if !p.currentRing().Has(node) {
				p.log.Info("drained node answers again", "node", node, "after_successes", p.cfg.FailAfter)
				continue
			}
			p.log.Info("node rejoined", "node", node, "after_successes", p.cfg.FailAfter)
			p.reg.LabeledCounter("gdrproxy_node_joins_total", "node", node).Inc()
		}
	}
}

// errNotDead skips a health revival of a node an operator added after the
// probes that called for it.
var errNotDead = errors.New("cluster: node no longer dead")

// admit returns a node: into the ring, except that a health revival leaves
// a drained node drained. It first takes a full inventory; if a listing
// fails, nothing changes. A node the health loop declared dead then
// applies rule 1: its copies of every session a listed node now holds
// are deleted, since they predate the failover and the promoted copy has
// served clients since. A restarted copy can even carry a higher watermark
// than the promoted one (the replica lagged) while holding a different
// history, so no watermark can settle this. If a delete fails, the node
// stays dead. Callers hold workMu.
func (p *Proxy) admit(ctx context.Context, node string, revival bool) error {
	p.mu.Lock()
	st := p.nodes[node]
	if st == nil {
		p.mu.Unlock()
		return errUnknownNode(node)
	}
	dead := st.dead
	p.mu.Unlock()
	if revival && !dead {
		return errNotDead
	}
	served, err := p.inventory(ctx)
	if err != nil {
		return err
	}
	if dead {
		own, err := p.listNode(ctx, node, p.adminAuth())
		if err != nil {
			return err
		}
		for _, s := range own {
			if len(served[s.ID]) == 0 {
				continue // the only copy left comes back with its node
			}
			if err := p.deleteSession(ctx, node, s.ID); err != nil {
				return fmt.Errorf("cluster: deleting %s's superseded copy of %s: %w", node, s.ID, err)
			}
			p.log.Info("deleted a returning node's superseded copy", "node", node, "token", s.ID, "seq", s.MutSeq)
		}
	}
	p.mu.Lock()
	st.dead = false
	st.fails, st.succs = 0, 0
	if !revival || !st.drained {
		st.live, st.drained = true, false
		p.ring = p.ring.Add(node)
		p.markSettlingLocked()
	}
	p.mu.Unlock()
	return nil
}

// probe is one health check; any 200 /healthz within the cadence counts.
func (p *Proxy) probe(node string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.HealthEvery)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// AddNode grows the ring by one live node and rebalances sessions onto it.
// The node must be in the configured set (static membership: the health
// loop only probes configured nodes). It is the test- and operator-driven
// twin of a health-loop revival, so it skips the hysteresis — the operator
// has asserted the node is fit — but not rule 1, nor the full inventory
// rule 1 and the rebalance need (see admit).
func (p *Proxy) AddNode(ctx context.Context, node string) error {
	p.workMu.Lock()
	defer p.workMu.Unlock()
	if err := p.admit(ctx, node, false); err != nil {
		return err
	}
	return p.rebalance(ctx)
}

// RemoveNode gracefully drains a node: it leaves the ring first (new
// sessions avoid it), then the rebalance migrates every session it holds
// to its new ring owner. The node stays up and healthy throughout — this
// is the planned-maintenance path, not the crash path. A drain that cannot
// list every copy cannot be planned, so the node then stays in the ring
// and the error says why. A node already declared dead stays dead: its
// copies are not listed until it returns and sheds them (see admit).
func (p *Proxy) RemoveNode(ctx context.Context, node string) error {
	p.workMu.Lock()
	defer p.workMu.Unlock()
	p.mu.Lock()
	st := p.nodes[node]
	p.mu.Unlock()
	if st == nil {
		return errUnknownNode(node)
	}
	if _, err := p.inventory(ctx); err != nil {
		return fmt.Errorf("cluster: draining %s: %w", node, err)
	}
	p.mu.Lock()
	st.live = false
	// A drained node stays out until AddNode: it is still healthy, and the
	// health loop must not re-admit it on the next probe.
	st.drained = true
	p.ring = p.ring.Remove(node)
	p.markSettlingLocked()
	p.mu.Unlock()
	return p.rebalance(ctx)
}

type errUnknownNode string

func (e errUnknownNode) Error() string { return "cluster: unknown node " + string(e) }

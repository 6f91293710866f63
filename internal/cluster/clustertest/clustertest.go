// Package clustertest boots a real multi-node gdrd cluster inside one test
// process — the inproc rig: K genuine server.Server instances (cluster
// mode, each with its own snapshot directory) listening on loopback ports,
// fronted by a real cluster.Proxy. Tests drive oracle repair traffic
// through the proxy, inject ring changes (graceful drains, node crashes, fault-injected
// migrations) mid-session, and assert that a migrated session remains
// byte-identical to an unmigrated control at the same trace point — the
// equivalence bar that proves live migration safe.
package clustertest

import (
	"context"
	"log/slog"
	"net/http"
	"os"
	"testing"
	"time"

	"gdr/internal/cluster"
	"gdr/internal/cluster/inproc"
)

// Options shapes a test cluster (see inproc.Options).
type Options = inproc.Options

// Node is one booted gdrd server (see inproc.Node).
type Node = inproc.Node

// Cluster is the booted rig: nodes, proxy, and the proxy's front door.
type Cluster struct {
	tb    testing.TB
	rig   *inproc.Cluster
	Nodes []*Node
	Proxy *cluster.Proxy
}

// quietLogger drops everything — booted and killed servers' routine
// lifecycle chatter would bury test output.
func quietLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }

// Start boots the rig and registers cleanup on tb.
func Start(tb testing.TB, opts Options) *Cluster {
	tb.Helper()
	rig, err := inproc.Start(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(rig.Close)
	return &Cluster{tb: tb, rig: rig, Nodes: rig.Nodes, Proxy: rig.Proxy}
}

// URL is the cluster's front door — clients talk only to the proxy.
func (c *Cluster) URL() string { return c.rig.Gateway }

// Client returns the HTTP client the drives use against the gateway.
func (c *Cluster) Client() *http.Client { return http.DefaultClient }

// Kill makes node i drop off the network abruptly, like a crashed process:
// its listener closes mid-flight and nothing drains. The node's snapshot
// directory survives, and Restart brings it back.
func (c *Cluster) Kill(i int) { c.rig.Kill(i) }

// KillAndWipe is the shared-nothing crash: node i drops off the network
// AND its snapshot directory is destroyed. Nothing of the node survives,
// so recovery must come from the replicas the proxy pushed to the other
// nodes.
func (c *Cluster) KillAndWipe(i int) {
	c.tb.Helper()
	c.Kill(i)
	if err := os.RemoveAll(c.Nodes[i].DataDir); err != nil {
		c.tb.Fatalf("clustertest: wiping %s: %v", c.Nodes[i].DataDir, err)
	}
}

// WaitReady blocks until the gateway's /readyz reports ready — no
// migration in flight, and a settle pass has run since the last ring
// change — or the deadline passes.
func (c *Cluster) WaitReady(deadline time.Duration) {
	c.tb.Helper()
	end := time.Now().Add(deadline)
	for {
		resp, err := http.Get(c.URL() + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(end) {
			c.tb.Fatal("clustertest: gateway never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Restart boots a replacement server for a killed node on the same
// address and data dir — the "replacement node" heal path. The health loop
// re-admits it once it answers probes.
func (c *Cluster) Restart(i int) {
	c.tb.Helper()
	if err := c.rig.Restart(i); err != nil {
		c.tb.Fatalf("clustertest: restarting node %d: %v", i, err)
	}
}

// Drain gracefully removes node i from the ring, migrating its sessions.
func (c *Cluster) Drain(ctx context.Context, i int) error {
	return c.Proxy.RemoveNode(ctx, c.Nodes[i].URL)
}

// AddBack re-admits a drained node and rebalances onto it.
func (c *Cluster) AddBack(ctx context.Context, i int) error {
	return c.Proxy.AddNode(ctx, c.Nodes[i].URL)
}

// Owner returns the index of the node currently owning a token on the
// ring, or -1.
func (c *Cluster) Owner(token string) int { return c.rig.Owner(token) }

// WaitRing blocks until the ring's live member count reaches want (the
// health loop runs asynchronously) or the deadline passes.
func (c *Cluster) WaitRing(want int, deadline time.Duration) {
	c.tb.Helper()
	end := time.Now().Add(deadline)
	for {
		if c.Proxy.Ring().Len() == want {
			return
		}
		if time.Now().After(end) {
			c.tb.Fatalf("clustertest: ring never reached %d live nodes (have %d)", want, c.Proxy.Ring().Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

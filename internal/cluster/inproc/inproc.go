// Package inproc boots a real multi-node gdrd cluster inside one process:
// N genuine server.Server instances (cluster mode, each with its own
// snapshot directory) listening on loopback ports, fronted by a real
// cluster.Proxy behind a loopback gateway. It is the one in-process
// cluster rig: the clustertest drives wrap it for tests, and gdrload
// -proxy drives load through it. Nodes can be killed (abruptly, disk
// intact) and restarted on the same address and data dir.
package inproc

import (
	"errors"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"gdr/internal/cluster"
	"gdr/internal/core"
	"gdr/internal/faultfs"
	"gdr/internal/server"
)

// Options shapes a cluster.
type Options struct {
	// N is the node count (default 3).
	N int
	// Workers is each node's CPU-slot budget (default 2).
	Workers int
	// SessionWorkers is each session's intra-request fan-out (default 1).
	SessionWorkers int
	// Faults plugs a proxy-side injector into the migration machinery.
	Faults *faultfs.Injector
}

// Node is one booted gdrd server.
type Node struct {
	URL     string
	DataDir string

	addr string
	srv  *server.Server
	hs   *http.Server // nil while killed
	boot *boot        // the handlers of the current boot
}

// Live reports whether the node is serving: booted and not killed since.
func (n *Node) Live() bool { return n.hs != nil }

// boot counts the requests one boot of a node is handling, so Kill can
// wait for them: http.Server.Close does not wait for running handlers, and
// a handler still writing into the data dir would race a wipe. A request
// that reaches a killed boot's handler is dropped unanswered.
type boot struct {
	mu      sync.Mutex
	killed  bool // gdr:guarded-by mu
	running sync.WaitGroup
}

func (b *boot) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.mu.Lock()
		if b.killed {
			b.mu.Unlock()
			panic(http.ErrAbortHandler) // a dead process answers nothing
		}
		// Add only under mu while not killed: Kill waits only after it set
		// killed, so no Add can race the Wait.
		b.running.Add(1)
		b.mu.Unlock()
		defer b.running.Done()
		next.ServeHTTP(w, r)
	})
}

// Cluster is the booted rig: nodes, proxy, and the proxy's front door.
type Cluster struct {
	Nodes []*Node
	Proxy *cluster.Proxy
	// Gateway is the base URL clients talk to — the proxy, never a node.
	Gateway string

	opts Options
	dir  string // parent of the node data dirs
	gw   *http.Server
}

// Start boots the nodes, the proxy (its membership loop on a fast test
// cadence) and the gateway. Close tears it all down.
func Start(opts Options) (*Cluster, error) {
	if opts.N <= 0 {
		opts.N = 3
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.SessionWorkers <= 0 {
		opts.SessionWorkers = 1
	}
	dir, err := os.MkdirTemp("", "gdr-cluster-*")
	if err != nil {
		return nil, err
	}
	c := &Cluster{opts: opts, dir: dir}
	urls := make([]string, opts.N)
	for i := range urls {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, err
		}
		n := &Node{
			URL:     "http://" + ln.Addr().String(),
			DataDir: filepath.Join(dir, "node"+strconv.Itoa(i)),
			addr:    ln.Addr().String(),
		}
		c.Nodes = append(c.Nodes, n)
		c.serve(n, ln)
		urls[i] = n.URL
	}
	p, err := cluster.New(cluster.Config{
		Nodes:       urls,
		HealthEvery: 50 * time.Millisecond,
		FailAfter:   2,
		SettleGrace: 250 * time.Millisecond,
		Logger:      slog.New(slog.DiscardHandler),
		Faults:      opts.Faults,
	})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.Proxy = p
	p.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		return nil, err
	}
	c.gw = &http.Server{Handler: p.Handler()}
	go func() { _ = c.gw.Serve(ln) }()
	c.Gateway = "http://" + ln.Addr().String()
	return c, nil
}

// serve boots a gdrd for node n on ln, restoring whatever its data dir
// holds. Every boot — first start or restart — uses the same config.
func (c *Cluster) serve(n *Node, ln net.Listener) {
	n.srv = server.New(server.Config{
		ClusterMode: true,
		DataDir:     n.DataDir,
		Workers:     c.opts.Workers,
		MaxSessions: -1,
		TTL:         time.Hour,
		Session:     core.Config{Workers: c.opts.SessionWorkers},
		Logger:      slog.New(slog.DiscardHandler),
	})
	n.boot = &boot{}
	n.hs = &http.Server{Handler: n.boot.handler(n.srv.Handler())}
	hs := n.hs
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
			// The rig closes listeners on purpose; anything else is worth
			// surfacing.
			os.Stderr.WriteString("inproc: node serve: " + err.Error() + "\n")
		}
	}()
}

// Kill makes node i drop off the network abruptly, like a crashed process:
// its listener closes mid-flight and nothing drains, and Kill returns once
// the killed boot's handlers have all exited. Its data dir survives, so
// Restart brings back what it last checkpointed.
func (c *Cluster) Kill(i int) {
	n := c.Nodes[i]
	if n.hs == nil {
		return
	}
	n.boot.mu.Lock()
	n.boot.killed = true
	n.boot.mu.Unlock()
	_ = n.hs.Close()
	n.srv.Close()
	n.boot.running.Wait()
	n.hs = nil
}

// Restart boots a replacement server for a killed node on the same
// address and data dir. The proxy's health loop re-admits it once it
// answers probes.
func (c *Cluster) Restart(i int) error {
	n := c.Nodes[i]
	if n.hs != nil {
		return errors.New("inproc: restart of a live node")
	}
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		return err
	}
	c.serve(n, ln)
	return nil
}

// Owner returns the index of the node currently owning a token on the
// ring, or -1.
func (c *Cluster) Owner(token string) int {
	owner := c.Proxy.Ring().Lookup(token)
	for i, n := range c.Nodes {
		if n.URL == owner {
			return i
		}
	}
	return -1
}

// Close tears the whole rig down and removes the node data dirs.
func (c *Cluster) Close() {
	if c.gw != nil {
		_ = c.gw.Close()
		c.gw = nil
	}
	if c.Proxy != nil {
		c.Proxy.Close()
		c.Proxy = nil
	}
	for i := range c.Nodes {
		c.Kill(i)
	}
	_ = os.RemoveAll(c.dir)
}

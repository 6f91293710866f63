// Command gdrproxy is the cluster front door: a stateless routing gateway
// that consistent-hashes session tokens across a static set of gdrd nodes
// and migrates sessions live when the ring changes. Clients talk to the
// proxy exactly as they would to a single gdrd — the full /v1 session API
// is forwarded verbatim, streaming bodies included, with tenant auth
// passed through — and never see which node holds their session.
//
//	gdrd     -addr 127.0.0.1:9001 -cluster -data-dir /var/lib/gdrd/n1 &
//	gdrd     -addr 127.0.0.1:9002 -cluster -data-dir /var/lib/gdrd/n2 &
//	gdrproxy -addr :8080 -nodes http://127.0.0.1:9001,http://127.0.0.1:9002
//
// Membership is the -nodes list plus a health loop: a node failing
// -fail-after consecutive probes leaves the ring, and a recovered node
// rejoins (after -fail-after consecutive clean probes — symmetric
// hysteresis, so a flapping node cannot thrash the ring) with a
// rebalance. Session moves use the nodes' own snapshot machinery — drain,
// export, import under the original token, delete the source — so a
// migrated session is byte-identical to one that never moved.
//
// Sessions survive node loss shared-nothing: a create answers only once
// the session's first replica has landed in the replica spill store of the
// next distinct ring node; after every later mutating round the proxy
// pushes the snapshot again, watermarked with its mutation sequence, and
// an anti-entropy sweep on every health tick re-pushes anything missing or
// lagging. When a node dies, its sessions are promoted from the freshest
// surviving replicas — the proxy never reads a node's disk. Those later
// pushes are asynchronous, so a node lost for good takes with it the
// rounds since its last landed push (gdrd_replica_lag_rounds).
//
// One rule decides which copy of a session is real, re-derived from the
// nodes' own listings on every health tick, so nothing of it is lost when
// the proxy restarts. A node returning from the dead first loses its
// copies of every session another node serves: they predate the failover.
// Any other duplicate (a move's leftover, a drained node's copy) loses to
// the copy with the higher mutation watermark, and among equal watermarks
// the routed copy stays. The rule acts only when every node not declared
// dead has listed its sessions; while one cannot, nothing is deleted or
// re-routed.
//
// Against keyfile-authenticated nodes, -admin-key (or -admin-key-file)
// must name an admin tenant's key: the proxy uses it for its own
// migration and replication traffic, and the nodes gate the placement
// headers on it. Client requests keep their own Authorization headers
// either way.
//
// The proxy's own surface: GET /healthz (ring version, per-node health),
// GET /readyz (the load-balancer signal — 503 while a failover or
// migration is in flight or the ring just changed), and GET /metrics
// (per-node request counts, migration counts and latency, replica
// pushes/promotions, ring version) — all served locally, never
// forwarded.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gdr/internal/cluster"
	"gdr/internal/obs"
)

// options carries the proxy's flag values.
type options struct {
	addr         string
	nodes        string
	vnodes       int
	healthEvery  time.Duration
	failAfter    int
	settleGrace  time.Duration
	adminKey     string
	adminKeyFile string
	drain        time.Duration
	logFormat    string
	logLevel     string
}

func main() {
	var opts options
	flag.StringVar(&opts.addr, "addr", ":8080", "listen address")
	flag.StringVar(&opts.nodes, "nodes", "", "comma-separated gdrd base URLs, e.g. http://127.0.0.1:9001,http://127.0.0.1:9002")
	flag.IntVar(&opts.vnodes, "vnodes", 0, "virtual nodes per node on the hash ring (0 = default)")
	flag.DurationVar(&opts.healthEvery, "health-every", 500*time.Millisecond, "membership probe cadence")
	flag.IntVar(&opts.failAfter, "fail-after", 3, "consecutive failed probes before a node is declared dead")
	flag.DurationVar(&opts.settleGrace, "settle-grace", 2*time.Second, "window after a ring change in which upstream 404s answer as retryable 503s")
	flag.StringVar(&opts.adminKey, "admin-key", "", "admin bearer key the proxy presents for migration traffic (keyfile-authenticated nodes)")
	flag.StringVar(&opts.adminKeyFile, "admin-key-file", "", "file holding the admin key (first line; overrides -admin-key)")
	flag.DurationVar(&opts.drain, "drain", 30*time.Second, "graceful shutdown timeout")
	flag.StringVar(&opts.logFormat, "log-format", "text", "log output format: text|json")
	flag.StringVar(&opts.logLevel, "log-level", "info", "minimum log level: debug|info|warn|error")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts, nil); err != nil {
		fmt.Fprintln(os.Stderr, "gdrproxy:", err)
		os.Exit(1)
	}
}

// splitList parses a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// loadAdminKey resolves the admin key from the flags.
func loadAdminKey(opts options) (string, error) {
	if opts.adminKeyFile == "" {
		return opts.adminKey, nil
	}
	data, err := os.ReadFile(opts.adminKeyFile)
	if err != nil {
		return "", fmt.Errorf("admin key file: %w", err)
	}
	key, _, _ := strings.Cut(string(data), "\n")
	if key = strings.TrimSpace(key); key == "" {
		return "", fmt.Errorf("admin key file %s is empty", opts.adminKeyFile)
	}
	return key, nil
}

// run serves until ctx is cancelled, then drains. ready (optional) receives
// the bound address once listening — tests bind :0 and need the real port.
func run(ctx context.Context, opts options, ready chan<- string) error {
	logger, err := obs.NewLogger(os.Stderr, opts.logFormat, opts.logLevel)
	if err != nil {
		return err
	}
	nodes := splitList(opts.nodes)
	if len(nodes) == 0 {
		return fmt.Errorf("need -nodes (comma-separated gdrd base URLs)")
	}
	adminKey, err := loadAdminKey(opts)
	if err != nil {
		return err
	}
	p, err := cluster.New(cluster.Config{
		Nodes:       nodes,
		VNodes:      opts.vnodes,
		AdminKey:    adminKey,
		HealthEvery: opts.healthEvery,
		FailAfter:   opts.failAfter,
		SettleGrace: opts.settleGrace,
		Logger:      logger,
	})
	if err != nil {
		return err
	}
	p.Start()
	defer p.Close()

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           p.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	logger.Info(fmt.Sprintf("gdrproxy: serving on %s", ln.Addr()),
		"nodes", len(nodes), "vnodes", opts.vnodes,
		"health_every", opts.healthEvery, "fail_after", opts.failAfter, "admin", adminKey != "")

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("gdrproxy: draining", "timeout", opts.drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), opts.drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("gdrproxy: drained, bye")
	return nil
}

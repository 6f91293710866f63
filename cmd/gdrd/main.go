// Command gdrd serves guided-repair sessions over HTTP — the multi-tenant
// daemon around the paper's interactive Figure 2 loop. Tenants upload a
// dirty CSV instance plus CFD rules, then drive the repair loop remotely:
// ranked groups, per-group updates, batched confirm/reject/retain feedback,
// status and CSV export. See the README's "Serving repairs" section.
//
//	gdrd -addr :8080 -max-sessions 64 -ttl 30m -data-dir /var/lib/gdrd
//
// A session's mutations are its feedback rounds and its random-order
// groups polls; the 200 of each carries the session's new mutation
// watermark in X-Gdr-Mutation-Seq. With -data-dir set, sessions are
// durable: every mutation is checkpointed to disk before it answers, the
// SIGTERM drain flushes a final checkpoint of every live session, and a
// restarted daemon restores all sessions under their original tokens —
// tenants resume exactly where they left off.
//
// Feedback is exactly-once: a POST …/feedback carrying an
// X-Gdr-Request-Id is applied once, and a retry with the same id replays
// the original response bytes (marked X-Gdr-Duplicate: true) instead of
// mutating the session again. The dedup window rides the snapshot, so
// the guarantee holds across restarts and migrations.
//
// In -cluster mode each node also exposes a replica spill store under
// /v1/replicas: the cluster proxy pushes other nodes' session snapshots
// there, watermarked by mutation sequence (stale writes are refused), so
// a session survives the loss of its owner's process and disk.
//
// With -keyfile set, the daemon is authenticated multi-tenant serving:
// every request to a /v1 route must present one of the file's bearer
// keys, sessions belong to the tenant that created them, and each
// tenant's rate/in-flight quotas (from the keyfile) shed the excess with
// 429 + Retry-After. CPU is scheduled fairly across tenants either way,
// -deadline bounds each request end to end, and -queue-depth bounds each
// session's command backlog.
//
// Observability: every request to an API route is traced end to end,
// always (W3C traceparent accepted and echoed; the response carries a
// Server-Timing stage breakdown, and every span feeds the
// gdrd_stage_seconds histograms on /metrics under the label the route
// table gives the route), logs are structured (-log-format text|json,
// -log-level, every traced request line tagged with its trace_id), the
// probes are not traced, a request no route matches gets a 404 or 405
// and is neither counted nor logged, and completed traces are
// browsable at GET /debug/traces — served loopback-only on the main
// listener, and also mounted on the -pprof debug port. -slow-request
// escalates slow requests to warn-level log lines.
//
// With -pprof PORT, net/http/pprof (plus /debug/traces) is served on
// 127.0.0.1:PORT — loopback only, segregated from the service listener — so
// a live daemon can be profiled (CPU, heap, goroutines) without exposing
// the endpoints to tenants.
//
// The daemon drains gracefully on SIGINT/SIGTERM: in-flight requests and
// session commands finish, checkpoints flush, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"gdr/internal/obs"
	"gdr/internal/server"
)

// options carries the daemon's flag values.
type options struct {
	addr        string
	maxSessions int
	ttl         time.Duration
	workers     int
	drain       time.Duration
	quiet       bool
	dataDir     string
	checkpoint  time.Duration
	pprofPort   int
	keyfile     string
	deadline    time.Duration
	queueDepth  int
	logFormat   string
	logLevel    string
	slowReq     time.Duration
	cluster     bool
}

func main() {
	var opts options
	flag.StringVar(&opts.addr, "addr", ":8080", "listen address")
	flag.IntVar(&opts.maxSessions, "max-sessions", 64, "cap on live sessions (-1 = uncapped)")
	flag.DurationVar(&opts.ttl, "ttl", 30*time.Minute, "idle session time-to-live")
	flag.IntVar(&opts.workers, "workers", runtime.GOMAXPROCS(0), "CPU slots shared by all sessions")
	flag.DurationVar(&opts.drain, "drain", 30*time.Second, "graceful shutdown timeout")
	flag.BoolVar(&opts.quiet, "quiet", false, "suppress per-request log lines (warnings still log)")
	flag.StringVar(&opts.dataDir, "data-dir", "", "directory for durable session snapshots (empty = sessions die with the process)")
	flag.DurationVar(&opts.checkpoint, "checkpoint", 30*time.Second, "periodic checkpoint-retry cadence (with -data-dir)")
	flag.IntVar(&opts.pprofPort, "pprof", 0, "serve net/http/pprof and /debug/traces on 127.0.0.1:PORT (0 = disabled)")
	flag.StringVar(&opts.keyfile, "keyfile", "", "tenant keyfile enabling auth + per-tenant quotas (empty = open mode)")
	flag.DurationVar(&opts.deadline, "deadline", time.Minute, "per-request deadline; a command still waiting for its session's turn or CPU slots when it expires is shed with 503 (0 = none)")
	flag.IntVar(&opts.queueDepth, "queue-depth", 64, "per-session command queue bound; the excess is shed with 503")
	flag.StringVar(&opts.logFormat, "log-format", "text", "log output format: text|json")
	flag.StringVar(&opts.logLevel, "log-level", "info", "minimum log level: debug|info|warn|error")
	flag.DurationVar(&opts.slowReq, "slow-request", time.Second, "log requests at least this slow at warn level (0 = disabled)")
	flag.BoolVar(&opts.cluster, "cluster", false, "cluster-node mode: honor the gdrproxy placement headers (bind -addr to an internal interface)")
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts, nil); err != nil {
		fmt.Fprintln(os.Stderr, "gdrd:", err)
		os.Exit(1)
	}
}

// minLevelHandler raises the minimum level of an inner slog handler —
// -quiet keeps the daemon's own lifecycle logs but silences the per-request
// info lines by handing the server a warn-floored view of the same logger.
type minLevelHandler struct {
	slog.Handler
	min slog.Level
}

func (h minLevelHandler) Enabled(ctx context.Context, l slog.Level) bool {
	return l >= h.min && h.Handler.Enabled(ctx, l)
}

func (h minLevelHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return minLevelHandler{h.Handler.WithAttrs(attrs), h.min}
}

func (h minLevelHandler) WithGroup(name string) slog.Handler {
	return minLevelHandler{h.Handler.WithGroup(name), h.min}
}

// run serves until ctx is cancelled, then drains. ready (optional) receives
// the bound address once listening — tests bind :0 and need the real port.
func run(ctx context.Context, opts options, ready chan<- string) error {
	logger, err := obs.NewLogger(os.Stderr, opts.logFormat, opts.logLevel)
	if err != nil {
		return err
	}
	serverLog := logger
	if opts.quiet {
		serverLog = slog.New(minLevelHandler{logger.Handler(), slog.LevelWarn})
	}
	var tenants []server.TenantConfig
	if opts.keyfile != "" {
		if tenants, err = server.LoadKeyfile(opts.keyfile); err != nil {
			return fmt.Errorf("keyfile: %w", err)
		}
	}
	srv := server.New(server.Config{
		MaxSessions:     opts.maxSessions,
		TTL:             opts.ttl,
		Workers:         opts.workers,
		Logger:          serverLog,
		DataDir:         opts.dataDir,
		CheckpointEvery: opts.checkpoint,
		Tenants:         tenants,
		RequestTimeout:  opts.deadline,
		QueueDepth:      opts.queueDepth,
		SlowRequest:     opts.slowReq,
		ClusterMode:     opts.cluster,
	})
	defer srv.Close()
	if opts.pprofPort != 0 {
		stopDebug, err := startDebug(opts.pprofPort, srv, logger)
		if err != nil {
			return err
		}
		defer stopDebug()
	}

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	// Slow-client timeouts: a stalled peer must release its connection
	// goroutine instead of holding server state hostage. The write timeout
	// sits above the request deadline so it only fires for clients that
	// stop reading the response, not for slow repairs.
	writeTimeout := 2 * opts.deadline
	if opts.deadline <= 0 {
		writeTimeout = 0
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	logger.Info(fmt.Sprintf("gdrd: serving on %s", ln.Addr()),
		"max_sessions", opts.maxSessions, "ttl", opts.ttl, "workers", opts.workers,
		"data_dir", opts.dataDir, "tenants", len(tenants), "deadline", opts.deadline,
		"sessions", srv.Store().Len(), "log_format", opts.logFormat)

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("gdrd: draining", "timeout", opts.drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), opts.drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	srv.Close() // stop actors only after in-flight requests completed; flushes final checkpoints
	logger.Info("gdrd: drained, bye")
	return nil
}

// startDebug mounts net/http/pprof and the trace browser on a loopback-only
// port, segregated from the service listener so debug endpoints are never
// reachable through whatever exposure -addr has. The explicit mux avoids the
// pprof package's DefaultServeMux registrations leaking into anything else.
// It returns a stop function closing the listener.
func startDebug(port int, srv *server.Server, logger *slog.Logger) (func(), error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/traces", srv.TracesHandler())
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	logger.Info(fmt.Sprintf("gdrd: debug endpoints on http://%s/debug/", ln.Addr()))
	go func() {
		if err := http.Serve(ln, mux); err != nil && !errors.Is(err, net.ErrClosed) {
			logger.Warn("gdrd: debug server failed", "err", err)
		}
	}()
	return func() { _ = ln.Close() }, nil
}

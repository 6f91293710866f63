// Package server exposes guided-repair sessions over an HTTP/JSON API — the
// serving tier the paper's interactive Figure 2 loop needs to face real
// users. A Server owns a session store (create-from-CSV-upload, token
// lookup, TTL eviction, capped live count); each core.Session, single-writer
// by design, runs one command at a time, each on its caller's goroutine
// under the session's first-come-first-served turn, so concurrent HTTP
// traffic is safe with no locks on the repair hot paths, and CPU across all
// sessions is budgeted by the Workers knob.
//
// Endpoints (see the README's "Serving repairs" section for a walkthrough):
//
//	POST   /v1/sessions                          create (CSV + rules upload, or a snapshot)
//	GET    /v1/sessions                          list live sessions
//	GET    /v1/sessions/{id}/groups              ranked groups (?order=voi|greedy|random);
//	                                             ETag + If-None-Match → 304 while unchanged
//	GET    /v1/sessions/{id}/groups/{key}/updates  one group's live updates
//	POST   /v1/sessions/{id}/feedback            batched confirm/reject/retain
//	GET    /v1/sessions/{id}/status              pending/dirty counts, model trust
//	GET    /v1/sessions/{id}/export              download the instance as CSV
//	POST   /v1/sessions/{id}/snapshot            download a binary session snapshot
//	DELETE /v1/sessions/{id}                     close a session
//	PUT    /v1/replicas/{key}                    store a replica snapshot (cluster/admin only,
//	                                             X-Gdr-Mutation-Seq watermarked; stale → 409)
//	GET    /v1/replicas/{key}                    fetch a held replica (failover pull)
//	DELETE /v1/replicas/{key}                    drop a held replica
//	GET    /v1/replicas                          list held replicas
//	GET    /healthz                              liveness
//	GET    /metrics                              Prometheus text exposition
//
// A session's mutations are its feedback rounds and its random-order groups
// polls. One step makes each (Store.mutate, inside the command): it
// advances the session's mutation sequence, and the mutation's 200 carries
// the value reached in X-Gdr-Mutation-Seq.
//
// With Config.DataDir set, sessions are durable: every mutation is
// checkpointed to disk before it answers (temp-file + rename, so a crash
// never leaves a torn snapshot), a periodic flusher retries failed writes
// with backoff, shutdown flushes a final checkpoint of every live session,
// and a restarting server restores all sessions under their original
// tokens. Checkpoints and the replicas a node holds for others share one
// snapshot store: one <key>.snap file per session key ([tenant@]token),
// sessions in the data directory and replicas in its replicas/
// subdirectory, each replaced by a rename. A replica's watermark is the one
// its snapshot carries. The boot scan loads only well-formed keys and
// deletes the temp files a crash left.
//
// A session has one way into the store and one way out. Upload, snapshot
// import and boot restore all enter through one admit step (token and cap
// reservation, a build under CPU slots, publication at the snapshot's
// watermark), so a file restored at boot meets the same token check, cap
// and config limits as an upload; a token that two files name is restored
// from neither. Delete, lazy eviction and the janitor all leave through
// one retire step, and one background goroutine runs the janitor and the
// checkpoint flusher.
//
// With Config.Tenants set, the server is multi-tenant: requests authenticate
// with per-tenant bearer keys, sessions are owned by (and visible to only)
// their tenant, and each tenant is admission-controlled by a token-bucket
// request rate and an in-flight cap. Overload is shed early — 429/503 with
// Retry-After, never a blocked accept loop — and CPU slots are granted
// fairly across tenants so one hot tenant cannot starve the rest.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"time"

	"gdr/internal/core"
	"gdr/internal/faultfs"
	"gdr/internal/metrics"
	"gdr/internal/obs"
)

// Upload and capacity errors, mapped to HTTP statuses by the handlers.
var (
	// ErrBadUpload wraps any client-side problem with a create request.
	ErrBadUpload = errors.New("server: bad upload")
	// ErrBadRequest wraps malformed parameters on non-upload endpoints
	// (bad order/limit values, malformed group keys, bad feedback bodies).
	ErrBadRequest = errors.New("server: bad request")
	// ErrTooManySessions is returned when the live-session cap is reached.
	ErrTooManySessions = errors.New("server: too many live sessions")
	// ErrTokenInUse rejects a create that pre-assigns an already-live
	// token (mapped to 409 — the cluster proxy's duplicate detector).
	ErrTokenInUse = errors.New("server: session token already in use")
	// ErrForbidden rejects placement headers (X-GDR-Assign-*) from callers
	// that may not use them (mapped to 403).
	ErrForbidden = errors.New("server: forbidden")
	// ErrOverloaded is the sentinel every load-shedding error matches
	// (errors.Is); the concrete errors carry the HTTP status and Retry-After
	// hint.
	ErrOverloaded = errors.New("server: overloaded")
)

// tokenInUseError is ErrTokenInUse from a create that hit a live session.
// It carries that copy's mutation watermark, which the 409 reports in
// MutationSeqHeader so a migrating proxy can tell an older copy from a
// newer one.
type tokenInUseError struct{ seq uint64 }

func (e tokenInUseError) Error() string { return ErrTokenInUse.Error() }
func (e tokenInUseError) Unwrap() error { return ErrTokenInUse }

// Config tunes a Server. The zero value serves with sane defaults.
type Config struct {
	// MaxSessions caps concurrently live sessions (default 64; <0 = no cap).
	MaxSessions int
	// TTL evicts sessions idle for longer (default 30m).
	TTL time.Duration
	// Workers is the CPU slot budget shared by all session actors and
	// session creation (default GOMAXPROCS). Slots are granted fairly
	// across tenants.
	Workers int
	// Session provides per-session defaults; uploads override Seed and
	// (clamped) Workers. Session.Workers defaults to 1 — the server scales
	// across sessions.
	Session core.Config
	// Logger receives the server's structured logs (nil = silent).
	Logger *slog.Logger
	// Trace tunes request tracing, which is always on: every span a request
	// records feeds gdrd_stage_seconds. The zero value keeps a ring of the
	// last 256 finished traces plus the slowest 32 for /debug/traces.
	Trace obs.Config
	// SlowRequest promotes requests at least this slow to warn-level log
	// lines (0 disables the slow-request escalation).
	SlowRequest time.Duration
	// MaxBodyBytes bounds request bodies (default 32 MiB).
	MaxBodyBytes int64
	// DataDir enables durable sessions: every live session is checkpointed
	// into this directory (one <key>.snap file each, key [tenant@]token)
	// and restored on the next boot; held replicas go to its replicas/
	// subdirectory the same way. Empty disables persistence.
	DataDir string
	// CheckpointEvery is the cadence of the periodic flusher that retries
	// checkpoints for sessions whose on-mutation write failed (default 30s;
	// only meaningful with DataDir set). A mutation (a feedback round, a
	// random-order poll) checkpoints synchronously — the flusher is the
	// safety net, not the main path.
	CheckpointEvery time.Duration
	// Tenants enables authentication and per-tenant admission control: every
	// request to a /v1 route must present one of these bearer keys, sessions
	// belong to the tenant that created them, and each tenant's
	// rate/in-flight limits are enforced before any session work happens.
	// Empty = open mode (no auth, one implicit unlimited tenant).
	Tenants []TenantConfig
	// RequestTimeout bounds each request end to end; the deadline rides the
	// request context while a command waits for its session's turn and CPU
	// slots, so a command that waited past it is dropped (503 + Retry-After)
	// before it spends CPU slots. 0 disables the server-side deadline.
	RequestTimeout time.Duration
	// QueueDepth bounds how many commands may wait for a session's turn
	// while one runs (default 64); commands beyond it are shed with 503 +
	// Retry-After instead of queued.
	QueueDepth int
	// Faults, when set, injects failures/delays at named points (checkpoint
	// write/fsync/rename, session command execution) for tests. nil = no
	// injection.
	Faults *faultfs.Injector
	// ClusterMode marks this node as a member of a proxied cluster: the
	// X-GDR-Assign-Token and X-GDR-Assign-Tenant create headers are honored
	// from any caller, letting the routing proxy place sessions on their
	// ring owner and preserve token + tenant across migrations. Only enable
	// on nodes reachable solely through the proxy (or grant the proxy an
	// admin key instead and leave this off).
	ClusterMode bool
}

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.MaxSessions < 0 {
		c.MaxSessions = 0 // uncapped
	}
	if c.TTL <= 0 {
		c.TTL = 30 * time.Minute
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Session.Workers < 1 {
		c.Session.Workers = 1
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 30 * time.Second
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = defaultQueueDepth
	}
	return c
}

// Server is the gdrd HTTP service.
type Server struct {
	cfg           Config
	store         *Store
	replicas      *replicaStore
	reg           *metrics.Registry
	log           *slog.Logger
	tracer        *obs.Tracer
	handler       http.Handler
	started       time.Time
	tenants       map[string]*tenantState // by bearer key; empty = open mode
	defaultTenant *tenantState            // the implicit tenant of open mode
}

// logger resolves the configured log sink to one non-nil structured logger.
func (c Config) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return slog.New(slog.DiscardHandler)
}

// New builds a Server ready to serve via Handler.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	// Pre-register the metrics the dashboards scrape, so a fresh server
	// exposes zeros instead of an empty page.
	reg.Gauge("gdrd_sessions_live")
	reg.Gauge("gdrd_actor_queue_depth")
	reg.Counter("gdrd_sessions_created_total")
	reg.Counter("gdrd_sessions_evicted_total")
	reg.Counter("gdrd_http_requests_total")
	reg.Counter("gdrd_http_errors_total")
	reg.Counter("gdrd_auth_failures_total")
	reg.Counter("gdrd_shed_total")
	reg.Counter("gdrd_feedback_total")
	reg.Counter("gdrd_feedback_stale_total")
	reg.Counter("gdrd_feedback_invalid_total")
	reg.Counter("gdrd_learner_decisions_total")
	reg.Counter("gdrd_groups_not_modified_total")
	reg.Counter("gdrd_sessions_restored_total")
	reg.Counter("gdrd_checkpoints_total")
	reg.Counter("gdrd_checkpoint_failures_total")
	reg.Counter("gdrd_feedback_duplicates_total")
	reg.Counter("gdrd_replica_pushes_total")
	reg.Counter("gdrd_replica_stale_pushes_total")
	reg.Gauge("gdrd_replica_lag_rounds")
	reg.Gauge("gdrd_replicas_held")
	reg.Histogram("gdrd_request_seconds")
	reg.Gauge("gdrd_goroutines")
	reg.Gauge("gdrd_heap_alloc_bytes")
	reg.Gauge("gdrd_heap_objects")
	reg.Gauge("gdrd_gc_cycles_total")
	reg.FloatGauge("gdrd_gc_pause_seconds_total")
	reg.LabeledGauge("gdrd_build_info", "go_version", runtime.Version(), "revision", buildRevision()).Set(1)
	// Every span of every finished trace feeds the per-stage latency
	// histograms, the server's one source of stage timings; the label space
	// is bounded (fixed stage names × the labels of the routes New
	// registers).
	tracer := obs.NewTracer(cfg.Trace)
	hists := newStageHists(reg)
	tracer.OnFinish = func(t *obs.Trace) {
		route := t.Route()
		for _, sp := range t.Spans() {
			hists.get(sp.Stage, route).Observe(sp.Dur.Seconds())
		}
	}
	s := &Server{
		cfg:     cfg,
		store:   NewStore(cfg, reg),
		reg:     reg,
		log:     cfg.logger(),
		tracer:  tracer,
		started: time.Now(),
		tenants: make(map[string]*tenantState, len(cfg.Tenants)),
		defaultTenant: &tenantState{
			cfg: TenantConfig{Name: defaultTenantName},
		},
	}
	for _, tc := range cfg.Tenants {
		s.tenants[tc.Key] = &tenantState{
			cfg:    tc,
			bucket: newTokenBucket(tc.RatePerSec, tc.Burst),
		}
	}
	replicaDir := ""
	if cfg.DataDir != "" {
		replicaDir = filepath.Join(cfg.DataDir, "replicas")
	}
	s.replicas = newReplicaStore(replicaDir, cfg.Faults, s.log)
	s.replicaMetrics()
	// Each API route is registered with its label, which its traces and
	// so its stage histograms and log lines carry; a request no pattern
	// matches is answered by the mux (404 or 405) without instrumentation.
	mux := http.NewServeMux()
	api := func(pattern, route string, h http.HandlerFunc) {
		mux.Handle(pattern, s.trace(route, s.instrument(s.admit(s.withDeadline(h)))))
	}
	api("POST /v1/sessions", "create", s.handleCreate)
	api("GET /v1/sessions", "list", s.handleList)
	api("GET /v1/sessions/{id}/groups", "groups", s.handleGroups)
	api("GET /v1/sessions/{id}/groups/{key}/updates", "updates", s.handleUpdates)
	api("POST /v1/sessions/{id}/feedback", "feedback", s.handleFeedback)
	api("GET /v1/sessions/{id}/status", "status", s.handleStatus)
	api("GET /v1/sessions/{id}/export", "export", s.handleExport)
	api("POST /v1/sessions/{id}/snapshot", "snapshot", s.handleSnapshot)
	api("DELETE /v1/sessions/{id}", "delete", s.handleDelete)
	api("PUT /v1/replicas/{key}", "replicas", s.handleReplicaPut)
	api("GET /v1/replicas/{key}", "replicas", s.handleReplicaGet)
	api("DELETE /v1/replicas/{key}", "replicas", s.handleReplicaDelete)
	api("GET /v1/replicas", "replicas", s.handleReplicaList)
	// The probes skip tracing, auth, admission and the deadline: they must
	// answer even when every tenant is over quota, or the orchestrator
	// would restart a healthy overloaded server. The trace debug endpoint
	// is loopback-guarded instead of authenticated.
	mux.Handle("GET /healthz", s.instrument(http.HandlerFunc(s.handleHealthz)))
	mux.Handle("GET /metrics", s.instrument(http.HandlerFunc(s.handleMetrics)))
	mux.Handle("GET /debug/traces", s.instrument(http.HandlerFunc(s.handleTraces)))
	s.handler = mux
	return s
}

// buildRevision is the short VCS revision baked into the binary, for the
// gdrd_build_info metric ("unknown" outside a stamped build).
func buildRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				if len(kv.Value) > 12 {
					return kv.Value[:12]
				}
				return kv.Value
			}
		}
	}
	return "unknown"
}

// Handler returns the fully instrumented HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Registry exposes the server's metrics (for embedding and tests).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Store exposes the session store (for tests and the daemon's drain).
func (s *Server) Store() *Store { return s.store }

// Close drains the store: every actor finishes its in-flight command, a
// final checkpoint of each live session is flushed (with persistence
// enabled), then the actors stop. Call after http.Server.Shutdown has
// stopped new traffic.
func (s *Server) Close() { s.store.Close() }

// statusRecorder captures the response code for logging and metrics, and
// injects the trace's Server-Timing header at the last possible moment —
// when the handler commits the response — so it covers every stage recorded
// up to then.
type statusRecorder struct {
	http.ResponseWriter
	status      int
	trace       *obs.Trace
	wroteHeader bool
	// encodeErr is a response body's encoding error (see writeEncodeError).
	encodeErr error
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.wroteHeader {
		return
	}
	r.wroteHeader = true
	r.status = code
	if st := r.trace.ServerTiming(); st != "" {
		r.Header().Set("Server-Timing", st)
	}
	r.ResponseWriter.WriteHeader(code)
}

// Write catches handlers that never call WriteHeader explicitly (the CSV
// export streams straight into Write), so the Server-Timing injection still
// happens before the implicit 200.
func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wroteHeader {
		r.WriteHeader(http.StatusOK)
	}
	return r.ResponseWriter.Write(b)
}

// traceStages are the span stages gdrd records, and traceRoutes the labels
// of the traced (API) routes New registers.
var (
	traceStages = []string{"admit", "queue", "slot", "exec", "encode", "persist", "write", "fsync", "rename",
		core.PhaseSuggest, core.PhaseRerank, core.PhaseRetrain}
	traceRoutes = []string{"create", "list", "groups", "updates", "feedback", "status", "export",
		"snapshot", "delete", "replicas"}
)

// stageHists holds the gdrd_stage_seconds handle of each traceStages ×
// traceRoutes pair, resolved from the registry once, on the pair's first
// span: registering on first use keeps /metrics listing only the pairs that
// occurred, and later spans neither build a series key nor take the
// registry's lock. Any other pair goes to the registry every time.
type stageHists struct {
	reg   *metrics.Registry
	known []atomic.Pointer[metrics.Histogram] // [stage*len(traceRoutes)+route]
}

func newStageHists(reg *metrics.Registry) *stageHists {
	return &stageHists{reg: reg, known: make([]atomic.Pointer[metrics.Histogram], len(traceStages)*len(traceRoutes))}
}

// get returns the histogram of one stage on one route.
func (s *stageHists) get(stage, route string) *metrics.Histogram {
	si, ri := slices.Index(traceStages, stage), slices.Index(traceRoutes, route)
	if si < 0 || ri < 0 {
		return s.reg.LabeledHistogram("gdrd_stage_seconds", "stage", stage, "route", route)
	}
	slot := &s.known[si*len(traceRoutes)+ri]
	h := slot.Load()
	if h == nil {
		h = s.reg.LabeledHistogram("gdrd_stage_seconds", "stage", stage, "route", route)
		slot.Store(h)
	}
	return h
}

// trace starts the trace of a request to an API route labelled route: its
// ID is adopted from an incoming W3C traceparent header (and echoed back
// with this server's span ID), and the trace rides the request context
// through every tier. instrument, inside it, finishes the trace.
func (s *Server) trace(route string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := s.tracer.Start(r.Header.Get("Traceparent"), route)
		w.Header().Set("Traceparent", t.TraceParent())
		next.ServeHTTP(w, r.WithContext(obs.NewContext(r.Context(), t)))
	})
}

// instrument wraps a route with body limiting, logging and the request
// counter/latency metrics. A traced request's response carries a
// Server-Timing header with the stage breakdown, and its trace is finished
// here, once the status is known.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		t := obs.FromContext(r.Context())
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK, trace: t}
		next.ServeHTTP(rec, r)
		elapsed := time.Since(start)
		if rec.encodeErr != nil {
			s.log.ErrorContext(r.Context(), "encoding response failed",
				"route", t.Route(), "trace_id", t.ID(), "err", rec.encodeErr)
		}
		s.reg.Counter("gdrd_http_requests_total").Inc()
		// Only server faults count as errors: 4xx is client misuse, and a
		// 503 shed (Retry-After present) is the server protecting itself —
		// sheds have their own counter, and alerting on them would page for
		// an abusive client.
		if rec.status >= 500 && rec.Header().Get("Retry-After") == "" {
			s.reg.Counter("gdrd_http_errors_total").Inc()
		}
		s.reg.Histogram("gdrd_request_seconds").Observe(elapsed.Seconds())
		t.Finish(rec.status)
		s.logRequest(r, t, rec.status, elapsed)
	})
}

// logRequest emits the per-request log line; requests at or above the
// SlowRequest threshold escalate to warn level so slow outliers surface
// without debug scraping.
func (s *Server) logRequest(r *http.Request, t *obs.Trace, status int, elapsed time.Duration) {
	lvl, msg := slog.LevelInfo, "request"
	if s.cfg.SlowRequest > 0 && elapsed >= s.cfg.SlowRequest {
		lvl, msg = slog.LevelWarn, "slow request"
	}
	ctx := r.Context()
	if !s.log.Enabled(ctx, lvl) {
		return
	}
	attrs := make([]slog.Attr, 0, 10)
	attrs = append(attrs,
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Duration("dur", elapsed.Round(time.Microsecond)),
	)
	if id := t.ID(); id != "" {
		attrs = append(attrs, slog.String("route", t.Route()), slog.String("trace_id", id))
		if tn := t.Tenant(); tn != "" {
			attrs = append(attrs, slog.String("tenant", tn))
		}
		if sid := t.Session(); sid != "" {
			attrs = append(attrs, slog.String("session", sid))
		}
		if qw := t.SpanDur("queue"); qw > 0 {
			attrs = append(attrs, slog.Duration("queue_wait", qw.Round(time.Microsecond)))
		}
	}
	s.log.LogAttrs(ctx, lvl, msg, attrs...)
}

// handleTraces serves the retained traces. The endpoint is deliberately
// loopback-only — traces carry tenant names and session tokens, so it must
// never face the open network even on a misconfigured deploy; operators on
// the box (or through a forwarded port) are the audience.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if !loopbackAddr(r.RemoteAddr) {
		writeJSON(w, http.StatusForbidden, ErrorBody{Error: "server: /debug/traces is loopback-only"})
		return
	}
	s.tracer.Handler().ServeHTTP(w, r)
}

// TracesHandler exposes the raw trace debug handler for embedders that
// mount it on their own (already loopback-bound) debug listener.
func (s *Server) TracesHandler() http.Handler { return s.tracer.Handler() }

// loopbackAddr reports whether a RemoteAddr is a loopback peer.
func loopbackAddr(addr string) bool {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		host = addr
	}
	ip := net.ParseIP(host)
	return ip != nil && ip.IsLoopback()
}

// admit is the admission-control middleware: authenticate, then enforce the
// tenant's token-bucket rate and in-flight cap, shedding the excess with
// 429 + Retry-After before it can touch a session. Everything it admits
// carries its *tenantState in the request context.
func (s *Server) admit(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		admitStart := time.Now()
		t, err := s.authenticate(r)
		if err != nil {
			s.reg.Counter("gdrd_auth_failures_total").Inc()
			w.Header().Set("WWW-Authenticate", `Bearer realm="gdrd"`)
			writeJSON(w, http.StatusUnauthorized, ErrorBody{Error: err.Error()})
			return
		}
		if t.bucket != nil {
			if wait := t.bucket.take(time.Now()); wait > 0 {
				s.shed(t, "rate")
				writeError(w, &shedError{
					status:     http.StatusTooManyRequests,
					retryAfter: wait,
					msg:        fmt.Sprintf("server: tenant %s over request rate", t.cfg.Name),
				})
				return
			}
		}
		if max := int64(t.cfg.MaxInFlight); max > 0 {
			if t.inflight.Add(1) > max {
				t.inflight.Add(-1)
				s.shed(t, "inflight")
				writeError(w, &shedError{
					status:     http.StatusTooManyRequests,
					retryAfter: time.Second,
					msg:        fmt.Sprintf("server: tenant %s over in-flight cap", t.cfg.Name),
				})
				return
			}
			defer t.inflight.Add(-1)
		}
		if tr := obs.FromContext(r.Context()); tr != nil {
			tr.SetTenant(metricTenant(t.cfg.Name))
			tr.RecordSince("admit", "", admitStart)
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, t)))
	})
}

// withDeadline bounds each admitted request with Config.RequestTimeout. The
// deadline travels in the request context while a command waits for its
// session's turn, so work whose budget was spent waiting is dropped before
// it costs CPU.
func (s *Server) withDeadline(next http.Handler) http.Handler {
	if s.cfg.RequestTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// shed counts one shed request against a tenant.
func (s *Server) shed(t *tenantState, reason string) {
	s.reg.LabeledCounter("gdrd_shed_total", "reason", reason, "tenant", metricTenant(t.cfg.Name)).Inc()
}

// shedError is a load-shedding refusal: the request was turned away to
// protect the service, with a hint for when to retry. It matches
// ErrOverloaded via errors.Is.
type shedError struct {
	status     int           // 429 (per-tenant quota) or 503 (server pressure)
	retryAfter time.Duration // rendered as the Retry-After header, min 1s
	msg        string
}

func (e *shedError) Error() string        { return e.msg }
func (e *shedError) Is(target error) bool { return target == ErrOverloaded }

// errQueueFull sheds a command because its session's queue is saturated.
func errQueueFull() error {
	return &shedError{
		status:     http.StatusServiceUnavailable,
		retryAfter: time.Second,
		msg:        "server: session queue full",
	}
}

// errExpiredQueued is the single deterministic mapping for "the request
// context expired while the command waited its turn" — whether it was still
// waiting for the session's turn or for CPU slots.
// It is a 503: the server was too slow to reach the command in time, and
// the client should retry after backoff.
func errExpiredQueued() error {
	return &shedError{
		status:     http.StatusServiceUnavailable,
		retryAfter: time.Second,
		msg:        "server: request deadline expired while queued",
	}
}

// writeJSON sends one response body, rendered once before the status goes
// out.
func writeJSON(w http.ResponseWriter, status int, body any) {
	b, err := marshalJSONBody(body)
	if err != nil {
		writeEncodeError(w, err)
		return
	}
	writeJSONBytes(w, status, b)
}

// writeEncodeError answers a response body that could not be encoded: a
// server fault, so 500 with an ErrorBody. The error is noted on the
// request's statusRecorder, which logs it once the handler returns.
func writeEncodeError(w http.ResponseWriter, err error) {
	if rec, ok := w.(*statusRecorder); ok {
		rec.encodeErr = err
	}
	// An ErrorBody holds one string, which always encodes.
	b, _ := marshalJSONBody(ErrorBody{Error: fmt.Sprintf("server: encoding response: %v", err)})
	writeJSONBytes(w, http.StatusInternalServerError, b)
}

// marshalJSONBody renders a body to the bytes writeJSON sends (escaping
// off, trailing newline included). Rendering before the status goes out
// is what lets an unencodable body become a 500; the dedup window stores
// the same bytes, so a replayed response is byte-identical to the original.
func marshalJSONBody(body any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(body); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeJSONBytes sends pre-rendered JSON bytes (a dedup replay).
func writeJSONBytes(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// retryAfterValue renders a Retry-After duration as whole seconds, rounded
// up, minimum 1 — the header's integer form.
func retryAfterValue(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// writeError maps an error to its HTTP status and JSON body. Shed errors
// additionally carry a Retry-After header so clients back off instead of
// hammering an overloaded server.
func writeError(w http.ResponseWriter, err error) {
	var shed *shedError
	if errors.As(err, &shed) {
		w.Header().Set("Retry-After", retryAfterValue(shed.retryAfter))
		writeJSON(w, shed.status, ErrorBody{Error: shed.msg})
		return
	}
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadUpload), errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, ErrForbidden):
		status = http.StatusForbidden
	case errors.Is(err, ErrTooManySessions):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrSessionClosed), errors.Is(err, ErrTokenInUse):
		status = http.StatusConflict
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The request's budget ran out mid-command; same deterministic
		// contract as expiring in the queue — 503, retry after backoff.
		w.Header().Set("Retry-After", "1")
		status = http.StatusServiceUnavailable
	}
	var maxBytes *http.MaxBytesError
	if errors.As(err, &maxBytes) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, ErrorBody{Error: err.Error()})
}

func writeNotFound(w http.ResponseWriter, what string) {
	writeJSON(w, http.StatusNotFound, ErrorBody{Error: fmt.Sprintf("unknown %s", what)})
}

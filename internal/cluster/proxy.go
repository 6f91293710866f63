package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httputil"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"gdr/internal/faultfs"
	"gdr/internal/metrics"
	"gdr/internal/server"
)

// Fault-injection points the migration chaos tests hook. They live on the
// proxy side of the wire: a faulting export/import/delete stands in for the
// node failing or the network eating the call at that step.
const (
	// FaultExport fails the snapshot export that starts a migration.
	FaultExport faultfs.Point = "cluster.export"
	// FaultImport fails the import-on-create on the destination node.
	FaultImport faultfs.Point = "cluster.import"
	// FaultDelete fails a session delete the proxy makes: a migration's
	// source delete, or a superseded copy's.
	FaultDelete faultfs.Point = "cluster.delete"
	// FaultReplicate fails a replica push before it leaves the proxy.
	FaultReplicate faultfs.Point = "cluster.replicate"
)

// Config configures a Proxy.
type Config struct {
	// Nodes are the gdrd base URLs the ring starts with, e.g.
	// "http://127.0.0.1:9001". All start presumed live; the health loop
	// corrects that within FailAfter checks.
	Nodes []string
	// VNodes is the virtual-node count per node (DefaultVNodes if 0).
	VNodes int
	// AdminKey is the bearer key the proxy itself presents for membership
	// work: listing sessions across tenants, exporting, importing and
	// deleting during migrations. Empty for open-mode (keyfile-less) nodes.
	AdminKey string
	// HealthEvery is the membership probe cadence (default 500ms).
	HealthEvery time.Duration
	// FailAfter is how many consecutive probe failures declare a node dead
	// (default 3).
	FailAfter int
	// SettleGrace is how long after a ring change a 404 from a node is
	// answered as 503 + Retry-After instead: the session may still be in
	// flight between nodes (default 2s).
	SettleGrace time.Duration
	// Logger receives the proxy's structured logs (slog.Default if nil).
	Logger *slog.Logger
	// Client performs all upstream requests (a tuned default if nil).
	Client *http.Client
	// Faults injects migration faults for tests and chaos mode (nil = off).
	Faults *faultfs.Injector
}

// nodeState is one node's membership view. All fields are guarded by the
// owning Proxy's mu.
type nodeState struct {
	fails   int  // consecutive failed probes
	succs   int  // consecutive successful probes while dead (rejoin hysteresis)
	live    bool // a ring member
	drained bool // operator-removed; health must not re-admit it to the ring
	dead    bool // declared dead by the health loop; unlisted until admit applies rule 1
}

// Proxy is the stateless cluster gateway: it consistent-hashes session
// tokens across gdrd nodes, creates sessions on the ring owner via the
// placement headers, transparently forwards every session verb, and moves
// sessions when the ring changes. All of its own state is soft — routing
// derives from the ring and the nodes' session sets, so a restarted proxy
// resumes service with nothing but its flags.
type Proxy struct {
	cfg    Config
	log    *slog.Logger
	client *http.Client
	reg    *metrics.Registry
	rp     *httputil.ReverseProxy
	urls   map[string]*url.URL // node -> parsed base URL (read-only after New)
	// requests holds each node's gdrproxy_requests_total handle, resolved
	// in New so forwarding skips the registry (read-only after New).
	requests map[string]*metrics.Counter

	// workMu serializes placement work — rebalances, drains, failovers,
	// node admissions and audits — so each acts on an inventory no other
	// pass is changing, and no token is mid-move while copies are settled.
	workMu sync.Mutex

	mu        sync.Mutex
	ring      *Ring                    // gdr:guarded-by mu — current immutable ring
	nodes     map[string]*nodeState    // gdr:guarded-by mu
	overrides map[string]string        // gdr:guarded-by mu — token -> node, routing pins
	migrating map[string]chan struct{} // gdr:guarded-by mu — tokens mid-move; closed when done
	recover   int                      // gdr:guarded-by mu — dead-node recoveries in flight
	settleTil time.Time                // gdr:guarded-by mu — 404→503 window after ring changes

	// Replication queue: tokens whose replica copy is behind (a mutating
	// round landed, or placement moved) and tokens whose replicas must be
	// dropped (session deleted). The replicator worker drains both; the
	// anti-entropy audit re-derives them from scratch every health tick, so
	// a lost queue entry only delays a push, never loses it.
	replMu   sync.Mutex
	replPend map[string]struct{} // gdr:guarded-by replMu — tokens to (re)push
	replDrop map[string]struct{} // gdr:guarded-by replMu — tokens to drop
	replWake chan struct{}       // buffered(1) doorbell for the replicator
	// drainMu serializes queue drains: SyncReplicas holds it throughout, so
	// the replicator cannot take (and silently fail) a push the sync's own
	// audit queued.
	drainMu sync.Mutex

	stop     chan struct{}
	healthWG sync.WaitGroup
}

// New builds a Proxy over the configured nodes. Call Start to run the
// membership loop and Close to stop it.
func New(cfg Config) (*Proxy, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes configured")
	}
	if cfg.HealthEvery <= 0 {
		cfg.HealthEvery = 500 * time.Millisecond
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	if cfg.SettleGrace <= 0 {
		cfg.SettleGrace = 2 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	p := &Proxy{
		cfg:       cfg,
		log:       cfg.Logger,
		client:    cfg.Client,
		reg:       metrics.NewRegistry(),
		urls:      make(map[string]*url.URL, len(cfg.Nodes)),
		requests:  make(map[string]*metrics.Counter, len(cfg.Nodes)),
		ring:      NewRing(cfg.VNodes),
		nodes:     make(map[string]*nodeState, len(cfg.Nodes)),
		overrides: make(map[string]string),
		migrating: make(map[string]chan struct{}),
		replPend:  make(map[string]struct{}),
		replDrop:  make(map[string]struct{}),
		replWake:  make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
	p.mu.Lock()
	for _, n := range cfg.Nodes {
		u, err := url.Parse(n)
		if err != nil || u.Scheme == "" || u.Host == "" {
			p.mu.Unlock()
			return nil, fmt.Errorf("cluster: node %q: want a base URL like http://127.0.0.1:9001", n)
		}
		if _, dup := p.urls[n]; dup {
			p.mu.Unlock()
			return nil, fmt.Errorf("cluster: node %q listed twice", n)
		}
		p.urls[n] = u
		p.requests[n] = p.reg.LabeledCounter("gdrproxy_requests_total", "node", n)
		p.ring = p.ring.Add(n)
		p.nodes[n] = &nodeState{live: true}
	}
	p.mu.Unlock()
	p.rp = &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			t, _ := pr.In.Context().Value(targetKey{}).(*url.URL)
			pr.SetURL(t)
			pr.SetXForwarded()
		},
		FlushInterval:  100 * time.Millisecond, // keep streaming exports flowing
		ErrorHandler:   p.upstreamError,
		ModifyResponse: p.modifyResponse,
		ErrorLog:       slog.NewLogLogger(cfg.Logger.Handler(), slog.LevelWarn),
	}
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		p.rp.Transport = tr.Clone()
	}
	p.reg.Gauge("gdrproxy_ring_version").Set(int64(p.currentRing().Version()))
	p.reg.Gauge("gdrproxy_nodes_live").Set(int64(len(cfg.Nodes)))
	// Pre-register the replication series so /metrics shows them at zero
	// from the first scrape instead of appearing mid-incident.
	p.reg.Counter("gdrproxy_replica_pushes_total")
	p.reg.Counter("gdrproxy_replica_push_failures_total")
	p.reg.Counter("gdrproxy_replica_promotions_total")
	p.reg.Counter("gdrproxy_replica_drops_total")
	return p, nil
}

// Start launches the membership health loop and the replicator worker.
func (p *Proxy) Start() {
	p.healthWG.Add(2)
	go p.healthLoop()
	go p.replicator()
}

// Close stops the health loop and waits for it.
func (p *Proxy) Close() {
	close(p.stop)
	p.healthWG.Wait()
}

// Registry exposes the proxy's metrics registry (tests scrape it directly).
func (p *Proxy) Registry() *metrics.Registry { return p.reg }

// Ring returns the current ring snapshot; Ring values are immutable, so
// the result is safe to use lock-free (it just goes stale on membership
// changes).
func (p *Proxy) Ring() *Ring { return p.currentRing() }

// targetKey carries the chosen upstream URL through the request context to
// the shared ReverseProxy's Rewrite hook.
type targetKey struct{}

// Handler returns the proxy's HTTP surface: the full gdrd /v1 session API
// (forwarded), plus the proxy's own /healthz and /metrics.
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", p.handleCreate)
	mux.HandleFunc("GET /v1/sessions", p.handleList)
	mux.HandleFunc("/v1/sessions/{id}", p.handleSession)
	mux.HandleFunc("/v1/sessions/{id}/{rest...}", p.handleSession)
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	mux.HandleFunc("GET /readyz", p.handleReadyz)
	mux.HandleFunc("GET /metrics", p.handleMetrics)
	return mux
}

// currentRing snapshots the ring pointer; the Ring value itself is
// immutable, so callers may use it lock-free after this.
func (p *Proxy) currentRing() *Ring {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ring
}

// routeToken picks the node serving a token right now: its routing pin if
// one is set (a pending move, or a kept copy off its ring owner), the ring
// owner otherwise. Zero-alloc — this
// plus the ring lookup is the per-request routing cost.
func (p *Proxy) routeToken(token string) string {
	p.mu.Lock()
	if n, ok := p.overrides[token]; ok {
		p.mu.Unlock()
		return n
	}
	r := p.ring
	p.mu.Unlock()
	return r.Lookup(token)
}

// migratingCh returns the wait channel if the token is mid-migration.
func (p *Proxy) migratingCh(token string) chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.migrating[token]
}

// unsettled reports whether a 404 from a node may be transient: a
// migration or recovery is in flight, or the ring changed moments ago.
func (p *Proxy) unsettled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.recover > 0 || len(p.migrating) > 0 || time.Now().Before(p.settleTil)
}

// markSettling opens the 404→503 grace window; callers hold p.mu.
func (p *Proxy) markSettlingLocked() {
	p.settleTil = time.Now().Add(p.cfg.SettleGrace)
	p.reg.Gauge("gdrproxy_ring_version").Set(int64(p.ring.Version()))
	live := 0
	for _, st := range p.nodes {
		if st.live {
			live++
		}
	}
	p.reg.Gauge("gdrproxy_nodes_live").Set(int64(live))
}

// newToken mints a fresh session token with the exact shape gdrd generates
// (32 lowercase hex chars); the proxy chooses tokens so it can place the
// session on the ring owner before the node ever sees the request.
func newToken() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("cluster: generating session token: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// handleCreate places a new session: mint the token, hash it to its owner,
// and forward the create with the placement header set. A request that
// already carries an assigned token (an admin re-import) is routed by that
// token instead, so manual placement stays consistent with the ring.
func (p *Proxy) handleCreate(w http.ResponseWriter, r *http.Request) {
	token := r.Header.Get(server.AssignTokenHeader)
	if token == "" {
		fresh, err := newToken()
		if err != nil {
			writeProxyError(w, http.StatusInternalServerError, err.Error())
			return
		}
		token = fresh
		r.Header.Set(server.AssignTokenHeader, token)
	}
	node := p.routeToken(token)
	if node == "" {
		p.reg.Counter("gdrproxy_no_node_total").Inc()
		writeUnavailable(w, "no live nodes")
		return
	}
	p.forward(w, r, node)
}

// handleSession forwards every per-session verb to the token's node,
// waiting out an in-flight migration first so the client lands on the
// session's new home instead of racing the move.
func (p *Proxy) handleSession(w http.ResponseWriter, r *http.Request) {
	token := r.PathValue("id")
	if ch := p.migratingCh(token); ch != nil {
		select {
		case <-ch:
		case <-r.Context().Done():
			writeUnavailable(w, "migration in progress")
			return
		}
	}
	node := p.routeToken(token)
	if node == "" {
		p.reg.Counter("gdrproxy_no_node_total").Inc()
		writeUnavailable(w, "no live nodes")
		return
	}
	p.forward(w, r, node)
}

// forward proxies one request to a node through the shared ReverseProxy.
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request, node string) {
	u := p.urls[node]
	if u == nil {
		writeUnavailable(w, "unknown node")
		return
	}
	p.requests[node].Inc()
	ctx := context.WithValue(r.Context(), targetKey{}, u)
	p.rp.ServeHTTP(w, r.WithContext(ctx))
}

// upstreamError answers for a node the proxy could not reach: 503 with a
// short Retry-After, which the gdrd client dialect already retries. The
// health loop, not the data path, decides whether the node is dead.
func (p *Proxy) upstreamError(w http.ResponseWriter, r *http.Request, err error) {
	p.reg.Counter("gdrproxy_upstream_errors_total").Inc()
	p.log.Warn("upstream request failed", "path", r.URL.Path, "err", err)
	writeUnavailable(w, "upstream unreachable")
}

// modifyResponse watches successful upstream answers to drive replication
// (a mutated or created session needs its replica refreshed; a deleted one
// needs it dropped), then rewrites transient 404s during migration
// windows: after a ring change a session can be between nodes for a
// moment, and "retry shortly" is the truthful answer where "gone" is not.
func (p *Proxy) modifyResponse(resp *http.Response) error {
	if resp.Request == nil {
		return nil
	}
	p.observeForReplication(resp)
	if resp.StatusCode != http.StatusNotFound {
		return nil
	}
	if !strings.HasPrefix(resp.Request.URL.Path, "/v1/sessions/") || !p.unsettled() {
		return nil
	}
	p.reg.Counter("gdrproxy_notfound_retries_total").Inc()
	body, _ := json.Marshal(server.ErrorBody{Error: "cluster: session settling after a ring change; retry"})
	resp.Body.Close()
	resp.StatusCode = http.StatusServiceUnavailable
	resp.Status = http.StatusText(http.StatusServiceUnavailable)
	resp.Header = resp.Header.Clone()
	resp.Header.Set("Retry-After", "1")
	resp.Header.Set("Content-Type", "application/json")
	resp.Header.Del("Content-Length")
	resp.ContentLength = int64(len(body))
	resp.Header.Set("Content-Length", fmt.Sprint(len(body)))
	resp.Body = io.NopCloser(strings.NewReader(string(body)))
	return nil
}

// handleList fans the listing out to every live node and merges: the
// cluster's sessions are the union of its nodes'. The caller's own
// credentials travel with each fan-out leg, so tenants see exactly what
// they would see asking each node themselves. Duplicates (a migration's
// transient src+dst overlap) collapse onto the ring owner's copy.
func (p *Proxy) handleList(w http.ResponseWriter, r *http.Request) {
	ring := p.currentRing()
	merged := make(map[string]server.SessionInfo)
	for _, node := range ring.Nodes() {
		infos, err := p.listNode(r.Context(), node, r.Header.Get("Authorization"))
		if err != nil {
			p.log.Warn("list fan-out leg failed", "node", node, "err", err)
			continue
		}
		for _, s := range infos {
			if _, dup := merged[s.ID]; !dup || ring.Lookup(s.ID) == node {
				merged[s.ID] = s
			}
		}
	}
	out := server.SessionList{Sessions: make([]server.SessionInfo, 0, len(merged))}
	for _, s := range merged {
		out.Sessions = append(out.Sessions, s)
	}
	sort.Slice(out.Sessions, func(i, j int) bool { return out.Sessions[i].ID < out.Sessions[j].ID })
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// listNode asks one node for its sessions with the given Authorization
// header value ("" sends none).
func (p *Proxy) listNode(ctx context.Context, node, auth string) ([]server.SessionInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, node+"/v1/sessions", nil)
	if err != nil {
		return nil, err
	}
	if auth != "" {
		req.Header.Set("Authorization", auth)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: list %s: %s", node, resp.Status)
	}
	var list server.SessionList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, err
	}
	return list.Sessions, nil
}

// nodeHealth is one node's row in the proxy /healthz body.
type nodeHealth struct {
	Node string `json:"node"`
	Live bool   `json:"live"`
}

// handleHealthz reports the proxy's membership view.
func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	rows := make([]nodeHealth, 0, len(p.nodes))
	for n, st := range p.nodes {
		rows = append(rows, nodeHealth{Node: n, Live: st.live})
	}
	version := p.ring.Version()
	p.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Node < rows[j].Node })
	live := 0
	for _, row := range rows {
		if row.Live {
			live++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	status := "ok"
	if live == 0 {
		status = "down"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":       status,
		"ring_version": version,
		"live_nodes":   live,
		"nodes":        rows,
	})
}

// handleReadyz is the load-balancer signal, split from /healthz: the proxy
// process being up (healthz, always 200 while serving) is not the same as
// the cluster being safe to take traffic. Readiness goes 503 while a
// failover or migration is in flight, during the post-ring-change settle
// grace, or with zero live nodes — exactly the windows where a new request
// would likely land on a 404 or a dead upstream.
func (p *Proxy) handleReadyz(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	live := 0
	for _, st := range p.nodes {
		if st.live {
			live++
		}
	}
	p.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if live == 0 || p.unsettled() {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "settling", "live_nodes": live})
		return
	}
	_ = json.NewEncoder(w).Encode(map[string]any{"status": "ready", "live_nodes": live})
}

func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = p.reg.WriteProm(w)
}

// writeUnavailable is the proxy's retryable refusal: 503 + Retry-After,
// the same shed dialect gdrd itself speaks, so every client retry loop
// that survives an overloaded node also survives a cluster reshuffle.
func writeUnavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	writeProxyError(w, http.StatusServiceUnavailable, "cluster: "+msg)
}

func writeProxyError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(server.ErrorBody{Error: msg})
}

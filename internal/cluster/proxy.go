package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"net/http/httputil"
	"net/url"
	"slices"
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
	// AdminKey is the bearer key the proxy itself presents for membership
	// work: listing sessions across tenants, exporting, importing and
	// deleting during migrations. Empty for open-mode (keyfile-less) nodes.
	AdminKey string
	// HealthEvery is the membership probe cadence (default 500ms).
	HealthEvery time.Duration
	// FailAfter is how many consecutive probe failures declare a node dead
	// (default 3).
	FailAfter int
	// Logger receives the proxy's structured logs (slog.Default if nil).
	Logger *slog.Logger
	// Client carries the proxy's own requests to its nodes: health probes,
	// listings, snapshot exports and imports, deletes and replica traffic
	// (if nil, an http.Client with a 30s timeout on its own clone of
	// http.DefaultTransport). Forwarded client requests do not use it: the
	// reverse proxy sends them on another clone of http.DefaultTransport.
	Client *http.Client
	// Faults injects migration and replication faults for tests (nil = off).
	Faults *faultfs.Injector
}

// nodeState is one node's health view; whether it is live is whether the
// ring holds it. All fields are guarded by the owning Proxy's mu.
type nodeState struct {
	fails    int  // consecutive failed probes
	succs    int  // consecutive successful probes while dead (rejoin hysteresis)
	drained  bool // operator-removed; health must not re-admit it to the ring
	dead     bool // declared dead by the health loop; unlisted until admit applies rule 1
	orphaned bool // declared dead, and no placement pass has yet promoted its sessions
}

// migration is one token's move in flight: the token's new requests park
// on done until the move ends, and the move waits on idle until the
// forwards routed to its source before it began have returned.
type migration struct {
	done chan struct{}
	idle chan struct{}
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
	// transports are the clones of http.DefaultTransport the proxy made for
	// itself; Close releases their idle connections (read-only after New).
	transports []*http.Transport

	// workMu serializes placement work — the placement pass (reconcile),
	// drains and node admissions — so each acts on an inventory no other
	// pass is changing, and no token is mid-move while copies are settled.
	workMu sync.Mutex

	mu        sync.Mutex
	ring      *Ring                 // gdr:guarded-by mu — current immutable ring
	nodes     map[string]*nodeState // gdr:guarded-by mu
	overrides map[string]string     // gdr:guarded-by mu — token -> node, routing pins
	migrating map[string]*migration // gdr:guarded-by mu — tokens mid-move
	inflight  map[string]int        // gdr:guarded-by mu — token -> forwards routed and not yet returned
	settled   uint64                // gdr:guarded-by mu — ring version of the last settle pass (see settle)

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
	// placement pass queued.
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
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	p := &Proxy{
		log:       cfg.Logger,
		reg:       metrics.NewRegistry(),
		urls:      make(map[string]*url.URL, len(cfg.Nodes)),
		requests:  make(map[string]*metrics.Counter, len(cfg.Nodes)),
		ring:      NewRing(),
		nodes:     make(map[string]*nodeState, len(cfg.Nodes)),
		overrides: make(map[string]string),
		migrating: make(map[string]*migration),
		inflight:  make(map[string]int),
		replPend:  make(map[string]struct{}),
		replDrop:  make(map[string]struct{}),
		replWake:  make(chan struct{}, 1),
		stop:      make(chan struct{}),
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second, Transport: p.ownTransport()}
	}
	p.cfg, p.client = cfg, cfg.Client
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
		p.nodes[n] = &nodeState{}
	}
	// A fresh proxy starts settled: it has moved nothing, and what it
	// finds on the nodes its first placement pass settles.
	p.settled = p.ring.Version()
	p.mu.Unlock()
	p.rp = &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			t, _ := pr.In.Context().Value(targetKey{}).(*url.URL)
			pr.SetURL(t)
			pr.SetXForwarded()
		},
		ErrorHandler:   p.upstreamError,
		ModifyResponse: p.modifyResponse,
		ErrorLog:       slog.NewLogLogger(cfg.Logger.Handler(), slog.LevelWarn),
		Transport:      p.ownTransport(),
	}
	p.reg.Gauge("gdrproxy_ring_version").Set(int64(p.currentRing().Version()))
	p.reg.Gauge("gdrproxy_nodes_live").Set(int64(p.currentRing().Len()))
	// Pre-register the replication series so /metrics shows them at zero
	// from the first scrape instead of appearing mid-incident.
	p.reg.Counter("gdrproxy_replica_pushes_total")
	p.reg.Counter("gdrproxy_replica_push_failures_total")
	p.reg.Counter("gdrproxy_replica_promotions_total")
	p.reg.Counter("gdrproxy_replica_drops_total")
	return p, nil
}

// ownTransport returns a clone of http.DefaultTransport, kept so Close can
// release its idle connections. When http.DefaultTransport is not an
// *http.Transport it returns nil, and the caller sends on the default.
func (p *Proxy) ownTransport() http.RoundTripper {
	tr, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		return nil
	}
	tr = tr.Clone()
	p.transports = append(p.transports, tr)
	return tr
}

// Start launches the membership health loop and the replicator worker.
func (p *Proxy) Start() {
	p.healthWG.Add(2)
	go p.healthLoop()
	go p.replicator()
}

// Close stops the health loop and the replicator, waits for both, and
// releases the idle connections of the transports the proxy made.
func (p *Proxy) Close() {
	close(p.stop)
	p.healthWG.Wait()
	for _, tr := range p.transports {
		tr.CloseIdleConnections()
	}
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

// routeToken picks the node serving a token right now (see routeLocked).
func (p *Proxy) routeToken(token string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.routeLocked(token)
}

// routeLocked picks the node serving a token: its routing pin if one is
// set (a pending move, or a kept copy off its ring owner), the ring owner
// otherwise. Zero-alloc — this is the per-request routing cost. Callers
// hold p.mu.
func (p *Proxy) routeLocked(token string) string {
	if n, ok := p.overrides[token]; ok {
		return n
	}
	return p.ring.Lookup(token)
}

// enter routes one session request in one step with its count: if the
// token is mid-move it returns the move's done channel to wait on;
// otherwise it returns the node serving the token and counts the request
// in flight for the token until leave.
func (p *Proxy) enter(token string) (string, <-chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m := p.migrating[token]; m != nil {
		return "", m.done
	}
	p.inflight[token]++
	return p.routeLocked(token), nil
}

// leave ends a request enter counted. The token's last one to return lets
// a move that started meanwhile go ahead.
func (p *Proxy) leave(token string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := p.inflight[token] - 1; n > 0 {
		p.inflight[token] = n
		return
	}
	delete(p.inflight, token)
	if m := p.migrating[token]; m != nil {
		close(m.idle)
	}
}

// unsettled reports whether a 404 from a node may be transient: a token is
// mid-move, or the ring is newer than the last settle pass, so a session
// may still be on its way to the node the ring now names.
func (p *Proxy) unsettled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.migrating) > 0 || p.ring.Version() > p.settled
}

// markSettlingLocked publishes a ring change on the gdrproxy_ring_version
// and gdrproxy_nodes_live gauges. The new ring's version is newer than the
// last settle pass, so the proxy is unsettled from here until a pass
// settles at it; callers hold p.mu.
func (p *Proxy) markSettlingLocked() {
	p.reg.Gauge("gdrproxy_ring_version").Set(int64(p.ring.Version()))
	p.reg.Gauge("gdrproxy_nodes_live").Set(int64(p.ring.Len()))
}

// handleCreate places a new session: mint the token, hash it to its owner,
// and forward the create with the placement header set. A request that
// already carries an assigned token (an admin re-import) is routed by that
// token instead, so manual placement stays consistent with the ring.
func (p *Proxy) handleCreate(w http.ResponseWriter, r *http.Request) {
	token := r.Header.Get(server.AssignTokenHeader)
	if token == "" {
		fresh, err := server.NewToken()
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

// handleSession forwards every per-session verb to the token's node. A
// request for a token mid-move waits the move out, so the client lands on
// the session's new home instead of racing the move; any other is counted
// in flight until its forward returns, so a move that starts meanwhile
// exports the source only after it (see migrate).
func (p *Proxy) handleSession(w http.ResponseWriter, r *http.Request) {
	token := r.PathValue("id")
	node, moving := p.enter(token)
	for moving != nil {
		select {
		case <-moving:
		case <-r.Context().Done():
			writeUnavailable(w, "migration in progress")
			return
		}
		node, moving = p.enter(token)
	}
	defer p.leave(token)
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
// needs it dropped), then rewrites a session's 404 while the proxy is
// unsettled, or once the token no longer routes to the node that answered:
// a request routed before a settle pass can be answered after it, by a
// node the pass has routed the session away from. While a session may be
// between nodes, "retry shortly" is the truthful answer where "gone" is
// not.
func (p *Proxy) modifyResponse(resp *http.Response) error {
	if resp.Request == nil {
		return nil
	}
	p.observeForReplication(resp)
	if resp.StatusCode != http.StatusNotFound {
		return nil
	}
	token := sessionTokenFromPath(resp.Request.URL.Path)
	from, _ := resp.Request.Context().Value(targetKey{}).(*url.URL)
	if token == "" || !p.unsettled() && p.urls[p.routeToken(token)] == from {
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

// handleList fans the listing out to every node that may serve a session
// (the holders inventory asks, drained nodes included) and merges: the
// cluster's sessions are the union of its nodes'. The caller's own
// credentials travel with each fan-out leg, so tenants see exactly what
// they would see asking each node themselves, and a caller a node refuses
// (a 4xx) gets that refusal, as from the node itself. A session two nodes
// list (a migration's transient overlap, or a superseded copy whose delete
// failed) is reported as the copy routing points at, the one it serves.
func (p *Proxy) handleList(w http.ResponseWriter, r *http.Request) {
	merged := make(map[string]server.SessionInfo)
	for _, node := range p.holders() {
		infos, err := p.listNode(r.Context(), node, r.Header.Get("Authorization"))
		var refused *statusError
		if errors.As(err, &refused) && refused.code/100 == 4 {
			for _, h := range []string{"WWW-Authenticate", "Retry-After"} {
				if v := refused.header.Get(h); v != "" {
					w.Header().Set(h, v)
				}
			}
			writeProxyError(w, refused.code, refused.text)
			return
		}
		if err != nil {
			p.log.Warn("list fan-out leg failed", "node", node, "err", err)
			continue
		}
		for _, s := range infos {
			if _, dup := merged[s.ID]; !dup || p.routeToken(s.ID) == node {
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
	resp, err := p.call(ctx, http.MethodGet, node+"/v1/sessions", auth, nil, nil, http.StatusOK)
	if err != nil {
		return nil, fmt.Errorf("cluster: list %s: %w", node, err)
	}
	defer resp.Body.Close()
	var list server.SessionList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		return nil, err
	}
	return list.Sessions, nil
}

// call sends one request the proxy makes on its own account: method to
// target (a node's base URL plus path) on p.client, with the caller's
// headers and the given Authorization value ("" sends none). A response
// whose status is in want is returned for its caller to read or close;
// its body's Close first drains up to maxDrain bytes the caller left
// unread, so the connection goes back to the pool instead of being
// dropped. Any other status becomes a *statusError carrying it, the
// node's response header and its error text.
func (p *Proxy) call(ctx context.Context, method, target, auth string, body io.Reader, header http.Header, want ...int) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, target, body)
	if err != nil {
		return nil, err
	}
	maps.Copy(req.Header, header)
	if auth != "" {
		req.Header.Set("Authorization", auth)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	resp.Body = drainingBody{resp.Body}
	if slices.Contains(want, resp.StatusCode) {
		return resp, nil
	}
	defer resp.Body.Close()
	return nil, &statusError{status: resp.Status, code: resp.StatusCode, header: resp.Header, text: readErrorBody(resp.Body)}
}

// statusError is a node's answer with a status its caller did not expect.
type statusError struct {
	status string // "401 Unauthorized"
	code   int
	header http.Header
	text   string // the node's error text
}

func (e *statusError) Error() string { return e.status + ": " + e.text }

// adminAuth renders the proxy's own Authorization header value ("" in
// open mode).
func (p *Proxy) adminAuth() string {
	if p.cfg.AdminKey == "" {
		return ""
	}
	return "Bearer " + p.cfg.AdminKey
}

// maxDrain caps what the proxy reads of a node's response body beyond what
// a caller decodes: an error's text, or the tail a caller left unread. A
// body with more left than this is dropped with its connection.
const maxDrain = 4 << 10

// drainingBody is a node's response body whose Close first reads what is
// left of it, up to maxDrain bytes, so the transport can reuse the
// connection.
type drainingBody struct{ io.ReadCloser }

func (b drainingBody) Close() error {
	_, _ = io.Copy(io.Discard, io.LimitReader(b.ReadCloser, maxDrain))
	return b.ReadCloser.Close()
}

// readErrorBody extracts the error string from a gdrd error response
// (at most 4 KiB of it), falling back to the raw body.
func readErrorBody(r io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(r, maxDrain))
	var eb server.ErrorBody
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		return eb.Error
	}
	return strings.TrimSpace(string(data))
}

// nodeHealth is one node's row in the proxy /healthz body.
type nodeHealth struct {
	Node string `json:"node"`
	Live bool   `json:"live"`
}

// handleHealthz reports the proxy's membership view.
func (p *Proxy) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ring := p.currentRing()
	rows := make([]nodeHealth, 0, len(p.cfg.Nodes))
	for _, n := range p.cfg.Nodes {
		rows = append(rows, nodeHealth{Node: n, Live: ring.Has(n)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Node < rows[j].Node })
	live := ring.Len()
	w.Header().Set("Content-Type", "application/json")
	status := "ok"
	if live == 0 {
		status = "down"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":       status,
		"ring_version": ring.Version(),
		"live_nodes":   live,
		"nodes":        rows,
	})
}

// handleReadyz is the load-balancer signal, split from /healthz: the proxy
// process being up (healthz, always 200 while serving) is not the same as
// the cluster being safe to take traffic. Readiness goes 503 while the
// proxy is unsettled (a move in flight, or a ring change no settle pass
// has placed every session after) or with zero live nodes — exactly the
// windows where a new request would likely land on a 404 or a dead
// upstream.
func (p *Proxy) handleReadyz(w http.ResponseWriter, r *http.Request) {
	live := p.currentRing().Len()
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

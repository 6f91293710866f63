package main

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"gdr/internal/cluster"
	"gdr/internal/metrics"
	"gdr/internal/server"
)

// benchIDHeader tags each request of a traced run so the proxy's upstream
// call can be matched to the client call that caused it.
const benchIDHeader = "X-Perfbench-Id"

// node is one in-process gdrd on a loopback port.
type node struct {
	cfg  server.Config
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startNode boots a gdrd with cfg on a fresh loopback port.
func startNode(cfg server.Config) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(cfg)
	return serve(cfg, srv, srv.Handler(), ln), nil
}

func serve(cfg server.Config, srv *server.Server, h http.Handler, ln net.Listener) *node {
	n := &node{cfg: cfg, srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln)
	}()
	return n
}

// stop drains the listener, waits for the serve loop, then closes the
// server (which flushes a final checkpoint of every durable session).
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.hs.Shutdown(ctx); err != nil {
		_ = n.hs.Close()
	}
	<-n.done
	if n.srv != nil {
		n.srv.Close()
	}
}

// rig is the system under test: one gdrd, or cluster-mode gdrd nodes
// behind a gdrproxy gateway, all in this process on loopback ports.
type rig struct {
	url   string // what the experts talk to
	nodes []*node
	proxy *cluster.Proxy
	gw    *node

	// Traced cluster runs only: the proxy's forwards and its own calls
	// (health, replication, audits), timed from outside the proxy.
	fwd, bg      *rtRecorder
	oldTransport http.RoundTripper
}

// startRig boots the rig a workload needs. With traced set, a cluster's
// upstream calls run through benchmark-owned RoundTrippers: the proxy's own
// client via cluster.Config.Client, its forwards via http.DefaultTransport,
// which the gateway's reverse proxy falls back to.
func startRig(w workload, dataDir string, traced bool) (*rig, error) {
	r := &rig{}
	if w.nodes == 0 {
		n, err := startNode(server.Config{MaxSessions: -1, DataDir: dataDir})
		if err != nil {
			return nil, err
		}
		r.nodes = []*node{n}
		r.url = n.url
		return r, nil
	}
	urls := make([]string, 0, w.nodes)
	for i := 0; i < w.nodes; i++ {
		n, err := startNode(server.Config{MaxSessions: -1, ClusterMode: true})
		if err != nil {
			r.close()
			return nil, err
		}
		r.nodes = append(r.nodes, n)
		urls = append(urls, n.url)
	}
	cfg := cluster.Config{Nodes: urls, Logger: slog.New(slog.DiscardHandler)}
	if traced {
		base, ok := http.DefaultTransport.(*http.Transport)
		if !ok {
			r.close()
			return nil, errors.New("http.DefaultTransport is not an *http.Transport")
		}
		r.bg = &rtRecorder{base: base.Clone()}
		r.fwd = &rtRecorder{base: base.Clone()}
		cfg.Client = &http.Client{Timeout: 30 * time.Second, Transport: r.bg}
		r.oldTransport = http.DefaultTransport
		http.DefaultTransport = r.fwd
	}
	p, err := cluster.New(cfg)
	if err != nil {
		r.close()
		return nil, err
	}
	r.proxy = p
	p.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.close()
		return nil, err
	}
	r.gw = serve(server.Config{}, nil, p.Handler(), ln)
	r.url = r.gw.url
	return r, nil
}

// close stops the gateway, the proxy and every node, and waits for them.
func (r *rig) close() {
	if r.gw != nil {
		r.gw.stop()
		r.gw = nil
	}
	if r.proxy != nil {
		r.proxy.Close()
		r.proxy = nil
	}
	for _, n := range r.nodes {
		n.stop()
	}
	r.nodes = nil
	if r.oldTransport != nil {
		http.DefaultTransport = r.oldTransport
		r.oldTransport = nil
	}
}

// registries returns the metrics of every gdrd in the rig.
func (r *rig) registries() []*metrics.Registry {
	out := make([]*metrics.Registry, len(r.nodes))
	for i, n := range r.nodes {
		out[i] = n.srv.Registry()
	}
	return out
}

// stageSum adds up one gdrd_stage_seconds series (sum in seconds, count)
// over the rig's nodes.
func (r *rig) stageSum(stage, route string) (float64, uint64) {
	var sum float64
	var n uint64
	for _, reg := range r.registries() {
		h := reg.LabeledHistogram("gdrd_stage_seconds", "stage", stage, "route", route)
		sum += h.Sum()
		n += h.Count()
	}
	return sum, n
}

// counter reads one counter: a gdrproxy_ one off the proxy (0 without
// one), any other summed over the rig's gdrd nodes.
func (r *rig) counter(name string) int64 {
	if strings.HasPrefix(name, "gdrproxy_") {
		if r.proxy == nil {
			return 0
		}
		return r.proxy.Registry().Counter(name).Value()
	}
	var v int64
	for _, reg := range r.registries() {
		v += reg.Counter(name).Value()
	}
	return v
}

// rtCall is one upstream call the proxy made.
type rtCall struct {
	kind  string
	id    string // benchIDHeader of the client request it forwards ("" for the proxy's own calls)
	start time.Time
	dur   time.Duration // until the response body was closed
}

// rtRecorder is an http.RoundTripper that times every call through it,
// response body included, and classifies it by method and path.
type rtRecorder struct {
	base http.RoundTripper

	mu    sync.Mutex
	calls []rtCall
}

func (r *rtRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	c := rtCall{kind: classify(req.Method, req.URL.Path), id: req.Header.Get(benchIDHeader), start: time.Now()}
	resp, err := r.base.RoundTrip(req)
	if err != nil {
		c.dur = time.Since(c.start)
		r.record(c)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		c.dur = time.Since(c.start)
		r.record(c)
	}}
	return resp, nil
}

func (r *rtRecorder) record(c rtCall) {
	r.mu.Lock()
	r.calls = append(r.calls, c)
	r.mu.Unlock()
}

// since returns the calls that started at or after t.
func (r *rtRecorder) since(t time.Time) []rtCall {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []rtCall
	for _, c := range r.calls {
		if !c.start.Before(t) {
			out = append(out, c)
		}
	}
	return out
}

// timedBody reports when the caller is done with a response body.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// classify names an upstream call by what it does: a session verb, a
// snapshot export, a replica store call or a health probe.
func classify(method, path string) string {
	switch {
	case path == "/healthz":
		return "health"
	case path == "/v1/replicas":
		return "replica.list"
	case strings.HasPrefix(path, "/v1/replicas/"):
		switch method {
		case http.MethodPut:
			return "replica.put"
		case http.MethodDelete:
			return "replica.delete"
		}
		return "replica.get"
	case path == "/v1/sessions":
		if method == http.MethodPost {
			return "create"
		}
		return "list"
	}
	rest, ok := strings.CutPrefix(path, "/v1/sessions/")
	if !ok {
		return "other"
	}
	switch {
	case strings.HasSuffix(rest, "/snapshot"):
		return "snapshot"
	case strings.HasSuffix(rest, "/updates"):
		return "updates"
	case strings.HasSuffix(rest, "/groups"):
		return "groups"
	case strings.HasSuffix(rest, "/feedback"):
		return "feedback"
	case strings.HasSuffix(rest, "/export"):
		return "export"
	case strings.HasSuffix(rest, "/status"):
		return "status"
	case method == http.MethodDelete && !strings.Contains(rest, "/"):
		return "delete"
	}
	return "other"
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gdr/internal/server"
)

// figure1CSV and figure1Rules are a cut of the paper's Figure 1 instance
// and rules: a session small enough to create, export and move in
// milliseconds.
const (
	figure1CSV = `Name,SRC,STR,CT,STT,ZIP
Alice,H1,Redwood Dr,Michigan City,IN,46360
Bob,H2,Oak St,Westville,IN,46360
Carol,H2,Pine Ave,Westvile,IN,46360
Dave,H2,Main St,Michigan Cty,IN,46360
Eve,H1,Sherden RD,Fort Wayne,IN,46391
`
	figure1Rules = `phi1: ZIP -> CT, STT :: 46360 || Michigan City, IN
phi4: ZIP -> CT, STT :: 46391 || Westville, IN
`
)

// TestProxyPresentsAdminKey runs the proxy against keyfile-authenticated
// cluster nodes. With AdminKey set, every call the proxy makes on its own
// account (export, replica push, listing, import, delete) carries the
// admin key: a tenant's create lands its first replica, and a drain moves
// the session to a node where the tenant still reaches it. With AdminKey
// empty, the same drain is refused with the node's 401.
func TestProxyPresentsAdminKey(t *testing.T) {
	const adminKey, acmeKey = "admin-key-0001", "acme-key-0001"
	tenants, err := server.ParseKeyfile(strings.NewReader(adminKey + " ops admin\n" + acmeKey + " acme\n"))
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for range 2 {
		srv := server.New(server.Config{
			ClusterMode: true,
			Tenants:     tenants,
			Workers:     1,
			TTL:         time.Hour,
			Logger:      slog.New(slog.DiscardHandler),
		})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		urls = append(urls, ts.URL)
	}
	newProxy := func(key string) (*Proxy, *httptest.Server) {
		p, err := New(Config{Nodes: urls, AdminKey: key, HealthEvery: time.Hour, Logger: slog.New(slog.DiscardHandler)})
		if err != nil {
			t.Fatal(err)
		}
		gw := httptest.NewServer(p.Handler())
		t.Cleanup(gw.Close)
		return p, gw
	}
	acme := func(method, url string, body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+acmeKey)
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	p, gw := newProxy(adminKey)
	body, _ := json.Marshal(server.CreateSessionRequest{CSV: figure1CSV, Rules: figure1Rules, Seed: 1})
	resp := acme(http.MethodPost, gw.URL+"/v1/sessions", body)
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("create through the proxy: %s: %s", resp.Status, msg)
	}
	var created server.CreateSessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	token := created.Session.ID
	if n := p.Registry().Counter("gdrproxy_replica_pushes_total").Value(); n != 1 {
		t.Fatalf("replica pushes after the create = %d, want 1 (failures %d)",
			n, p.Registry().Counter("gdrproxy_replica_push_failures_total").Value())
	}
	var list server.SessionList
	if err := json.NewDecoder(acme(http.MethodGet, gw.URL+"/v1/sessions", nil).Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sessions) != 1 || list.Sessions[0].ID != token {
		t.Fatalf("acme's listing through the proxy = %+v, want its one session", list.Sessions)
	}
	owner := p.Ring().Lookup(token)

	open, _ := newProxy("")
	err = open.RemoveNode(context.Background(), owner)
	if err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("drain without the admin key: err = %v, want the node's 401", err)
	}
	if !open.Ring().Has(owner) {
		t.Fatal("a refused drain took the node out of the ring")
	}

	if err := p.RemoveNode(context.Background(), owner); err != nil {
		t.Fatalf("drain with the admin key: %v", err)
	}
	if got := p.routeToken(token); got == owner || got == "" {
		t.Fatalf("session still routed to %q after draining %q", got, owner)
	}
	if resp := acme(http.MethodGet, gw.URL+"/v1/sessions/"+token+"/status", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("acme's status after the move: %s, want 200", resp.Status)
	}
}

// TestProxyListPassesNodeRefusal runs the session listing against
// keyfile-authenticated nodes. A caller with no key or an unknown key gets
// the nodes' 401 and its WWW-Authenticate challenge through the proxy, as
// from a node itself, not an empty listing; a tenant's key still lists
// that tenant's sessions.
func TestProxyListPassesNodeRefusal(t *testing.T) {
	const adminKey, acmeKey = "admin-key-0001", "acme-key-0001"
	tenants, err := server.ParseKeyfile(strings.NewReader(adminKey + " ops admin\n" + acmeKey + " acme\n"))
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for range 2 {
		srv := server.New(server.Config{ClusterMode: true, Tenants: tenants, Workers: 1, TTL: time.Hour, Logger: slog.New(slog.DiscardHandler)})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() { ts.Close(); srv.Close() })
		urls = append(urls, ts.URL)
	}
	p, err := New(Config{Nodes: urls, AdminKey: adminKey, HealthEvery: time.Hour, Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		t.Fatal(err)
	}
	gw := httptest.NewServer(p.Handler())
	t.Cleanup(gw.Close)
	send := func(method, key string, body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, gw.URL+"/v1/sessions", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("Authorization", "Bearer "+key)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	body, _ := json.Marshal(server.CreateSessionRequest{CSV: figure1CSV, Rules: figure1Rules, Seed: 1})
	resp := send(http.MethodPost, acmeKey, body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create through the proxy: %s", resp.Status)
	}
	var created server.CreateSessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "unknown-key-0001"} {
		resp := send(http.MethodGet, key, nil)
		var eb server.ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		if resp.StatusCode != http.StatusUnauthorized || resp.Header.Get("WWW-Authenticate") == "" || eb.Error == "" {
			t.Fatalf("listing with key %q: %s, WWW-Authenticate %q, error %q; want the nodes' 401 with its challenge and text",
				key, resp.Status, resp.Header.Get("WWW-Authenticate"), eb.Error)
		}
	}
	var list server.SessionList
	resp = send(http.MethodGet, acmeKey, nil)
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(list.Sessions) != 1 || list.Sessions[0].ID != created.Session.ID {
		t.Fatalf("acme's listing through the proxy: %s %+v, want its one session", resp.Status, list.Sessions)
	}
}

// TestNodeCallErrors pins the error contract of the proxy's own calls: a
// node answering with a status the call does not expect yields an error
// that names the status and carries the node's error text. The health
// probe, which returns only a bool, reads such a node as down.
func TestNodeCallErrors(t *testing.T) {
	const text = "disk on fire"
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_ = json.NewEncoder(w).Encode(server.ErrorBody{Error: text})
	}))
	t.Cleanup(node.Close)
	p, err := New(Config{Nodes: []string{node.URL}, HealthEvery: time.Second, Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, n := context.Background(), node.URL
	calls := map[string]func() error{
		"listNode": func() error { _, err := p.listNode(ctx, n, ""); return err },
		"exportSession": func() error {
			_, _, _, err := p.exportSession(ctx, n, "t1")
			return err
		},
		"importSession": func() error { return p.importSession(ctx, n, "t1", "acme", []byte("snap"), 1) },
		"deleteSession": func() error { return p.deleteSession(ctx, n, "t1") },
		"putReplica":    func() error { return p.putReplica(ctx, n, "acme@t1", 1, []byte("snap")) },
		"getReplica":    func() error { _, err := p.getReplica(ctx, n, "acme@t1"); return err },
		"deleteReplica": func() error { return p.deleteReplica(ctx, n, "acme@t1") },
		"listReplicas":  func() error { _, err := p.listReplicas(ctx, n); return err },
	}
	for name, call := range calls {
		err := call()
		if err == nil {
			t.Errorf("%s: no error from a node answering 500", name)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "500 Internal Server Error") || !strings.Contains(msg, text) {
			t.Errorf("%s: error %q, want the status and the node's text %q", name, msg, text)
		}
	}
	if p.probe(n) {
		t.Error("probe: a node answering 500 reads as healthy")
	}
}

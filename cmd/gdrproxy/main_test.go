package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gdr"
	"gdr/internal/core"
	"gdr/internal/server"
)

func TestSplitList(t *testing.T) {
	got := splitList(" http://a:1, ,http://b:2,")
	if len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Fatalf("splitList = %v", got)
	}
	if splitList("") != nil {
		t.Fatal("empty list should be nil")
	}
}

func TestLoadAdminKey(t *testing.T) {
	if key, err := loadAdminKey(options{adminKey: "flagkey"}); err != nil || key != "flagkey" {
		t.Fatalf("flag key: %q, %v", key, err)
	}
	path := filepath.Join(t.TempDir(), "key")
	if err := os.WriteFile(path, []byte("filekey-123\ntrailing junk\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if key, err := loadAdminKey(options{adminKey: "flagkey", adminKeyFile: path}); err != nil || key != "filekey-123" {
		t.Fatalf("file key overrides flag: %q, %v", key, err)
	}
	empty := filepath.Join(t.TempDir(), "empty")
	if err := os.WriteFile(empty, []byte("\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := loadAdminKey(options{adminKeyFile: empty}); err == nil {
		t.Fatal("empty key file accepted")
	}
	if _, err := loadAdminKey(options{adminKeyFile: filepath.Join(t.TempDir(), "missing")}); err == nil {
		t.Fatal("missing key file accepted")
	}
}

// bootClusterNode starts one real cluster-mode gdrd for the daemon test.
func bootClusterNode(t *testing.T) string {
	t.Helper()
	srv := server.New(server.Config{
		ClusterMode: true,
		Workers:     1,
		Session:     core.Config{Workers: 1},
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	t.Cleanup(func() {
		_ = hs.Close()
		srv.Close()
	})
	return "http://" + ln.Addr().String()
}

// TestProxyDaemonEndToEnd boots two real gdrd nodes and the gdrproxy
// daemon via run(), creates a session through the gateway, reads it back,
// checks the proxy's own health and metrics surfaces, and drains
// gracefully — the same path cluster_smoke.sh exercises on built binaries.
func TestProxyDaemonEndToEnd(t *testing.T) {
	nodes := bootClusterNode(t) + "," + bootClusterNode(t)

	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, options{
			addr:        "127.0.0.1:0",
			nodes:       nodes,
			healthEvery: 50 * time.Millisecond,
			failAfter:   2,
			settleGrace: 250 * time.Millisecond,
			drain:       5 * time.Second,
			logFormat:   "text",
			logLevel:    "error",
		}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("proxy exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("proxy never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		LiveNodes int `json:"live_nodes"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if resp.StatusCode != 200 || health.LiveNodes != 2 {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, health)
	}

	d := gdr.HospitalData(gdr.DataConfig{N: 80, Seed: 3})
	var csvBuf bytes.Buffer
	if err := d.Dirty.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	var rules strings.Builder
	for _, r := range d.Rules {
		rules.WriteString(r.String() + "\n")
	}
	body, err := json.Marshal(map[string]any{"csv": csvBuf.String(), "rules": rules.String()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var created server.CreateSessionResponse
	_ = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if resp.StatusCode != 201 || created.Session.ID == "" {
		t.Fatalf("create through proxy: %d %+v", resp.StatusCode, created)
	}
	resp, err = http.Get(base + "/v1/sessions/" + created.Session.ID + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status through proxy: %d", resp.StatusCode)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(prom), "gdrproxy_requests_total") {
		t.Fatalf("metrics: %d\n%s", resp.StatusCode, prom)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful drain: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("proxy did not drain in time")
	}
}

// TestRunRejectsBadConfig covers the flag validation paths.
func TestRunRejectsBadConfig(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, options{logFormat: "text", logLevel: "info"}, nil); err == nil {
		t.Fatal("no -nodes accepted")
	}
	if err := run(ctx, options{nodes: "http://a:1", logFormat: "nope", logLevel: "info"}, nil); err == nil {
		t.Fatal("bad log format accepted")
	}
}

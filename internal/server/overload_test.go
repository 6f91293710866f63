package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gdr/internal/core"
)

// doJSONKey is doJSON with a bearer key attached; it also exposes the
// response headers so shed tests can assert Retry-After.
func doJSONKey(t testing.TB, client *http.Client, key, method, url string, body any, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(data) > 0 && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// jam occupies a session's actor until the returned release func is called,
// so subsequent commands stay queued (or are shed).
func jam(t *testing.T, e *entry) (release func()) {
	t.Helper()
	entered := make(chan struct{})
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		_ = e.actor.do(context.Background(), "test", func(*core.Session) {
			close(entered)
			<-done
		})
	}()
	<-entered
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}

// TestQueuedExpiryIsDeterministic503: a request whose deadline expires
// while its command is queued behind a busy actor gets the single
// deterministic 503 + Retry-After — not a 499, not a raw context error.
func TestQueuedExpiryIsDeterministic503(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, RequestTimeout: 50 * time.Millisecond})
	created := createFigure1Session(t, ts)
	e, ok := srv.Store().Get(created.Session.ID)
	if !ok {
		t.Fatal("session vanished")
	}
	release := jam(t, e)
	defer release()
	req, err := http.NewRequest("GET", ts.URL+"/v1/sessions/"+created.Session.ID+"/status", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued-expiry status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 shed without Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q is not a positive integer", ra)
	}
}

// TestQueueFullSheds503: commands beyond the actor's queue depth are shed
// immediately with 503 + Retry-After instead of blocking the handler.
func TestQueueFullSheds503(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	created := createFigure1Session(t, ts)
	e, ok := srv.Store().Get(created.Session.ID)
	if !ok {
		t.Fatal("session vanished")
	}
	release := jam(t, e)
	defer release()
	// Fill the single queue slot with a background command...
	queued := make(chan error, 1)
	go func() {
		queued <- e.actor.do(context.Background(), "test", func(*core.Session) {})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for e.actor.queueGauge().Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("filler command never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// ...then the next request must be shed, not queued.
	code, hdr := doJSONKey(t, ts.Client(), "", "GET", ts.URL+"/v1/sessions/"+created.Session.ID+"/status", nil, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("queue-full status = %d, want 503", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("queue-full shed without Retry-After")
	}
	release()
	if err := <-queued; err != nil {
		t.Fatalf("filler command: %v", err)
	}
	if got := metricsText(t, ts); !strings.Contains(got, `gdrd_shed_total{reason="queue",tenant="default"}`) {
		t.Fatalf("queue shed not counted:\n%s", got)
	}
}

func metricsText(t testing.TB, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func twoTenantConfig() Config {
	return Config{
		Tenants: []TenantConfig{
			{Name: "alice", Key: "alicekey123"},
			{Name: "bob", Key: "bobkey45678"},
		},
	}
}

// TestAuthRequiredAndTenantIsolation: with a keyfile, unauthenticated
// requests are 401, and one tenant's sessions are invisible to another —
// lookups 404 (no existence oracle), lists filter, deletes refuse.
func TestAuthRequiredAndTenantIsolation(t *testing.T) {
	_, ts := newTestServer(t, twoTenantConfig())
	client := ts.Client()

	code, hdr := doJSONKey(t, client, "", "GET", ts.URL+"/v1/sessions", nil, nil)
	if code != http.StatusUnauthorized {
		t.Fatalf("no key: status %d, want 401", code)
	}
	if hdr.Get("WWW-Authenticate") == "" {
		t.Fatal("401 without WWW-Authenticate")
	}
	if code, _ := doJSONKey(t, client, "wrongkey123", "GET", ts.URL+"/v1/sessions", nil, nil); code != http.StatusUnauthorized {
		t.Fatalf("bad key: status %d, want 401", code)
	}
	// The probes stay open: liveness must work when auth is misconfigured.
	if code, _ := doJSONKey(t, client, "", "GET", ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("healthz behind auth: status %d", code)
	}

	var created CreateSessionResponse
	code, _ = doJSONKey(t, client, "alicekey123", "POST", ts.URL+"/v1/sessions",
		CreateSessionRequest{Name: "fig1", CSV: figure1CSV, Rules: figure1Rules, Seed: 1}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create as alice: status %d", code)
	}
	if created.Session.Tenant != "alice" {
		t.Fatalf("session tenant = %q, want alice", created.Session.Tenant)
	}
	base := ts.URL + "/v1/sessions/" + created.Session.ID

	if code, _ := doJSONKey(t, client, "bobkey45678", "GET", base+"/status", nil, nil); code != http.StatusNotFound {
		t.Fatalf("bob reading alice's session: status %d, want 404", code)
	}
	var bobList SessionList
	if code, _ := doJSONKey(t, client, "bobkey45678", "GET", ts.URL+"/v1/sessions", nil, &bobList); code != 200 {
		t.Fatalf("bob list: status %d", code)
	}
	if len(bobList.Sessions) != 0 {
		t.Fatalf("bob sees %d sessions, want 0", len(bobList.Sessions))
	}
	var aliceList SessionList
	if _, _ = doJSONKey(t, client, "alicekey123", "GET", ts.URL+"/v1/sessions", nil, &aliceList); len(aliceList.Sessions) != 1 {
		t.Fatalf("alice sees %d sessions, want 1", len(aliceList.Sessions))
	}
	if code, _ := doJSONKey(t, client, "bobkey45678", "DELETE", base, nil, nil); code != http.StatusNotFound {
		t.Fatalf("bob deleting alice's session: status %d, want 404", code)
	}
	if code, _ := doJSONKey(t, client, "alicekey123", "DELETE", base, nil, nil); code != http.StatusOK {
		t.Fatalf("alice deleting her session: status %d", code)
	}
}

// TestRateLimitSheds429: a tenant over its token-bucket rate is shed with
// 429 + Retry-After while another tenant sails through, and the shed shows
// up in /metrics under the right labels.
func TestRateLimitSheds429(t *testing.T) {
	cfg := Config{
		Tenants: []TenantConfig{
			{Name: "abuser", Key: "abuserkey99", RatePerSec: 0.1, Burst: 1},
			{Name: "good", Key: "goodkey1234"},
		},
	}
	_, ts := newTestServer(t, cfg)
	client := ts.Client()
	if code, _ := doJSONKey(t, client, "abuserkey99", "GET", ts.URL+"/v1/sessions", nil, nil); code != 200 {
		t.Fatalf("first request within burst: status %d", code)
	}
	code, hdr := doJSONKey(t, client, "abuserkey99", "GET", ts.URL+"/v1/sessions", nil, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-rate status = %d, want 429", code)
	}
	ra, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", hdr.Get("Retry-After"))
	}
	// A different tenant is untouched by the abuser's quota.
	if code, _ := doJSONKey(t, client, "goodkey1234", "GET", ts.URL+"/v1/sessions", nil, nil); code != 200 {
		t.Fatalf("good tenant status = %d, want 200", code)
	}
	got := metricsText(t, ts)
	if !strings.Contains(got, `gdrd_shed_total{reason="rate",tenant="abuser"}`) {
		t.Fatalf("rate shed not counted per tenant:\n%s", got)
	}
}

// TestInFlightCapSheds429: the concurrent-request quota sheds the excess
// while a request is still executing.
func TestInFlightCapSheds429(t *testing.T) {
	cfg := Config{
		Workers: 1,
		Tenants: []TenantConfig{{Name: "capped", Key: "cappedkey12", MaxInFlight: 1}},
	}
	srv, ts := newTestServer(t, cfg)
	client := ts.Client()
	var created CreateSessionResponse
	code, _ := doJSONKey(t, client, "cappedkey12", "POST", ts.URL+"/v1/sessions",
		CreateSessionRequest{Name: "fig1", CSV: figure1CSV, Rules: figure1Rules, Seed: 1}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	e, ok := srv.Store().GetFor(created.Session.ID, "capped")
	if !ok {
		t.Fatal("session vanished")
	}
	release := jam(t, e)
	defer release()
	// Park one request on the jammed actor, then probe the cap.
	parked := make(chan int, 1)
	go func() {
		code, _ := doJSONKey(t, client, "cappedkey12", "GET", ts.URL+"/v1/sessions/"+created.Session.ID+"/status", nil, nil)
		parked <- code
	}()
	st := srv.tenants["cappedkey12"]
	deadline := time.Now().Add(5 * time.Second)
	for st.inflight.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("parked request never counted in flight")
		}
		time.Sleep(time.Millisecond)
	}
	code, hdr := doJSONKey(t, client, "cappedkey12", "GET", ts.URL+"/v1/sessions", nil, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-cap status = %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("in-flight shed without Retry-After")
	}
	release()
	if code := <-parked; code != http.StatusOK {
		t.Fatalf("parked request finished with %d", code)
	}
}

// TestOverloadMetricsScrape: the serving-pressure signals are on /metrics
// with typed families — queue depth gauge, the slot stage's histogram,
// labeled shed counters.
func TestOverloadMetricsScrape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createFigure1Session(t, ts)
	got := metricsText(t, ts)
	for _, want := range []string{
		"# TYPE gdrd_actor_queue_depth gauge",
		"gdrd_actor_queue_depth 0",
		`gdrd_stage_seconds_bucket{route="create",stage="slot",`,
		"# TYPE gdrd_shed_total counter",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"gdr/internal/core"
)

// doJSONHeaders is doJSON with arbitrary request headers attached — the
// cluster tests speak the proxy's placement-header dialect.
func doJSONHeaders(t testing.TB, client *http.Client, method, url string, hdr map[string]string, body any, out any) int {
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
	for k, v := range hdr {
		req.Header.Set(k, v)
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
	return resp.StatusCode
}

// TestSnapshotLeaseDefersEviction is the regression test for the
// TTL-eviction/migration race: a snapshot export in flight (the proxy
// pulling the session off this node) must pin the session against the
// janitor, or the source could be evicted while the importing node is
// still reading bytes — losing the session from both nodes. The test
// jams the actor so the export's encode blocks, expires the TTL under
// it, and runs the janitor pass.
func TestSnapshotLeaseDefersEviction(t *testing.T) {
	st, clk := newTestStore(t, time.Minute, 0)
	info, _, err := st.Create(context.Background(), fig1Request())
	if err != nil {
		t.Fatal(err)
	}
	e, ok := st.Get(info.ID)
	if !ok {
		t.Fatal("session missing")
	}
	// Occupy the actor so Snapshot's encode stays queued behind it, holding
	// the export (and its lease) open for as long as the test needs.
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_ = e.actor.do(context.Background(), "test", func(*core.Session) {
			close(entered)
			<-release
		})
	}()
	<-entered
	snapDone := make(chan error, 1)
	go func() {
		_, _, err := st.Snapshot(context.Background(), e)
		snapDone <- err
	}()
	// Wait until the export holds its lease (acquired before the encode is
	// queued, so this is quick even with the actor jammed).
	for {
		e.mu.Lock()
		held := e.leases > 0
		e.mu.Unlock()
		if held {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// TTL expires mid-export; the janitor pass must skip the leased entry.
	clk.advance(5 * time.Minute)
	st.evictIdle()
	if st.Len() != 1 {
		t.Fatal("janitor evicted a session with a snapshot export in flight")
	}
	close(release)
	if err := <-snapDone; err != nil {
		t.Fatalf("export failed: %v", err)
	}
	// The lease is gone and the export restamped the idle clock: the session
	// lives a full TTL from the export's end, then eviction works again.
	clk.advance(30 * time.Second)
	st.evictIdle()
	if st.Len() != 1 {
		t.Fatal("session evicted before a full TTL after the export")
	}
	clk.advance(5 * time.Minute)
	st.evictIdle()
	if st.Len() != 0 {
		t.Fatal("released session never became evictable")
	}
}

// TestAssignHeadersRequirePrivilege pins the placement-header gate: a
// plain client (open mode, no -cluster) presenting X-Gdr-Assign-Token
// must be refused — otherwise any tenant could squat tokens and break
// the proxy's routing invariants.
func TestAssignHeadersRequirePrivilege(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code := doJSONHeaders(t, ts.Client(), "POST", ts.URL+"/v1/sessions",
		map[string]string{AssignTokenHeader: strings.Repeat("ab", 16)}, fig1Request(), nil)
	if code != http.StatusForbidden {
		t.Fatalf("assign header without privilege: code = %d, want 403", code)
	}
	code = doJSONHeaders(t, ts.Client(), "POST", ts.URL+"/v1/sessions",
		map[string]string{AssignTenantHeader: "acme"}, fig1Request(), nil)
	if code != http.StatusForbidden {
		t.Fatalf("assign-tenant header without privilege: code = %d, want 403", code)
	}
}

// TestClusterModeAssignedToken drives the header path the proxy uses for
// placement and migration imports: the assigned token is honored exactly,
// a colliding token is a 409 (the migration dedup signal), and a
// malformed token is rejected before any session is built.
func TestClusterModeAssignedToken(t *testing.T) {
	_, ts := newTestServer(t, Config{ClusterMode: true})
	token := strings.Repeat("0123456789abcdef", 2)
	var created CreateSessionResponse
	code := doJSONHeaders(t, ts.Client(), "POST", ts.URL+"/v1/sessions",
		map[string]string{AssignTokenHeader: token}, fig1Request(), &created)
	if code != http.StatusCreated {
		t.Fatalf("assigned-token create: code = %d, want 201", code)
	}
	if created.Session.ID != token {
		t.Fatalf("session ID = %q, want assigned token %q", created.Session.ID, token)
	}
	// The session answers on its assigned token like any other.
	if code := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/sessions/"+token+"/status", nil, nil); code != http.StatusOK {
		t.Fatalf("GET assigned session status: code = %d", code)
	}
	// Same token again: the conflict the migration dedup path keys off.
	code = doJSONHeaders(t, ts.Client(), "POST", ts.URL+"/v1/sessions",
		map[string]string{AssignTokenHeader: token}, fig1Request(), nil)
	if code != http.StatusConflict {
		t.Fatalf("colliding token: code = %d, want 409", code)
	}
	for _, bad := range []string{"short", strings.Repeat("G", 32), strings.Repeat("AB", 16)} {
		code = doJSONHeaders(t, ts.Client(), "POST", ts.URL+"/v1/sessions",
			map[string]string{AssignTokenHeader: bad}, fig1Request(), nil)
		if code != http.StatusBadRequest {
			t.Fatalf("malformed token %q: code = %d, want 400", bad, code)
		}
	}
}

// TestTokenConflictReportsLiveWatermark pins the 409 a migrating proxy
// reads: a create that hits a live token names that copy's watermark, so
// the proxy can tell an older destination copy from the one it moves.
func TestTokenConflictReportsLiveWatermark(t *testing.T) {
	_, ts := newTestServer(t, Config{ClusterMode: true})
	token := strings.Repeat("fedcba9876543210", 2)
	create := func() (int, string) {
		body, _ := json.Marshal(fig1Request())
		req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions", bytes.NewReader(body))
		req.Header.Set(AssignTokenHeader, token)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get(MutationSeqHeader)
	}
	if code, _ := create(); code != http.StatusCreated {
		t.Fatalf("create: code = %d", code)
	}
	if code, seq := create(); code != http.StatusConflict || seq != "0" {
		t.Fatalf("conflict on a fresh session: code %d, watermark %q; want 409 and 0", code, seq)
	}
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions/"+token+"/feedback",
		FeedbackRequest{Items: []FeedbackItem{{Tid: 0, Attr: "CT", Value: "nope", Feedback: "confirm"}}}, nil); code != 200 {
		t.Fatalf("feedback: code = %d", code)
	}
	if code, seq := create(); code != http.StatusConflict || seq != "1" {
		t.Fatalf("conflict after one round: code %d, watermark %q; want 409 and 1", code, seq)
	}
}

// TestAdminKeyAssignsAcrossTenants exercises the authenticated cluster
// flow: an admin key places a session under another tenant's ownership
// (what a migration import does), the owning tenant sees and uses it,
// other tenants do not, and a non-admin key may not use the headers.
func TestAdminKeyAssignsAcrossTenants(t *testing.T) {
	tenants, err := ParseKeyfile(strings.NewReader(`
opskey-123 ops admin
acmekey-123 acme
rivalkey-12 rival
`))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Tenants: tenants})
	token := strings.Repeat("f00d", 8)

	// Non-admin tenants must not place sessions, even their own.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions", bytes.NewReader(mustJSON(t, fig1Request())))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer acmekey-123")
	req.Header.Set(AssignTokenHeader, token)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("non-admin assign: code = %d, want 403", resp.StatusCode)
	}

	// The admin key imports the session with acme's ownership preserved.
	var created CreateSessionResponse
	code := doJSONHeaders(t, ts.Client(), "POST", ts.URL+"/v1/sessions",
		map[string]string{
			"Authorization":    "Bearer opskey-123",
			AssignTokenHeader:  token,
			AssignTenantHeader: "acme",
		}, fig1Request(), &created)
	if code != http.StatusCreated || created.Session.ID != token {
		t.Fatalf("admin placement: code = %d id = %q", code, created.Session.ID)
	}
	url := ts.URL + "/v1/sessions/" + token + "/status"
	if code, _ := doJSONKey(t, ts.Client(), "acmekey-123", "GET", url, nil, nil); code != http.StatusOK {
		t.Fatalf("owning tenant GET: code = %d, want 200", code)
	}
	if code, _ := doJSONKey(t, ts.Client(), "rivalkey-12", "GET", url, nil, nil); code != http.StatusNotFound {
		t.Fatalf("other tenant GET: code = %d, want 404", code)
	}
	if code, _ := doJSONKey(t, ts.Client(), "opskey-123", "GET", url, nil, nil); code != http.StatusOK {
		t.Fatalf("admin GET: code = %d, want 200", code)
	}
	// Bogus assigned tenant names are rejected — they would corrupt
	// snapshot file naming.
	code = doJSONHeaders(t, ts.Client(), "POST", ts.URL+"/v1/sessions",
		map[string]string{
			"Authorization":    "Bearer opskey-123",
			AssignTenantHeader: "not/a/name",
		}, fig1Request(), nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bad assigned tenant: code = %d, want 400", code)
	}
}

// TestParseKeyfileAdmin covers the bare "admin" keyfile option.
func TestParseKeyfileAdmin(t *testing.T) {
	tenants, err := ParseKeyfile(strings.NewReader("opskey-123 ops admin rate=5\nuserkey-12 user rate=5"))
	if err != nil {
		t.Fatal(err)
	}
	if !tenants[0].Admin || tenants[0].RatePerSec != 5 {
		t.Fatalf("admin tenant parsed as %+v", tenants[0])
	}
	if tenants[1].Admin {
		t.Fatal("non-admin tenant parsed as admin")
	}
	if _, err := ParseKeyfile(strings.NewReader("k1234567 t admin=yes")); err == nil {
		t.Fatal("admin=yes must be rejected (the option is bare)")
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

package server

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gdr/internal/core"
	"gdr/internal/snapshot"
)

// plantSnapshots writes data as the snapshot file of each key in dir and
// returns the paths.
func plantSnapshots(t *testing.T, dir string, data []byte, keys ...string) []string {
	t.Helper()
	paths := make([]string, len(keys))
	for i, key := range keys {
		paths[i] = filepath.Join(dir, key+snapSuffix)
		if err := os.WriteFile(paths[i], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// requireSkipped checks that the boot logged each path as skipped and left
// it in place.
func requireSkipped(t *testing.T, boot string, paths ...string) {
	t.Helper()
	for _, p := range paths {
		if !strings.Contains(boot, "skipping snapshot "+p) {
			t.Errorf("%s was not reported as skipped:\n%s", p, boot)
		}
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s was not left in place: %v", p, err)
		}
	}
}

// TestTokenNamedTwiceRestoresNeither: an owned session's export saved
// beside its checkpoint as <token>.snap gives one token two files. The
// token starts with f, so the bare file sorts after alice@<token>.snap: a
// boot that restored both would leave the unowned copy live, readable by
// every tenant. No single owner can be trusted, so neither file is
// restored: both are logged and kept, nothing counts as restored, and both
// tenants get 404.
func TestTokenNamedTwiceRestoresNeither(t *testing.T) {
	dir := t.TempDir()
	tenants := []TenantConfig{
		{Name: "alice", Key: "alicekey123"},
		{Name: "bob", Key: "bobkey45678"},
	}
	cfg := Config{Workers: 2, Session: core.Config{Workers: 1}, DataDir: dir, Tenants: tenants}
	token := "f" + strings.Repeat("0123456789abcdef", 2)[1:]
	srvA := New(cfg)
	if _, _, err := srvA.Store().CreateAs(context.Background(), "alice",
		CreateSessionRequest{Token: token, CSV: figure1CSV, Rules: figure1Rules, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	e, ok := srvA.Store().Get(token)
	if !ok {
		t.Fatal("session vanished")
	}
	snap, _, err := srvA.Store().Snapshot(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	srvA.Close()
	owned := filepath.Join(dir, SessionKey("alice", token)+snapSuffix)
	bare := plantSnapshots(t, dir, snap, token)[0]

	srvB, tsB, boot := bootLogged(t, cfg)
	for _, key := range []string{"alicekey123", "bobkey45678"} {
		code, _ := doJSONKey(t, tsB.Client(), key, "GET", tsB.URL+"/v1/sessions/"+token+"/status", nil, nil)
		if code != http.StatusNotFound {
			t.Errorf("GET with key %s: status %d, want 404", key, code)
		}
	}
	if got := srvB.Registry().Counter("gdrd_sessions_restored_total").Value(); got != 0 {
		t.Errorf("gdrd_sessions_restored_total = %d, want 0", got)
	}
	requireSkipped(t, boot, owned, bare)
}

// TestBootRestoreStopsAtTheCap: a data directory holding more sessions than
// MaxSessions restores the first ones in key order, up to the cap, and
// leaves the rest on disk.
func TestBootRestoreStopsAtTheCap(t *testing.T) {
	dir := t.TempDir()
	keys := []string{strings.Repeat("0", 32), strings.Repeat("1", 32), "acme@" + strings.Repeat("2", 32)}
	paths := plantSnapshots(t, dir, mustSnapshotBytes(t, 3), keys...)

	srv, _, boot := bootLogged(t, Config{MaxSessions: 2, Workers: 2, Session: core.Config{Workers: 1}, DataDir: dir})
	if got := srv.Registry().Counter("gdrd_sessions_restored_total").Value(); got != 2 {
		t.Fatalf("gdrd_sessions_restored_total = %d, want 2", got)
	}
	for _, key := range keys[:2] {
		if _, ok := srv.Store().Get(key); !ok {
			t.Fatalf("session %s below the cap was not restored", key)
		}
	}
	if _, ok := srv.Store().Get(strings.Repeat("2", 32)); ok {
		t.Fatal("a session past the cap was restored")
	}
	if !strings.Contains(boot, "session cap reached; not restoring") || !strings.Contains(boot, paths[2]) {
		t.Fatalf("the cap was not reported with the first file it left:\n%s", boot)
	}
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("%s is no longer on disk: %v", p, err)
		}
	}
}

// TestBootSkipsSnapshotOverImportLimits: boot restore is an import, so a
// planted snapshot whose configuration no import would accept is skipped,
// logged and kept, while the well-formed one beside it is restored.
func TestBootSkipsSnapshotOverImportLimits(t *testing.T) {
	dir := t.TempDir()
	st := mustFigure1State(t)
	st.Config.Forest.K = 1000 // the import limit is 256
	over, err := snapshot.EncodeStateMeta("over", snapshot.Meta{MutSeq: 2}, st)
	if err != nil {
		t.Fatal(err)
	}
	good, bad := strings.Repeat("0", 32), strings.Repeat("1", 32)
	plantSnapshots(t, dir, mustSnapshotBytes(t, 2), good)
	skipped := plantSnapshots(t, dir, over, bad)

	srv, _, boot := bootLogged(t, Config{Workers: 2, Session: core.Config{Workers: 1}, DataDir: dir})
	if _, ok := srv.Store().Get(good); !ok {
		t.Fatal("the well-formed snapshot was not restored")
	}
	if _, ok := srv.Store().Get(bad); ok {
		t.Fatal("a snapshot over the import limits was restored")
	}
	requireSkipped(t, boot, skipped...)
	if !strings.Contains(boot, "exceeds limit") {
		t.Fatalf("the skip does not name the limit:\n%s", boot)
	}
}

// TestExportOffersSessionKey: the export's Content-Disposition offers the
// session's key as the file name — alice@<token>.snap for an owned session,
// <token>.snap for an unowned one — the name its own checkpoint has.
func TestExportOffersSessionKey(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, Session: core.Config{Workers: 1},
		Tenants: []TenantConfig{{Name: "alice", Key: "alicekey123"}}})
	var owned CreateSessionResponse
	if code, _ := doJSONKey(t, ts.Client(), "alicekey123", "POST", ts.URL+"/v1/sessions", fig1Request(), &owned); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	unowned, _, err := srv.Store().Create(context.Background(), fig1Request())
	if err != nil {
		t.Fatal(err)
	}
	for id, name := range map[string]string{
		owned.Session.ID: "alice@" + owned.Session.ID + snapSuffix,
		unowned.ID:       unowned.ID + snapSuffix,
	} {
		code, hdr := doJSONKey(t, ts.Client(), "alicekey123", "POST", ts.URL+"/v1/sessions/"+id+"/snapshot", nil, nil)
		want := fmt.Sprintf("attachment; filename=%q", name)
		if got := hdr.Get("Content-Disposition"); code != http.StatusOK || got != want {
			t.Fatalf("export of %s: status %d, Content-Disposition %q; want 200 and %q", id, code, got, want)
		}
	}
}

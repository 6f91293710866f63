package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gdr/internal/core"
	"gdr/internal/snapshot"
)

// newDurableServer boots a server over a data directory without the usual
// cleanup-time Close coupling, so tests can simulate crashes (abandon
// without flushing) and restarts explicitly.
func newDurableServer(t *testing.T, dir string, session core.Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{Workers: 8, Session: session, DataDir: dir})
	ts := httptest.NewServer(srv.Handler())
	return srv, ts
}

// rawGET fetches one path and returns the exact response body — the unit
// the byte-identical acceptance criterion is stated in.
func rawGET(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(body)
}

// copyDir snapshots the data directory as it exists right now — the state
// a crashed process leaves behind.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue // the replicas/ subdir is not part of the session state
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func createHTTPSession(t *testing.T, ts *httptest.Server, csvText, rulesText string, seed int64) string {
	t.Helper()
	var created CreateSessionResponse
	code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions",
		CreateSessionRequest{CSV: csvText, Rules: rulesText, Seed: seed}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	return created.Session.ID
}

// TestCrashRecoveryReplayEquivalence is the acceptance bar of this PR: a
// server killed mid-run (no graceful flush — recovery sees only what
// on-feedback checkpointing persisted) restores its sessions under their
// original tokens, serves byte-identical /groups, /updates and /export
// responses at the recovery point, and replaying the remaining oracle
// trace lands on a final export byte-identical to an uninterrupted run at
// the same seed — serial and with intra-session workers.
func TestCrashRecoveryReplayEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const (
				n       = 200
				seed    = int64(13)
				crashAt = 4
				cap     = 200
			)
			csvText, rulesText, d := hospitalUpload(t, n, seed)
			session := core.Config{Workers: workers}

			// The uninterrupted reference run.
			_, tsU := newTestServer(t, Config{Workers: 8, Session: session})
			traceU, exportU := driveHTTP(t, tsU, csvText, rulesText, d.Truth, seed, cap)
			if len(traceU) <= crashAt {
				t.Fatalf("reference run finished in %d rounds; crash point %d never reached", len(traceU), crashAt)
			}

			// The interrupted run: drive crashAt rounds against a durable
			// server, then crash it (copy the data dir as-is; no drain, no
			// final flush).
			dirA := t.TempDir()
			srvA, tsA := newDurableServer(t, dirA, session)
			id := createHTTPSession(t, tsA, csvText, rulesText, seed)
			traceA := driveSessionRounds(t, tsA, id, d.Truth, crashAt)
			_, groupsA := rawGET(t, tsA, "/v1/sessions/"+id+"/groups?order=voi")
			var gl GroupsResponse
			if err := json.Unmarshal([]byte(groupsA), &gl); err != nil || len(gl.Groups) == 0 {
				t.Fatalf("groups at crash point: %v %q", err, groupsA)
			}
			topKey := gl.Groups[0].Key
			_, updatesA := rawGET(t, tsA, "/v1/sessions/"+id+"/groups/"+topKey+"/updates")
			exportA := exportHTTP(t, tsA, id)
			crashed := copyDir(t, dirA)
			tsA.Close()
			srvA.Close()

			// Recovery: a fresh process over the crashed state.
			srvB, tsB := newDurableServer(t, crashed, session)
			defer func() { tsB.Close(); srvB.Close() }()
			if got := srvB.Registry().Counter("gdrd_sessions_restored_total").Value(); got != 1 {
				t.Fatalf("restored %d sessions, want 1", got)
			}

			// Same token, byte-identical responses at the recovery point.
			if code, groupsB := rawGET(t, tsB, "/v1/sessions/"+id+"/groups?order=voi"); code != 200 || groupsB != groupsA {
				t.Fatalf("restored /groups diverges (status %d):\n a: %s\n b: %s", code, groupsA, groupsB)
			}
			if _, updatesB := rawGET(t, tsB, "/v1/sessions/"+id+"/groups/"+topKey+"/updates"); updatesB != updatesA {
				t.Fatal("restored /updates diverges")
			}
			if exportB := exportHTTP(t, tsB, id); exportB != exportA {
				t.Fatal("restored /export diverges")
			}

			// Replay the remaining oracle trace; the combined trajectory and
			// the final instance must match the uninterrupted run exactly.
			traceB := driveSessionRounds(t, tsB, id, d.Truth, cap)
			combined := append(append([]roundTrace(nil), traceA...), traceB...)
			if !reflect.DeepEqual(combined, traceU) {
				for i := range traceU {
					if i >= len(combined) || !reflect.DeepEqual(combined[i], traceU[i]) {
						t.Fatalf("round %d diverges after recovery:\n got:  %+v\n want: %+v", i, combined[i], traceU[i])
					}
				}
				t.Fatalf("trace lengths diverge: %d vs %d", len(combined), len(traceU))
			}
			if finalB := exportHTTP(t, tsB, id); finalB != exportU {
				t.Fatal("final export after crash recovery diverges from the uninterrupted run")
			}
		})
	}
}

// TestSnapshotEndpointExportImport: POST .../snapshot and the restore-on-
// create path form an explicit export/import loop — the imported session
// (fresh token, possibly another server) continues byte-identically to the
// original.
func TestSnapshotEndpointExportImport(t *testing.T) {
	const (
		n    = 150
		seed = int64(29)
	)
	csvText, rulesText, d := hospitalUpload(t, n, seed)
	_, ts := newTestServer(t, Config{Session: core.Config{Workers: 1}})
	id := createHTTPSession(t, ts, csvText, rulesText, seed)
	driveSessionRounds(t, ts, id, d.Truth, 3)

	resp, err := ts.Client().Post(ts.URL+"/v1/sessions/"+id+"/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(snap) == 0 {
		t.Fatalf("snapshot: status %d, %d bytes", resp.StatusCode, len(snap))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("snapshot content type %q", ct)
	}
	if v := resp.Header.Get("X-GDR-Snapshot-Version"); v == "" {
		t.Fatal("snapshot response missing format version header")
	}

	// Import on a second, fresh server.
	_, ts2 := newTestServer(t, Config{Session: core.Config{Workers: 1}})
	var imported CreateSessionResponse
	code := doJSON(t, ts2.Client(), "POST", ts2.URL+"/v1/sessions",
		CreateSessionRequest{Snapshot: snap, Name: "imported"}, &imported)
	if code != http.StatusCreated {
		t.Fatalf("import: status %d", code)
	}
	if imported.Session.ID == id {
		t.Fatal("import reused the original token")
	}
	if imported.Session.Name != "imported" {
		t.Fatalf("import name %q", imported.Session.Name)
	}

	// Both sessions continue in lockstep.
	ta := driveSessionRounds(t, ts, id, d.Truth, 6)
	tb := driveSessionRounds(t, ts2, imported.Session.ID, d.Truth, 6)
	if !reflect.DeepEqual(ta, tb) {
		t.Fatalf("imported session diverges:\n a: %+v\n b: %+v", ta, tb)
	}
	if ea, eb := exportHTTP(t, ts, id), exportHTTP(t, ts2, imported.Session.ID); ea != eb {
		t.Fatal("imported session export diverges")
	}

	// Invalid import requests are client errors, not server faults.
	for name, req := range map[string]CreateSessionRequest{
		"snapshot plus csv":  {Snapshot: snap, CSV: csvText, Rules: rulesText},
		"snapshot plus seed": {Snapshot: snap, Seed: 99},
		"corrupt snapshot":   {Snapshot: snap[:len(snap)/2]},
	} {
		var errBody ErrorBody
		if code := doJSON(t, ts2.Client(), "POST", ts2.URL+"/v1/sessions", req, &errBody); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%+v)", name, code, errBody)
		}
	}
}

// TestCorruptSnapshotsSkippedOnBoot: a damaged file in the data directory
// must not take the daemon down or block the healthy sessions around it.
func TestCorruptSnapshotsSkippedOnBoot(t *testing.T) {
	csvText, rulesText, d := hospitalUpload(t, 120, 7)
	dir := t.TempDir()
	srvA, tsA := newDurableServer(t, dir, core.Config{Workers: 1})
	id := createHTTPSession(t, tsA, csvText, rulesText, 7)
	driveSessionRounds(t, tsA, id, d.Truth, 2)
	tsA.Close()
	srvA.Close()

	// Plant damage next to the healthy snapshot: garbage, a truncated copy
	// of the real thing, and an empty file.
	healthy, err := os.ReadFile(filepath.Join(dir, id+snapSuffix))
	if err != nil {
		t.Fatal(err)
	}
	writes := map[string][]byte{
		"garbage.snap":   []byte("not a snapshot at all"),
		"truncated.snap": healthy[:len(healthy)/3],
		"empty.snap":     {},
	}
	for name, data := range writes {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var logged bytes.Buffer
	srvB := New(Config{Workers: 2, Session: core.Config{Workers: 1}, DataDir: dir,
		Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	tsB := httptest.NewServer(srvB.Handler())
	defer func() { tsB.Close(); srvB.Close() }()

	if got := srvB.Store().Len(); got != 1 {
		t.Fatalf("restored %d sessions, want only the healthy one", got)
	}
	if code, _ := rawGET(t, tsB, "/v1/sessions/"+id+"/status"); code != 200 {
		t.Fatalf("healthy session not served after boot: %d", code)
	}
	if !strings.Contains(logged.String(), "skipping snapshot") {
		t.Fatalf("corrupt snapshots were not reported:\n%s", logged.String())
	}
}

// TestCloseFlushesDirtySessions is the SIGTERM-drain bugfix: a session with
// undurable state at shutdown gets a final checkpoint before its actor
// stops (previously drain only stopped accepting work).
func TestCloseFlushesDirtySessions(t *testing.T) {
	csvText, rulesText, _ := hospitalUpload(t, 100, 3)
	dir := t.TempDir()
	srv, ts := newDurableServer(t, dir, core.Config{Workers: 1})
	defer ts.Close()
	id := createHTTPSession(t, ts, csvText, rulesText, 3)

	// Wipe the on-disk state and mark the session dirty, as if its last
	// checkpoint had failed mid-run.
	path := filepath.Join(dir, id+snapSuffix)
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	e, ok := srv.Store().Get(id)
	if !ok {
		t.Fatal("session vanished")
	}
	e.markUndurable()

	srv.Close()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("drain did not flush a final checkpoint: %v", err)
	}
	// And the flushed snapshot is complete: a fresh boot restores it.
	srv2 := New(Config{Workers: 2, Session: core.Config{Workers: 1}, DataDir: dir})
	defer srv2.Close()
	if got := srv2.Store().Len(); got != 1 {
		t.Fatalf("flushed snapshot did not restore: %d sessions", got)
	}
}

// bootLogged starts a server with its log captured and returns what the
// boot wrote, read before any request runs.
func bootLogged(t *testing.T, cfg Config) (*Server, *httptest.Server, string) {
	t.Helper()
	var logged bytes.Buffer
	cfg.Logger = slog.New(slog.NewTextHandler(&logged, nil))
	srv := New(cfg)
	boot := logged.String()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts, boot
}

// exportSnapshot POSTs .../snapshot and returns the bytes and the
// watermark header.
func exportSnapshot(t *testing.T, ts *httptest.Server, id string) ([]byte, string) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions/"+id+"/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	return data, resp.Header.Get(MutationSeqHeader)
}

// TestStraySnapshotNameNotRestored: an export saved into the data directory
// under a name that is no session key — the README's session.snap — is not
// restored at boot, where it would answer under a guessable id that no
// proxy can move. It is logged and left in place.
func TestStraySnapshotNameNotRestored(t *testing.T) {
	dir := t.TempDir()
	srvA, tsA := newDurableServer(t, dir, core.Config{Workers: 1})
	id := createFigure1Session(t, tsA).Session.ID
	snap, _ := exportSnapshot(t, tsA, id)
	tsA.Close()
	srvA.Close()
	stray := filepath.Join(dir, "session"+snapSuffix)
	if err := os.WriteFile(stray, snap, 0o644); err != nil {
		t.Fatal(err)
	}

	srvB, tsB, boot := bootLogged(t, Config{Workers: 2, Session: core.Config{Workers: 1}, DataDir: dir})
	if code, _ := rawGET(t, tsB, "/v1/sessions/session/status"); code != http.StatusNotFound {
		t.Fatalf("the stray export answers under id %q: status %d, want 404", "session", code)
	}
	if got := srvB.Store().Len(); got != 1 {
		t.Fatalf("restored %d sessions, want only %s", got, id)
	}
	if code, _ := rawGET(t, tsB, "/v1/sessions/"+id+"/status"); code != http.StatusOK {
		t.Fatalf("the session's own snapshot was not restored: status %d", code)
	}
	if !strings.Contains(boot, "skipping snapshot "+stray) {
		t.Fatalf("the stray file was not reported:\n%s", boot)
	}
	if _, err := os.Stat(stray); err != nil {
		t.Fatalf("the stray file was not left in place: %v", err)
	}
}

// TestBootDeletesTempFiles: a process killed inside writeAtomic leaves its
// temp file behind. The boot scan deletes it, in both snapshot stores, and
// restores nothing from it, even when it holds a complete snapshot under a
// well-formed key.
func TestBootDeletesTempFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "replicas"), 0o755); err != nil {
		t.Fatal(err)
	}
	snap := mustSnapshotBytes(t, 4)
	temps := []string{
		filepath.Join(dir, replicaTestToken+snapSuffix+".tmp-123"),
		filepath.Join(dir, "replicas", replicaTestToken+snapSuffix+".tmp-456"),
	}
	for _, p := range temps {
		if err := os.WriteFile(p, snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srv, _ := newTestServer(t, Config{ClusterMode: true, DataDir: dir})
	for _, p := range temps {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("temp file %s survived the boot scan (stat: %v)", p, err)
		}
	}
	if got := srv.Store().Len(); got != 0 {
		t.Fatalf("restored %d sessions from a temp file", got)
	}
	if got := srv.replicas.count(); got != 0 {
		t.Fatalf("restored %d replicas from a temp file", got)
	}
}

// TestCorruptSnapshotUnderValidKeySkipped: a damaged file under a
// well-formed key reaches the decoder, fails it, and is skipped with a log
// line and left in place — in both snapshot stores — while the healthy
// session and replica beside it are still served.
func TestCorruptSnapshotUnderValidKeySkipped(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{ClusterMode: true, Workers: 2, Session: core.Config{Workers: 1}, DataDir: dir}
	srvA := New(cfg)
	tsA := httptest.NewServer(srvA.Handler())
	keep := createFigure1Session(t, tsA).Session.ID
	lose := createFigure1Session(t, tsA).Session.ID
	keepKey, loseKey := replicaTestToken, "acme@fedcba9876543210fedcba9876543210"
	if code := pushReplica(t, tsA, keepKey, 5, mustSnapshotBytes(t, 5)); code != http.StatusOK {
		t.Fatalf("push: status %d", code)
	}
	if code := pushReplica(t, tsA, loseKey, 6, mustSnapshotBytes(t, 6)); code != http.StatusOK {
		t.Fatalf("push: status %d", code)
	}
	tsA.Close()
	srvA.Close()
	damaged := []string{
		filepath.Join(dir, lose+snapSuffix),
		filepath.Join(dir, "replicas", loseKey+snapSuffix),
	}
	for _, p := range damaged {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	srvB, tsB, boot := bootLogged(t, cfg)
	if code, _ := rawGET(t, tsB, "/v1/sessions/"+keep+"/status"); code != http.StatusOK {
		t.Fatalf("healthy session not served after boot: %d", code)
	}
	if code, _ := rawGET(t, tsB, "/v1/sessions/"+lose+"/status"); code != http.StatusNotFound {
		t.Fatalf("damaged session answers %d, want 404", code)
	}
	if data, seq, ok := srvB.replicas.get(keepKey); !ok || seq != 5 || !bytes.Equal(data, mustSnapshotBytes(t, 5)) {
		t.Fatalf("healthy replica not served after boot: ok %v, seq %d", ok, seq)
	}
	if _, _, ok := srvB.replicas.get(loseKey); ok {
		t.Fatal("damaged replica was restored")
	}
	for _, p := range damaged {
		if !strings.Contains(boot, "skipping snapshot "+p) {
			t.Fatalf("%s was not reported:\n%s", p, boot)
		}
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("%s was not left in place: %v", p, err)
		}
	}
}

// TestExportLandsCheckpoint: an export of a dirty durable session also lands
// its checkpoint, at the export's own watermark, and leaves the session
// clean. A random-order poll is the mutation: it has no checkpoint of its
// own.
func TestExportLandsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{Workers: 2, Session: core.Config{Workers: 1}, DataDir: dir})
	id := createFigure1Session(t, ts).Session.ID
	sessionGET(t, ts, id, "/groups?order=random")
	e, ok := srv.Store().Get(id)
	if !ok {
		t.Fatal("session vanished")
	}
	if !e.isDirty() {
		t.Fatal("a random-order poll left the session clean")
	}

	snap, header := exportSnapshot(t, ts, id)
	file, err := os.ReadFile(filepath.Join(dir, id+snapSuffix))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := snapshot.Watermark(file)
	if err != nil {
		t.Fatal(err)
	}
	if header == "0" || strconv.FormatUint(seq, 10) != header {
		t.Fatalf("checkpoint watermark %d, export's %s header %q", seq, MutationSeqHeader, header)
	}
	if !bytes.Equal(file, snap) {
		t.Fatal("the checkpoint holds other bytes than the export")
	}
	if e.isDirty() {
		t.Fatal("session still dirty after the export's checkpoint")
	}
}

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
	"strings"
	"testing"

	"gdr/internal/core"
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

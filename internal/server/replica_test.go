package server

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"gdr/internal/snapshot"
)

// replicaTestToken is a well-formed session token for replica keys.
const replicaTestToken = "0123456789abcdef0123456789abcdef"

// mustSnapshotBytes encodes a valid v2 snapshot for replica pushes.
func mustSnapshotBytes(t testing.TB, mut uint64) []byte {
	t.Helper()
	data, err := snapshot.EncodeStateMeta("replica-test", snapshot.Meta{MutSeq: mut}, mustFigure1State(t))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// pushReplica issues one replica PUT and returns the status code.
func pushReplica(t testing.TB, ts *httptest.Server, key string, seq uint64, data []byte) int {
	t.Helper()
	req, err := http.NewRequest("PUT", ts.URL+"/v1/replicas/"+key, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(MutationSeqHeader, strconv.FormatUint(seq, 10))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestReplicaLifecycle drives the spill store over HTTP: push, list, pull,
// watermark monotonicity, drop.
func TestReplicaLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{ClusterMode: true, DataDir: t.TempDir()})
	key := "acme@" + replicaTestToken
	snap3 := mustSnapshotBytes(t, 3)

	if code := pushReplica(t, ts, key, 3, snap3); code != 200 {
		t.Fatalf("push: status %d", code)
	}
	// Equal watermark: idempotent retry, still 200.
	if code := pushReplica(t, ts, key, 3, snap3); code != 200 {
		t.Fatalf("idempotent re-push: status %d", code)
	}
	// Older watermark: a delayed push must never roll the copy back.
	if code := pushReplica(t, ts, key, 2, mustSnapshotBytes(t, 2)); code != http.StatusConflict {
		t.Fatalf("stale push: status %d, want 409", code)
	}

	var list ReplicaList
	if code := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/replicas", nil, &list); code != 200 {
		t.Fatalf("list: status %d", code)
	}
	if len(list.Replicas) != 1 {
		t.Fatalf("list: %+v", list)
	}
	r := list.Replicas[0]
	if r.Key != key || r.Tenant != "acme" || r.Token != replicaTestToken || r.Seq != 3 || r.Size != len(snap3) {
		t.Fatalf("listed replica: %+v", r)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/replicas/" + key)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get(MutationSeqHeader) != "3" {
		t.Fatalf("get: status %d, seq %q", resp.StatusCode, resp.Header.Get(MutationSeqHeader))
	}
	if !bytes.Equal(got, snap3) {
		t.Fatal("pulled replica differs from the pushed bytes")
	}

	if code := doJSON(t, ts.Client(), "DELETE", ts.URL+"/v1/replicas/"+key, nil, nil); code != 200 {
		t.Fatalf("delete: status %d", code)
	}
	if code := doJSON(t, ts.Client(), "DELETE", ts.URL+"/v1/replicas/"+key, nil, nil); code != http.StatusNotFound {
		t.Fatalf("second delete: status %d, want 404", code)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/replicas/" + key)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", resp.StatusCode)
	}
}

// TestReplicaPutRejections: corrupt bodies, malformed keys, and missing
// watermarks never reach the disk.
func TestReplicaPutRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{ClusterMode: true})
	good := mustSnapshotBytes(t, 1)

	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)/2] ^= 0xff // CRC mismatch
	if code := pushReplica(t, ts, replicaTestToken, 1, corrupt); code != http.StatusBadRequest {
		t.Fatalf("corrupt body: status %d, want 400", code)
	}
	if code := pushReplica(t, ts, replicaTestToken, 1, []byte("not a snapshot")); code != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d, want 400", code)
	}
	for _, key := range []string{
		"short",                                // not a token
		"UPPER@" + replicaTestToken[:31] + "G", // bad hex
		"bad tenant@" + replicaTestToken,       // space escapes tenantNameRE
		"@" + replicaTestToken,                 // empty tenant with separator
	} {
		if code := pushReplica(t, ts, key, 1, good); code != http.StatusBadRequest {
			t.Fatalf("key %q: status %d, want 400", key, code)
		}
	}
	// Missing watermark header.
	req, _ := http.NewRequest("PUT", ts.URL+"/v1/replicas/"+replicaTestToken, bytes.NewReader(good))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing seq header: status %d, want 400", resp.StatusCode)
	}
}

// TestReplicaEndpointsGated: without cluster mode or an admin key, every
// replica endpoint is forbidden.
func TestReplicaEndpointsGated(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code := pushReplica(t, ts, replicaTestToken, 1, mustSnapshotBytes(t, 1)); code != http.StatusForbidden {
		t.Fatalf("put: status %d, want 403", code)
	}
	for _, c := range []struct{ method, path string }{
		{"GET", "/v1/replicas"},
		{"GET", "/v1/replicas/" + replicaTestToken},
		{"DELETE", "/v1/replicas/" + replicaTestToken},
	} {
		if code := doJSON(t, ts.Client(), c.method, ts.URL+c.path, nil, nil); code != http.StatusForbidden {
			t.Fatalf("%s %s: status %d, want 403", c.method, c.path, code)
		}
	}
}

// TestReplicaSurvivesRestart: with a data directory, held replicas are
// rescanned on boot — the whole point of the spill store is surviving the
// owner's death, so it must also survive its own host's restart.
func TestReplicaSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{ClusterMode: true, DataDir: dir})
	snap := mustSnapshotBytes(t, 7)
	if code := pushReplica(t, ts, replicaTestToken, 7, snap); code != 200 {
		t.Fatalf("push: status %d", code)
	}
	ts.Close()

	_, ts2 := newTestServer(t, Config{ClusterMode: true, DataDir: dir})
	resp, err := ts2.Client().Get(ts2.URL + "/v1/replicas/" + replicaTestToken)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get(MutationSeqHeader) != "7" {
		t.Fatalf("get after restart: status %d, seq %q", resp.StatusCode, resp.Header.Get(MutationSeqHeader))
	}
	if !bytes.Equal(got, snap) {
		t.Fatal("restored replica differs from the pushed bytes")
	}
	// The watermark survived too: an older push is still stale.
	if code := pushReplica(t, ts2, replicaTestToken, 6, mustSnapshotBytes(t, 6)); code != http.StatusConflict {
		t.Fatalf("stale push after restart: status %d, want 409", code)
	}
}

// TestReplicaPushesKeepOneFile: however often a replica is pushed, it lives
// in one file, replicas/<key>.snap, replaced the way a checkpoint is; after
// a restart the store serves the newer bytes at the watermark they carry.
func TestReplicaPushesKeepOneFile(t *testing.T) {
	dir := t.TempDir()
	srvA := New(Config{ClusterMode: true, DataDir: dir})
	tsA := httptest.NewServer(srvA.Handler())
	key := "acme@" + replicaTestToken
	snap4, snap9 := mustSnapshotBytes(t, 4), mustSnapshotBytes(t, 9)
	for _, p := range []struct {
		seq  uint64
		data []byte
	}{{4, snap4}, {9, snap9}} {
		if code := pushReplica(t, tsA, key, p.seq, p.data); code != http.StatusOK {
			t.Fatalf("push at %d: status %d", p.seq, code)
		}
	}
	tsA.Close()
	srvA.Close()

	files, err := os.ReadDir(filepath.Join(dir, "replicas"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		names = append(names, f.Name())
	}
	if want := key + snapSuffix; len(names) != 1 || names[0] != want {
		t.Fatalf("replicas/ holds %v, want [%s]", names, want)
	}

	srvB, _ := newTestServer(t, Config{ClusterMode: true, DataDir: dir})
	data, seq, ok := srvB.replicas.get(key)
	if !ok || seq != 9 || !bytes.Equal(data, snap9) {
		t.Fatalf("after restart: ok %v, seq %d, newer bytes %v", ok, seq, bytes.Equal(data, snap9))
	}
}

// TestReplicaPushWatermarkMismatch: a push that would be stored must carry,
// inside its snapshot, the watermark its header claims, or it is a 400 and
// nothing is stored. The check follows the stale and equal checks, so a
// stale header still reads 409 and a repeated one 200. On disk and in
// memory alike.
func TestReplicaPushWatermarkMismatch(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		srv, ts := newTestServer(t, Config{ClusterMode: true, DataDir: dir})
		key := replicaTestToken
		if code := pushReplica(t, ts, key, 5, mustSnapshotBytes(t, 4)); code != http.StatusBadRequest {
			t.Fatalf("dir %q: first push, header 5, snapshot 4: status %d, want 400", dir, code)
		}
		if _, _, ok := srv.replicas.get(key); ok {
			t.Fatalf("dir %q: a mismatched push was stored", dir)
		}
		snap3 := mustSnapshotBytes(t, 3)
		if code := pushReplica(t, ts, key, 3, snap3); code != http.StatusOK {
			t.Fatalf("dir %q: push at 3: status %d", dir, code)
		}
		for _, c := range []struct {
			header, carried uint64
			want            int
		}{
			{5, 6, http.StatusBadRequest},
			{4, 3, http.StatusBadRequest},
			{3, 4, http.StatusOK},       // equal header: idempotent, stores nothing
			{2, 3, http.StatusConflict}, // stale header
		} {
			if code := pushReplica(t, ts, key, c.header, mustSnapshotBytes(t, c.carried)); code != c.want {
				t.Fatalf("dir %q: header %d, snapshot %d: status %d, want %d", dir, c.header, c.carried, code, c.want)
			}
		}
		if data, seq, ok := srv.replicas.get(key); !ok || seq != 3 || !bytes.Equal(data, snap3) {
			t.Fatalf("dir %q: held copy moved: ok %v, seq %d", dir, ok, seq)
		}
		if got := srv.Registry().Counter("gdrd_replica_pushes_total").Value(); got != 2 {
			t.Fatalf("dir %q: %d pushes counted, want 2 (the store and the idempotent repeat)", dir, got)
		}
	}
}

// TestReplicaStoreRacingPushesPullsDrops: with pushes, pulls and drops of
// one key racing, every pull returns bytes whose snapshot carries the
// watermark it reports, and the directory ends holding exactly the file of
// the replica still held, or none.
func TestReplicaStoreRacingPushesPullsDrops(t *testing.T) {
	dir := t.TempDir()
	rs := newReplicaStore(dir, nil, slog.New(slog.NewTextHandler(io.Discard, nil)))
	snaps := make([][]byte, 12)
	for i := range snaps {
		snaps[i] = mustSnapshotBytes(t, uint64(i))
	}
	pull := func() bool {
		data, seq, ok := rs.get(replicaTestToken)
		if !ok {
			return true
		}
		w, err := snapshot.Watermark(data)
		if err != nil || w != seq {
			t.Errorf("pulled watermark %d with bytes carrying %d (%v)", seq, w, err)
			return false
		}
		return true
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 1; i < len(snaps); i++ {
			if _, _, err := rs.put(replicaTestToken, uint64(i), uint64(i), snaps[i], nil); err != nil && err != errReplicaStale {
				t.Errorf("push %d: %v", i, err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200 && pull(); i++ {
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			rs.drop(replicaTestToken)
		}
	}()
	wg.Wait()

	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, _, held := rs.get(replicaTestToken)
	switch {
	case held && (len(files) != 1 || files[0].Name() != replicaTestToken+snapSuffix):
		t.Fatalf("a held replica, but the directory holds %v", files)
	case !held && len(files) != 0:
		t.Fatalf("no replica held, but the directory holds %v", files)
	}
	pull()
}

// FuzzReplicaPut throws arbitrary keys, watermarks, and bodies at the
// replica PUT handler: it must never panic, never 5xx, and never store a
// body that fails envelope verification. The keys "." and ".." never reach
// the handler (see below) and must store nothing.
func FuzzReplicaPut(f *testing.F) {
	valid, err := snapshot.EncodeStateMeta("fuzz", snapshot.Meta{MutSeq: 1}, mustFigure1State(f))
	if err != nil {
		f.Fatal(err)
	}
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0x01
	f.Add(replicaTestToken, "1", valid)
	f.Add("t@"+replicaTestToken, "2", corrupt)
	f.Add("nonsense", "x", []byte("GDRS"))
	f.Add(replicaTestToken, "18446744073709551615", []byte{})
	f.Add(".", "1", valid)
	f.Add("..", "1", valid)

	srv := New(Config{ClusterMode: true})
	f.Cleanup(srv.Close)
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, key, seq string, body []byte) {
		if key == "" || len(key) > 256 {
			return
		}
		// Escape so the key travels as one path segment; the mux hands the
		// handler the decoded value. PathEscape leaves dots alone, so the
		// keys "." and ".." arrive as dot segments, which the mux cleans
		// out of the path with a 301 before any handler runs.
		dotSegment := key == "." || key == ".."
		req := httptest.NewRequest("PUT", "/v1/replicas/"+url.PathEscape(key), bytes.NewReader(body))
		req.Header.Set(MutationSeqHeader, seq)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch {
		case rec.Code == http.StatusMovedPermanently && dotSegment:
		case rec.Code == http.StatusOK, rec.Code == http.StatusBadRequest,
			rec.Code == http.StatusConflict, rec.Code == http.StatusNotFound:
		default:
			t.Fatalf("PUT key=%q seq=%q: status %d", key, seq, rec.Code)
		}
		if _, _, ok := srv.replicas.get(key); ok && dotSegment {
			t.Fatalf("a replica is stored under the key %q", key)
		}
		if rec.Code == http.StatusOK {
			// Whatever was accepted must verify — pull it back and check.
			data, _, ok := srv.replicas.get(key)
			if !ok {
				t.Fatalf("stored replica %q not retrievable", key)
			}
			if err := snapshot.Verify(data); err != nil {
				t.Fatalf("stored replica fails verification: %v", err)
			}
		}
	})
}

package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"gdr/internal/core"
)

// sessionGET fetches one route of a session and fails the test unless it
// answers 200.
func sessionGET(t *testing.T, ts *httptest.Server, id, route string) string {
	t.Helper()
	code, body := rawGET(t, ts, "/v1/sessions/"+id+route)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", route, code, body)
	}
	return body
}

// TestRandomOrderPollSurvivesRestart: a random-order poll draws the
// session's next shuffle, and the shuffle count is session state. After
// two random polls, a graceful restart and a third poll, the order must
// equal an unrestarted control's third poll, not repeat the first.
func TestRandomOrderPollSurvivesRestart(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
	}{{200, 13}, {400, 7}} {
		t.Run(fmt.Sprintf("n=%d/seed=%d", tc.n, tc.seed), func(t *testing.T) {
			csvText, rulesText, _ := hospitalUpload(t, tc.n, tc.seed)
			_, tsC := newTestServer(t, Config{Workers: 8})
			idC := createHTTPSession(t, tsC, csvText, rulesText, tc.seed)
			dir := t.TempDir()
			srvA, tsA := newDurableServer(t, dir, core.Config{})
			idA := createHTTPSession(t, tsA, csvText, rulesText, tc.seed)

			const route = "/groups?order=random"
			for poll := 1; poll <= 2; poll++ {
				if sessionGET(t, tsA, idA, route) != sessionGET(t, tsC, idC, route) {
					t.Fatalf("random poll %d diverges before the restart", poll)
				}
			}
			tsA.Close()
			srvA.Close()

			srvB, tsB := newDurableServer(t, dir, core.Config{})
			defer func() { tsB.Close(); srvB.Close() }()
			if sessionGET(t, tsB, idA, route) != sessionGET(t, tsC, idC, route) {
				t.Fatal("the random poll after a graceful restart diverges from the unrestarted control's")
			}
		})
	}
}

// TestReadsStayReadsAcrossRestart pins, by behaviour, that a restart loses
// nothing a route did: for every session route, a durable session driven
// three rounds and sent the route once, then restarted gracefully, must
// answer the next random and VOI polls, status and export as an
// unrestarted control that got the same requests. A route that changes
// session state must count as a mutation, or the drain does not flush it.
// Exported state bytes are not compared: a VOI poll may regrow a stale
// committee without a mutation, and every copy regrows it identically on
// its next prediction.
func TestReadsStayReadsAcrossRestart(t *testing.T) {
	const rounds = 3
	routes := []struct{ name, method, path string }{
		{"status", "GET", "/v1/sessions/{id}/status"},
		{"groups voi", "GET", "/v1/sessions/{id}/groups?order=voi"},
		{"groups greedy", "GET", "/v1/sessions/{id}/groups?order=greedy"},
		{"groups random", "GET", "/v1/sessions/{id}/groups?order=random"},
		{"updates", "GET", "/v1/sessions/{id}/groups/{key}/updates"},
		{"export", "GET", "/v1/sessions/{id}/export"},
		{"snapshot", "POST", "/v1/sessions/{id}/snapshot"},
		{"list", "GET", "/v1/sessions"},
	}
	send := func(t *testing.T, ts *httptest.Server, method, path string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d", method, path, resp.StatusCode)
		}
	}
	status := func(t *testing.T, ts *httptest.Server, id string) StatusResponse {
		t.Helper()
		var st StatusResponse
		if code := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/sessions/"+id+"/status", nil, &st); code != http.StatusOK {
			t.Fatalf("status: %d", code)
		}
		return st
	}

	for _, seed := range []int64{3, 13} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			csvText, rulesText, d := hospitalUpload(t, 200, seed)
			_, tsC := newTestServer(t, Config{Workers: 8})
			dir := t.TempDir()
			srvA, tsA := newDurableServer(t, dir, core.Config{})

			// A scout session in the routes' pre-route state names the top
			// group, so asking for it touches no session under test.
			scout := createHTTPSession(t, tsC, csvText, rulesText, seed)
			driveSessionRounds(t, tsC, scout, d.Truth, rounds)
			var gl GroupsResponse
			if err := json.Unmarshal([]byte(sessionGET(t, tsC, scout, "/groups?order=voi")), &gl); err != nil || len(gl.Groups) == 0 {
				t.Fatalf("scout groups: %v %+v", err, gl)
			}
			key := gl.Groups[0].Key

			idsA := make([]string, len(routes))
			idsC := make([]string, len(routes))
			for i, rt := range routes {
				idsA[i] = createHTTPSession(t, tsA, csvText, rulesText, seed)
				idsC[i] = createHTTPSession(t, tsC, csvText, rulesText, seed)
				driveSessionRounds(t, tsA, idsA[i], d.Truth, rounds)
				driveSessionRounds(t, tsC, idsC[i], d.Truth, rounds)
				send(t, tsA, rt.method, strings.NewReplacer("{id}", idsA[i], "{key}", key).Replace(rt.path))
				send(t, tsC, rt.method, strings.NewReplacer("{id}", idsC[i], "{key}", key).Replace(rt.path))
			}
			tsA.Close()
			srvA.Close()

			srvB, tsB := newDurableServer(t, dir, core.Config{})
			defer func() { tsB.Close(); srvB.Close() }()
			for i, rt := range routes {
				t.Run(rt.name, func(t *testing.T) {
					idB, idC := idsA[i], idsC[i]
					for _, poll := range []string{"/groups?order=random", "/groups?order=voi"} {
						if sessionGET(t, tsB, idB, poll) != sessionGET(t, tsC, idC, poll) {
							t.Fatalf("%s after the restart diverges from the unrestarted control's", poll)
						}
					}
					stB, stC := status(t, tsB, idB), status(t, tsC, idC)
					if stB.Stats != stC.Stats || !reflect.DeepEqual(stB.Models, stC.Models) || stB.Session.MutSeq != stC.Session.MutSeq {
						t.Fatalf("status after the restart diverges:\n got:  %+v %+v mut_seq %d\n want: %+v %+v mut_seq %d",
							stB.Stats, stB.Models, stB.Session.MutSeq, stC.Stats, stC.Models, stC.Session.MutSeq)
					}
					if exportHTTP(t, tsB, idB) != exportHTTP(t, tsC, idC) {
						t.Fatal("export after the restart diverges from the unrestarted control's")
					}
				})
			}
		})
	}
}

// TestRandomOrderPollSurvivesCrash: a random-order poll on a durable node
// is on disk when it answers, as a feedback round is. After two random
// polls, a node booted on a copy of the data dir taken without a drain (as
// a crash leaves it) must answer its next random poll as an unrestarted
// control answers its third, not repeat the first.
func TestRandomOrderPollSurvivesCrash(t *testing.T) {
	for _, tc := range []struct {
		n    int
		seed int64
	}{{200, 13}, {400, 7}} {
		t.Run(fmt.Sprintf("n=%d/seed=%d", tc.n, tc.seed), func(t *testing.T) {
			csvText, rulesText, _ := hospitalUpload(t, tc.n, tc.seed)
			_, tsC := newTestServer(t, Config{Workers: 8})
			idC := createHTTPSession(t, tsC, csvText, rulesText, tc.seed)
			dir := t.TempDir()
			srvA, tsA := newDurableServer(t, dir, core.Config{})
			defer func() { tsA.Close(); srvA.Close() }()
			idA := createHTTPSession(t, tsA, csvText, rulesText, tc.seed)

			const route = "/groups?order=random"
			for poll := 1; poll <= 2; poll++ {
				if sessionGET(t, tsA, idA, route) != sessionGET(t, tsC, idC, route) {
					t.Fatalf("random poll %d diverges before the crash", poll)
				}
			}
			crashed := copyDir(t, dir)

			srvB, tsB := newDurableServer(t, crashed, core.Config{})
			defer func() { tsB.Close(); srvB.Close() }()
			if sessionGET(t, tsB, idA, route) != sessionGET(t, tsC, idC, route) {
				t.Fatal("the random poll after a crash diverges from the unrestarted control's")
			}
		})
	}
}

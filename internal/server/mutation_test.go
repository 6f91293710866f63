package server

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"gdr/internal/core"
)

// TestMutationsAnnounceTheirWatermark pins which answers name a mutation
// watermark. Of every session route (the list TestReadsStayReadsAcrossRestart
// sends) plus a feedback round and its dedup replay, exactly the feedback
// round, the random-order groups poll and the snapshot export carry
// X-Gdr-Mutation-Seq, and its value is the session's mut_seq as
// GET /v1/sessions reports it right after. The replay carries none, and no
// answer without the header moved mut_seq. So it is on a memory-only node
// and on a durable one.
func TestMutationsAnnounceTheirWatermark(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run("durable="+strconv.FormatBool(durable), func(t *testing.T) {
			cfg := Config{Workers: 2, Session: core.Config{Workers: 1}}
			if durable {
				cfg.DataDir = t.TempDir()
			}
			_, ts := newTestServer(t, cfg)
			id := createFigure1Session(t, ts).Session.ID
			base := ts.URL + "/v1/sessions/" + id
			mutSeq := func() uint64 {
				t.Helper()
				var list SessionList
				if code := doJSON(t, ts.Client(), "GET", ts.URL+"/v1/sessions", nil, &list); code != http.StatusOK || len(list.Sessions) != 1 {
					t.Fatalf("list: status %d, %d sessions", code, len(list.Sessions))
				}
				return list.Sessions[0].MutSeq
			}
			var groups GroupsResponse
			if code := doJSON(t, ts.Client(), "GET", base+"/groups?order=voi", nil, &groups); code != http.StatusOK || len(groups.Groups) == 0 {
				t.Fatalf("groups: status %d, %d groups", code, len(groups.Groups))
			}
			round := firstGroupFeedback(t, ts, base)

			routes := []struct {
				name, method, path string
				requestID          string
				body               []byte
				announces          bool
			}{
				{"status", "GET", "/v1/sessions/{id}/status", "", nil, false},
				{"groups voi", "GET", "/v1/sessions/{id}/groups?order=voi", "", nil, false},
				{"groups greedy", "GET", "/v1/sessions/{id}/groups?order=greedy", "", nil, false},
				{"groups random", "GET", "/v1/sessions/{id}/groups?order=random", "", nil, true},
				{"updates", "GET", "/v1/sessions/{id}/groups/" + groups.Groups[0].Key + "/updates", "", nil, false},
				{"export", "GET", "/v1/sessions/{id}/export", "", nil, false},
				{"snapshot", "POST", "/v1/sessions/{id}/snapshot", "", nil, true},
				{"list", "GET", "/v1/sessions", "", nil, false},
				{"feedback", "POST", "/v1/sessions/{id}/feedback", "round-1", round, true},
				{"feedback replay", "POST", "/v1/sessions/{id}/feedback", "round-1", round, false},
			}
			for _, rt := range routes {
				before := mutSeq()
				req, err := http.NewRequest(rt.method, ts.URL+strings.ReplaceAll(rt.path, "{id}", id), bytes.NewReader(rt.body))
				if err != nil {
					t.Fatal(err)
				}
				if rt.requestID != "" {
					req.Header.Set(RequestIDHeader, rt.requestID)
				}
				resp, err := ts.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d", rt.name, resp.StatusCode)
				}
				header, after := resp.Header.Get(MutationSeqHeader), mutSeq()
				switch {
				case rt.announces && header != strconv.FormatUint(after, 10):
					t.Errorf("%s: %s %q, want the session's mut_seq %d", rt.name, MutationSeqHeader, header, after)
				case !rt.announces && header != "":
					t.Errorf("%s: carries %s %q, want none", rt.name, MutationSeqHeader, header)
				case !rt.announces && after != before:
					t.Errorf("%s: mut_seq moved from %d to %d without a watermark on the answer", rt.name, before, after)
				}
			}
		})
	}
}

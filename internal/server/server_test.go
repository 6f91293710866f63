package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"gdr/internal/group"
)

// figure1CSV is the paper's running example as an uploadable instance.
const figure1CSV = `Name,SRC,STR,CT,STT,ZIP
Alice,H1,Redwood Dr,Michigan City,IN,46360
Bob,H2,Oak St,Westville,IN,46360
Carol,H2,Pine Ave,Westvile,IN,46360
Dave,H2,Main St,Michigan Cty,IN,46360
Eve,H1,Sherden RD,Fort Wayne,IN,46391
Frank,H1,Sherden RD,Fort Wayne,IN,46825
Grace,H3,Canal Rd,New Haven,OH,46774
Heidi,H3,Sherden RD,Fort Wayne,IN,46835
`

const figure1Rules = `
phi1: ZIP -> CT, STT :: 46360 || Michigan City, IN
phi2: ZIP -> CT, STT :: 46774 || New Haven, IN
phi3: ZIP -> CT, STT :: 46825 || Fort Wayne, IN
phi4: ZIP -> CT, STT :: 46391 || Westville, IN
phi5: STR, CT -> ZIP :: _, Fort Wayne || _
`

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// doJSON issues one request and decodes the JSON response into out.
func doJSON(t testing.TB, client *http.Client, method, url string, body any, out any) int {
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
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

func createFigure1Session(t testing.TB, ts *httptest.Server) CreateSessionResponse {
	t.Helper()
	var created CreateSessionResponse
	code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions",
		CreateSessionRequest{Name: "fig1", CSV: figure1CSV, Rules: figure1Rules, Seed: 1}, &created)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	return created
}

func TestSessionLifecycleOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	created := createFigure1Session(t, ts)
	if created.Session.ID == "" || created.Session.Tuples != 8 {
		t.Fatalf("create response: %+v", created)
	}
	if created.Stats.Pending == 0 || created.Stats.Dirty != 7 {
		t.Fatalf("initial stats: %+v", created.Stats)
	}
	base := ts.URL + "/v1/sessions/" + created.Session.ID

	// Ranked groups: the Michigan City group must exist with 3 updates.
	var groups GroupsResponse
	if code := doJSON(t, ts.Client(), "GET", base+"/groups?order=voi", nil, &groups); code != 200 {
		t.Fatalf("groups: status %d", code)
	}
	if groups.Order != "voi" || len(groups.Groups) == 0 {
		t.Fatalf("groups: %+v", groups)
	}
	var mc *GroupBody
	for i := range groups.Groups {
		if groups.Groups[i].Attr == "CT" && groups.Groups[i].Value == "Michigan City" {
			mc = &groups.Groups[i]
		}
	}
	if mc == nil || mc.Size != 3 {
		t.Fatalf("Michigan City group missing: %+v", groups)
	}

	// The group's updates, via the opaque key token (value contains a space).
	var ups UpdatesResponse
	if code := doJSON(t, ts.Client(), "GET", base+"/groups/"+mc.Key+"/updates", nil, &ups); code != 200 {
		t.Fatalf("updates: status %d", code)
	}
	if len(ups.Updates) != 3 {
		t.Fatalf("updates: %+v", ups)
	}
	for _, u := range ups.Updates {
		if u.Attr != "CT" || u.Value != "Michigan City" || u.Current == "" {
			t.Fatalf("bad update body: %+v", u)
		}
	}

	// One feedback round: confirm all three.
	items := make([]FeedbackItem, len(ups.Updates))
	for i, u := range ups.Updates {
		items[i] = FeedbackItem{Tid: u.Tid, Attr: u.Attr, Value: u.Value, Feedback: "confirm"}
	}
	var fb FeedbackResponse
	if code := doJSON(t, ts.Client(), "POST", base+"/feedback", FeedbackRequest{Items: items}, &fb); code != 200 {
		t.Fatalf("feedback: status %d", code)
	}
	applied := 0
	for _, r := range fb.Results {
		if r.Status == FeedbackApplied {
			applied++
		}
	}
	if applied == 0 || fb.AppliedDelta < applied {
		t.Fatalf("feedback response: %+v", fb)
	}
	if fb.Stats.Dirty >= created.Stats.Dirty {
		t.Fatalf("dirty count did not drop: %+v", fb.Stats)
	}

	// Status reflects the round.
	var st StatusResponse
	if code := doJSON(t, ts.Client(), "GET", base+"/status", nil, &st); code != 200 {
		t.Fatalf("status: status %d", code)
	}
	if st.Stats.Applied != fb.Stats.Applied || st.Session.ID != created.Session.ID {
		t.Fatalf("status: %+v", st)
	}
	if len(st.Models) == 0 {
		t.Fatal("status: no model stats after teaching feedback")
	}

	// Export returns CSV with the confirmed repairs in place.
	resp, err := ts.Client().Get(base + "/export")
	if err != nil {
		t.Fatal(err)
	}
	csvOut, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(csvOut), "Michigan City") {
		t.Fatalf("export: %d %q", resp.StatusCode, csvOut)
	}
	if strings.Contains(string(csvOut), "Westvile") {
		t.Fatal("export: Carol's typo should have been repaired")
	}

	// Delete, then every endpoint 404s.
	if code := doJSON(t, ts.Client(), "DELETE", base, nil, nil); code != 200 {
		t.Fatalf("delete: status %d", code)
	}
	if code := doJSON(t, ts.Client(), "GET", base+"/status", nil, nil); code != 404 {
		t.Fatalf("status after delete: %d", code)
	}
}

func TestCreateMultipart(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	fw, _ := mw.CreateFormFile("csv", "dirty.csv")
	fmt.Fprint(fw, figure1CSV)
	fw, _ = mw.CreateFormFile("rules", "rules.txt")
	fmt.Fprint(fw, figure1Rules)
	mw.WriteField("name", "multipart")
	mw.WriteField("seed", "7")
	mw.Close()
	req, _ := http.NewRequest("POST", ts.URL+"/v1/sessions", &body)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var created CreateSessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated || created.Session.Name != "multipart" {
		t.Fatalf("multipart create: %d %+v", resp.StatusCode, created)
	}
}

// TestMultipartCreateLeavesNoTempFiles: a multipart file part past the
// form's 32 MiB memory bound spills to a temp file, and the create removes
// it before it answers, whether or not the upload was good. Here a 33 MiB
// csv part with no rules part is refused with 400.
func TestMultipartCreateLeavesNoTempFiles(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	_, ts := newTestServer(t, Config{MaxBodyBytes: 48 << 20})
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	fw, _ := mw.CreateFormFile("csv", "dirty.csv")
	fw.Write(bytes.Repeat([]byte("a,b\n"), 33<<20/4))
	mw.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/sessions", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("create without rules: status %d, want 400", resp.StatusCode)
	}
	left, err := filepath.Glob(filepath.Join(tmp, "multipart-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("the create left temp files behind: %v", left)
	}
}

func TestCreateRejectsBadUploads(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []CreateSessionRequest{
		{CSV: "", Rules: figure1Rules},              // empty instance
		{CSV: figure1CSV, Rules: ""},                // empty rule set
		{CSV: figure1CSV, Rules: "not a rule"},      // malformed rules
		{CSV: "A,B\n1", Rules: "r: A -> B :: _||_"}, // ragged CSV
	}
	for i, req := range cases {
		if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", req, nil); code != 400 {
			t.Errorf("case %d: status %d, want 400", i, code)
		}
	}
}

func TestOversizedBodyReturns413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1024})
	big := CreateSessionRequest{CSV: figure1CSV + strings.Repeat("#", 4096), Rules: figure1Rules}
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions", big, nil); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized create: status %d, want 413", code)
	}
}

func TestSessionCapReturns429(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 1})
	createFigure1Session(t, ts)
	code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sessions",
		CreateSessionRequest{CSV: figure1CSV, Rules: figure1Rules}, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("second create: status %d, want 429", code)
	}
}

func TestGroupKeyTokenRoundTrip(t *testing.T) {
	keys := []group.Key{
		{Attr: "CT", Value: "Michigan City"},
		{Attr: "A:B", Value: "x:y"},
		{Attr: "weird/attr", Value: "with space & symbols?=#"},
		{Attr: "ünïcode", Value: "日本語"},
		{Attr: "empty", Value: ""},
	}
	for _, k := range keys {
		tok := GroupKeyToken(k)
		got, err := ParseGroupKeyToken(tok)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got != k {
			t.Fatalf("round trip %v -> %q -> %v", k, tok, got)
		}
	}
	if _, err := ParseGroupKeyToken("no-separator"); err == nil {
		t.Fatal("missing separator not rejected")
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	createFigure1Session(t, ts)
	var health map[string]any
	if code := doJSON(t, ts.Client(), "GET", ts.URL+"/healthz", nil, &health); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	if health["status"] != "ok" || health["sessions"].(float64) != 1 {
		t.Fatalf("healthz: %+v", health)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"gdrd_sessions_live 1",
		"gdrd_sessions_created_total 1",
		"# TYPE gdrd_request_seconds histogram",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestFeedbackStaleAndInvalidItems(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	created := createFigure1Session(t, ts)
	base := ts.URL + "/v1/sessions/" + created.Session.ID
	var fb FeedbackResponse
	code := doJSON(t, ts.Client(), "POST", base+"/feedback", FeedbackRequest{Items: []FeedbackItem{
		{Tid: 0, Attr: "CT", Value: "nope", Feedback: "confirm"},        // no such suggestion
		{Tid: 2, Attr: "CT", Value: "Michigan City", Feedback: "shrug"}, // bad verb
	}}, &fb)
	if code != 200 {
		t.Fatalf("feedback: status %d", code)
	}
	if fb.Results[0].Status != FeedbackStale || fb.Results[1].Status != FeedbackInvalid {
		t.Fatalf("results: %+v", fb.Results)
	}
	if fb.AppliedDelta != 0 {
		t.Fatalf("nothing should have applied: %+v", fb)
	}
}

// TestWriteJSONUnencodableBody pins the response rendering order: a body
// that cannot be encoded (here a NaN) is a server fault, answered 500 with
// a JSON ErrorBody instead of a 200 with an empty body, and through the
// instrumented stack the encoding error reaches the server's log.
func TestWriteJSONUnencodableBody(t *testing.T) {
	bad := map[string]float64{"benefit": math.NaN()}
	check := func(rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500", rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
		var eb ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
			t.Fatalf("body %q is not a JSON error (%v)", rec.Body.String(), err)
		}
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, bad)
	check(rec)

	var logged bytes.Buffer
	srv := New(Config{Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	defer srv.Close()
	h := srv.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, bad)
	}))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/x/status", nil))
	check(rec)
	if !strings.Contains(logged.String(), "encoding response failed") {
		t.Fatalf("encoding error not logged; log:\n%s", logged.String())
	}
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"gdr/internal/core"
	"gdr/internal/dataset"
	"gdr/internal/server"
)

// statusOf returns the status code the proxy answers for a token's status.
func statusOf(t *testing.T, base, token string) (int, http.Header) {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions/" + token + "/status")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header
}

// readyz returns the proxy's readiness status code.
func readyz(t *testing.T, base string) int {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestProxySettledAfterFailover: once a death's failover and the rebalance
// after it have run (one health round), the proxy is settled at once — a
// 404 for a token no node holds reaches the client as 404, and /readyz
// answers 200 — with no grace period to sit out.
func TestProxySettledAfterFailover(t *testing.T) {
	p, nodes, ts := newTestProxy(t, 3, func(c *Config) { c.FailAfter = 1 })
	nodes[2].mu.Lock()
	nodes[2].down = true
	nodes[2].mu.Unlock()
	p.checkAll()
	if p.currentRing().Has(nodes[2].ts.URL) {
		t.Fatal("the down node is still in the ring")
	}
	if code, _ := statusOf(t, ts.URL, strings.Repeat("e1", 16)); code != http.StatusNotFound {
		t.Fatalf("unknown token after a settled failover: %d, want 404", code)
	}
	if code := readyz(t, ts.URL); code != http.StatusOK {
		t.Fatalf("readyz after a settled failover: %d, want 200", code)
	}
}

// TestProxyUnsettledUntilFullInventory: a death whose placement pass cannot
// list every holder leaves the proxy unsettled — a 404 answers 503 with
// Retry-After and /readyz answers 503 — for as long as the listing fails,
// and the first pass that lists every holder settles it.
func TestProxyUnsettledUntilFullInventory(t *testing.T) {
	p, nodes, ts := newTestProxy(t, 3, func(c *Config) { c.FailAfter = 1 })
	token := strings.Repeat("e2", 16)
	nodes[1].mu.Lock()
	nodes[1].unlisted = true
	nodes[1].mu.Unlock()
	nodes[2].mu.Lock()
	nodes[2].down = true
	nodes[2].mu.Unlock()
	p.checkAll()
	for i := 0; i < 2; i++ { // a later pass that cannot list settles nothing either
		code, h := statusOf(t, ts.URL, token)
		if code != http.StatusServiceUnavailable || h.Get("Retry-After") == "" {
			t.Fatalf("pass %d: a 404 while unsettled answered %d (Retry-After %q), want 503 with Retry-After", i, code, h.Get("Retry-After"))
		}
		if code := readyz(t, ts.URL); code != http.StatusServiceUnavailable {
			t.Fatalf("pass %d: readyz while unsettled: %d, want 503", i, code)
		}
		_ = p.Rebalance(context.Background()) // fails: a holder cannot list
	}
	nodes[1].mu.Lock()
	nodes[1].unlisted = false
	nodes[1].mu.Unlock()
	if err := p.Rebalance(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, _ := statusOf(t, ts.URL, token); code != http.StatusNotFound {
		t.Fatalf("unknown token after a full audit: %d, want 404", code)
	}
	if code := readyz(t, ts.URL); code != http.StatusOK {
		t.Fatalf("readyz after a full audit: %d, want 200", code)
	}
}

// TestProxySettleWaitsForFailover: a settle pass that gets in between a
// death's ring change and its failover (an audit a SyncReplicas call runs,
// say) lists no copy of the dead node's sessions, so it must not settle
// the proxy: the session's 404 from its new ring owner answers 503 until
// the failover has promoted it.
func TestProxySettleWaitsForFailover(t *testing.T) {
	p, nodes, ts := newTestProxy(t, 3, func(c *Config) { c.FailAfter = 1 })
	token := strings.Repeat("e3", 16)
	owner := nodeByURL(nodes, p.currentRing().Lookup(token))
	owner.put(token, "")
	for _, n := range nodes {
		if n != owner {
			n.putReplica(token, 1, []byte("replica"))
		}
	}
	owner.mu.Lock()
	owner.down = true
	owner.mu.Unlock()

	p.workMu.Lock() // holds the health round between its ring change and its failover
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		p.checkAll()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for p.currentRing().Has(owner.ts.URL) {
		if time.Now().After(deadline) {
			p.workMu.Unlock()
			t.Fatal("the health round never took the down node out of the ring")
		}
		time.Sleep(time.Millisecond)
	}
	version := p.currentRing().Version()
	inv, err := p.inventory(context.Background())
	if err != nil {
		p.workMu.Unlock()
		t.Fatal(err)
	}
	p.settle(context.Background(), inv, version)
	code, _ := statusOf(t, ts.URL, token)
	p.workMu.Unlock()
	<-checked
	if code != http.StatusServiceUnavailable {
		t.Fatalf("a session awaiting its failover answered %d, want 503", code)
	}
	if code, _ := statusOf(t, ts.URL, token); code != http.StatusOK {
		t.Fatalf("the promoted session answered %d, want 200", code)
	}
	if code := readyz(t, ts.URL); code != http.StatusOK {
		t.Fatalf("readyz after the failover: %d, want 200", code)
	}
}

// roundGate fronts a real node. Once armed with a token, it holds that
// session's feedback round until release closes, and the session's DELETE
// until the node has answered the round; it reports when the round
// arrived, when the node answered it, and when the node answered the
// session's first snapshot export.
type roundGate struct {
	next     http.Handler
	mu       sync.Mutex
	token    string
	arrived  chan struct{}
	release  chan struct{}
	answered chan struct{}
	exported chan struct{}
	export   sync.Once
}

func (g *roundGate) arm(token string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.token = token
	g.arrived, g.release = make(chan struct{}), make(chan struct{})
	g.answered, g.exported = make(chan struct{}), make(chan struct{})
}

func (g *roundGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	g.mu.Lock()
	token := g.token
	g.mu.Unlock()
	session := "/v1/sessions/" + token
	switch {
	case token == "":
		g.next.ServeHTTP(w, r)
	case r.Method == http.MethodPost && r.URL.Path == session+"/feedback":
		close(g.arrived)
		<-g.release
		g.next.ServeHTTP(w, r)
		close(g.answered)
	case r.Method == http.MethodPost && r.URL.Path == session+"/snapshot":
		g.next.ServeHTTP(w, r)
		g.export.Do(func() { close(g.exported) })
	case r.Method == http.MethodDelete && r.URL.Path == session:
		<-g.answered
		g.next.ServeHTTP(w, r)
	default:
		g.next.ServeHTTP(w, r)
	}
}

// sendJSON sends one JSON request and decodes a 2xx answer into out.
func sendJSON(method, target string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, target, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 && out != nil {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	return resp.StatusCode, err
}

// mustJSON is sendJSON for the test goroutine.
func mustJSON(t *testing.T, method, target string, body, out any) int {
	t.Helper()
	code, err := sendJSON(method, target, body, out)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

// TestProxyMoveWaitsForRoutedForwards: a feedback round routed to a
// session's source just before its move starts must land in the state the
// move carries. The round is held in front of the source while the source
// is drained; it is let through once the move's export has been answered,
// or once the token is moving and no export came within 300ms, and the
// source's DELETE waits for its answer. Whatever the move did meanwhile,
// the round's answer and the destination's copy must agree.
func TestProxyMoveWaitsForRoutedForwards(t *testing.T) {
	var urls []string
	gates := map[string]*roundGate{}
	for i := 0; i < 2; i++ {
		srv := server.New(server.Config{
			ClusterMode: true,
			Workers:     1,
			Session:     core.Config{Workers: 1},
			Logger:      slog.New(slog.DiscardHandler),
		})
		g := &roundGate{next: srv.Handler()}
		ts := httptest.NewServer(g)
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		urls = append(urls, ts.URL)
		gates[ts.URL] = g
	}
	p, err := New(Config{Nodes: urls, HealthEvery: time.Hour, Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	gw := httptest.NewServer(p.Handler())
	t.Cleanup(gw.Close)

	d := dataset.Hospital(dataset.Config{N: 80, Seed: 3})
	var csvText, rules strings.Builder
	if err := d.Dirty.WriteCSV(&csvText); err != nil {
		t.Fatal(err)
	}
	for _, r := range d.Rules {
		rules.WriteString(r.String() + "\n")
	}
	var created server.CreateSessionResponse
	if code := mustJSON(t, http.MethodPost, gw.URL+"/v1/sessions",
		server.CreateSessionRequest{CSV: csvText.String(), Rules: rules.String(), Seed: 5}, &created); code != http.StatusCreated {
		t.Fatalf("create: %d", code)
	}
	base := gw.URL + "/v1/sessions/" + created.Session.ID
	var groups server.GroupsResponse
	if code := mustJSON(t, http.MethodGet, base+"/groups?order=voi&limit=1", nil, &groups); code != http.StatusOK || len(groups.Groups) == 0 {
		t.Fatalf("groups: %d, %d groups", code, len(groups.Groups))
	}
	var ups server.UpdatesResponse
	if code := mustJSON(t, http.MethodGet, base+"/groups/"+url.PathEscape(groups.Groups[0].Key)+"/updates", nil, &ups); code != http.StatusOK {
		t.Fatalf("updates: %d", code)
	}
	var round server.FeedbackRequest
	for _, u := range ups.Updates[:min(3, len(ups.Updates))] {
		round.Items = append(round.Items, server.FeedbackItem{Tid: u.Tid, Attr: u.Attr, Value: u.Value, Feedback: "confirm"})
	}

	token := created.Session.ID
	src := p.routeToken(token)
	g := gates[src]
	g.arm(token)
	release := sync.OnceFunc(func() { close(g.release) })
	t.Cleanup(release) // before the nodes close, which waits for the held round
	type answer struct {
		code int
		resp server.FeedbackResponse
		err  error
	}
	answered := make(chan answer, 1)
	go func() {
		var a answer
		a.code, a.err = sendJSON(http.MethodPost, base+"/feedback", round, &a.resp)
		answered <- a
	}()
	waitFor := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	waitFor(g.arrived, "the round to reach the source")
	moved := make(chan error, 1)
	go func() { moved <- p.RemoveNode(context.Background(), src) }()
	deadline := time.After(10 * time.Second)
	for {
		p.mu.Lock()
		moving := p.migrating[token] != nil
		p.mu.Unlock()
		if moving {
			break
		}
		select {
		case err := <-moved:
			t.Fatalf("the drain ended before the session was seen moving: %v", err)
		case <-deadline:
			t.Fatal("the drain never started moving the session")
		case <-time.After(time.Millisecond):
		}
	}
	select {
	case <-g.exported:
	case <-time.After(300 * time.Millisecond):
	}
	release()
	a := <-answered
	if err := <-moved; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if a.err != nil || a.code != http.StatusOK {
		t.Fatalf("the held round answered %d (%v), want 200", a.code, a.err)
	}
	var st server.StatusResponse
	if code := mustJSON(t, http.MethodGet, base+"/status", nil, &st); code != http.StatusOK {
		t.Fatalf("status after the move: %d", code)
	}
	if a.resp.Stats.Applied == 0 {
		t.Fatal("the round applied nothing; the drive shows nothing")
	}
	if st.Stats.Applied != a.resp.Stats.Applied || st.Session.MutSeq != 1 {
		t.Fatalf("the round answered applied %d, but the moved session has applied %d at mut_seq %d, want %d at 1: the round was lost with the source",
			a.resp.Stats.Applied, st.Stats.Applied, st.Session.MutSeq, a.resp.Stats.Applied)
	}
}

// TestProxyMovesUnderConcurrentRequests moves one session back and forth
// while several clients poll it. Every answer must be the session (200)
// or the retryable 503 with Retry-After — never a 404 — and each move must
// end, so no count of forwards in flight is left behind or released
// twice.
func TestProxyMovesUnderConcurrentRequests(t *testing.T) {
	p, nodes, ts := newTestProxy(t, 2, nil)
	token := strings.Repeat("e4", 16)
	home := nodeByURL(nodes, p.currentRing().Lookup(token))
	home.put(token, "")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/sessions/" + token + "/status")
				if err != nil {
					errs <- err.Error()
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && (resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "") {
					errs <- resp.Status
					return
				}
			}
		}()
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := p.RemoveNode(ctx, home.ts.URL); err != nil {
			t.Errorf("drain %d: %v", i, err)
			break
		}
		if err := p.AddNode(ctx, home.ts.URL); err != nil {
			t.Errorf("add %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("a client polling through the moves got %s", e)
	}
	p.mu.Lock()
	left := len(p.inflight) + len(p.migrating)
	p.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d forward counts or moves left behind after the clients stopped", left)
	}
	if !home.has(token) {
		t.Fatal("the session did not end on its ring owner")
	}
}

// Command gdrload drives oracle-simulated users against a gdrd server, or
// an in-process cluster, and checks that the repair loop survives it: the
// smoke and failover driver of the serving tier. It is not the benchmark;
// perfbench is (see BENCHMARK.json).
//
// It generates one hospital workload per session (distinct seeds), uploads
// the dirty instances, then spins N concurrent users across the M sessions;
// each user runs the Procedure-1 loop — ranked groups, one group's updates,
// a batched feedback round answered from the generator's ground truth —
// until the session is clean or its round budget runs out. The report is a
// single JSON document on stdout: rounds driven, sheds and retries, the
// client-observed latency per operation and each session's end state.
//
//	gdrload -addr http://localhost:8080 -sessions 4 -users 8 -n 400
//	gdrload -proxy 3 -kill -sessions 4 -users 8  # in-process 3-node cluster
//
// -proxy N boots an in-process cluster — N cluster-mode gdrd nodes with
// durable data dirs behind a real gdrproxy ring, the same rig the cluster
// tests use (internal/cluster/inproc) — and drives the load through the
// gateway; the report gains a per-node distribution (requests, owned
// sessions, migrations, replica pushes and promotions). -kill additionally
// crashes one node mid-drive: the proxy's failover must promote its
// sessions onto the survivors and every tenant must still finish.
//
// Every feedback POST carries a stable X-Gdr-Request-Id, so a round
// retried after a shed is applied exactly once. -dup stresses that path
// deliberately: each round is immediately re-POSTed with its same id, and
// the run fails unless the duplicate comes back as a replay
// (X-Gdr-Duplicate) with identical stats instead of mutating the session
// again. The report counts every replayed duplicate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gdr"
	"gdr/internal/cluster/inproc"
	"gdr/internal/server"
)

// runConfig carries the drive's knobs from flags (or tests) into run.
type runConfig struct {
	addr     string // base URL of an external gdrd ("" with proxyN)
	key      string // bearer API key ("" = no auth)
	proxyN   int    // boot an in-process N-node cluster behind a proxy
	kill     bool   // with proxyN: crash one node mid-drive
	sessions int
	users    int
	rounds   int
	n        int
	seed     int64
	dup      bool // re-POST every feedback round with its same request id
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.addr, "addr", "", "base URL of a running gdrd (e.g. http://localhost:8080)")
	flag.IntVar(&cfg.proxyN, "proxy", 0, "boot an in-process N-node cluster behind a gdrproxy ring and drive through the gateway")
	flag.BoolVar(&cfg.kill, "kill", false, "with -proxy: abruptly kill one node mid-drive; failover must finish the run")
	flag.IntVar(&cfg.sessions, "sessions", 4, "concurrent repair sessions (tenants)")
	flag.IntVar(&cfg.users, "users", 8, "concurrent simulated users, round-robin across sessions")
	flag.IntVar(&cfg.rounds, "rounds", 50, "max feedback rounds per user")
	flag.IntVar(&cfg.n, "n", 400, "records per uploaded instance")
	flag.Int64Var(&cfg.seed, "seed", 7, "base seed; session i uploads seed+i")
	flag.BoolVar(&cfg.dup, "dup", false, "re-POST every feedback round with its same request id; the duplicate must replay, never re-apply")
	flag.StringVar(&cfg.key, "key", "", "bearer API key for an authenticated gdrd (-keyfile mode)")
	flag.Parse()
	if cfg.addr == "" && cfg.proxyN == 0 {
		fmt.Fprintln(os.Stderr, "gdrload: need -addr or -proxy")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gdrload:", err)
		os.Exit(1)
	}
}

// Report is the drive's output document.
type Report struct {
	Rounds   int `json:"feedback_rounds"`
	Sheds429 int `json:"sheds_429"`
	Sheds503 int `json:"sheds_503"`
	Retries  int `json:"retries"`
	// DupReplays counts feedback responses the server answered from its
	// dedup window (X-Gdr-Duplicate) — forced -dup re-POSTs plus any
	// organic retry that would otherwise have double-applied a round.
	DupReplays int                `json:"duplicate_replays"`
	Latency    map[string]LatSumm `json:"latency_seconds"`
	Sessions   []SessionOutcome   `json:"sessions"`
	// Cluster is the per-node distribution, present only in -proxy mode.
	Cluster *ClusterReport `json:"cluster,omitempty"`
}

// ClusterReport is the -proxy mode addendum: where the load actually
// landed across the ring, and what the membership machinery did.
type ClusterReport struct {
	Nodes         int        `json:"nodes"`
	KilledNode    string     `json:"killed_node,omitempty"`
	RingVersion   uint64     `json:"ring_version"`
	Migrations    int64      `json:"migrations"`
	ReplicaPushes int64      `json:"replica_pushes"`
	Promotions    int64      `json:"replica_promotions"`
	PerNode       []NodeLoad `json:"per_node"`
}

// NodeLoad is one ring member's share of the drive.
type NodeLoad struct {
	URL      string `json:"url"`
	Live     bool   `json:"live"`
	Requests int64  `json:"requests"`
	Sessions int    `json:"sessions_owned"`
}

// LatSumm summarizes one operation's latency distribution.
type LatSumm struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// SessionOutcome is the per-tenant end state.
type SessionOutcome struct {
	Index        int     `json:"index"`
	InitialDirty int     `json:"initial_dirty"`
	Dirty        int     `json:"dirty"`
	Applied      int     `json:"applied"`
	Pending      int     `json:"pending"`
	CleanedPct   float64 `json:"cleaned_pct"`
}

// latRecorder collects op durations across users.
type latRecorder struct {
	mu   sync.Mutex
	byOp map[string][]float64
}

func (l *latRecorder) observe(op string, d time.Duration) {
	l.mu.Lock()
	l.byOp[op] = append(l.byOp[op], d.Seconds())
	l.mu.Unlock()
}

func (l *latRecorder) summarize() map[string]LatSumm {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]LatSumm, len(l.byOp))
	for op, xs := range l.byOp {
		sort.Float64s(xs)
		n := len(xs)
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		q := func(p float64) float64 {
			i := int(p*float64(n)+0.5) - 1
			if i < 0 {
				i = 0
			}
			if i >= n {
				i = n - 1
			}
			return xs[i]
		}
		out[op] = LatSumm{Count: n, Mean: sum / float64(n), P50: q(0.50), P90: q(0.90), P99: q(0.99), Max: xs[n-1]}
	}
	return out
}

// counters are the shared run totals.
type counters struct {
	mu     sync.Mutex
	rounds int
	dups   int
}

func run(cfg runConfig, out io.Writer) error {
	addr, key := cfg.addr, cfg.key
	sessions, users, rounds := cfg.sessions, cfg.users, cfg.rounds
	n, seed := cfg.n, cfg.seed
	if sessions < 1 || users < 1 {
		return fmt.Errorf("need at least one session and one user")
	}
	if cfg.kill && cfg.proxyN < 2 {
		return fmt.Errorf("-kill needs -proxy with at least 2 nodes")
	}
	var rig *inproc.Cluster
	if cfg.proxyN > 0 {
		var err error
		if rig, err = inproc.Start(inproc.Options{N: cfg.proxyN}); err != nil {
			return err
		}
		defer rig.Close()
		addr = rig.Gateway
	}
	addr = strings.TrimRight(addr, "/")
	lc := newLoadClient(&http.Client{Timeout: 2 * time.Minute}, key, seed)

	// Upload phase: one workload per session, distinct seeds. Uploads fan
	// out concurrently — the server builds sessions in parallel up to its
	// worker budget, so serial creates would leave it idle and stretch
	// setup linearly with -sessions.
	type tenant struct {
		id    string
		truth *gdr.DB
	}
	tenants := make([]tenant, sessions)
	setupErrs := make([]error, sessions)
	var setupWG sync.WaitGroup
	for i := range tenants {
		setupWG.Add(1)
		go func(i int) {
			defer setupWG.Done()
			d := gdr.HospitalData(gdr.DataConfig{N: n, Seed: seed + int64(i)})
			var csvBuf bytes.Buffer
			if err := d.Dirty.WriteCSV(&csvBuf); err != nil {
				setupErrs[i] = err
				return
			}
			var rules strings.Builder
			for _, r := range d.Rules {
				rules.WriteString(r.String() + "\n")
			}
			var created server.CreateSessionResponse
			code, err := lc.doJSON("POST", addr+"/v1/sessions", server.CreateSessionRequest{
				Name:  fmt.Sprintf("load-%d", i),
				CSV:   csvBuf.String(),
				Rules: rules.String(),
				Seed:  seed + int64(i),
			}, &created)
			if err != nil {
				setupErrs[i] = fmt.Errorf("creating session %d: %w", i, err)
				return
			}
			if code != http.StatusCreated {
				setupErrs[i] = fmt.Errorf("creating session %d: status %d", i, code)
				return
			}
			tenants[i] = tenant{id: created.Session.ID, truth: d.Truth}
		}(i)
	}
	setupWG.Wait()
	for _, err := range setupErrs {
		if err != nil {
			return err
		}
	}

	// Drive phase: users fan out round-robin across sessions.
	lats := &latRecorder{byOp: make(map[string][]float64)}
	var cnt counters
	var wg sync.WaitGroup
	errc := make(chan error, users)
	driveDone := make(chan struct{})
	killDone := make(chan struct{})
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			tn := tenants[u%sessions]
			if err := drive(lc, addr, tn.id, tn.truth, u, rounds, cfg.dup, lats, &cnt); err != nil {
				errc <- fmt.Errorf("user %d: %w", u, err)
			}
		}(u)
	}
	killed := ""
	if cfg.kill && rig != nil {
		// Crash the node owning the first tenant's session once the drive
		// is demonstrably under way; the failover path must finish the run.
		go func() {
			defer close(killDone)
			killed = killWhenBusy(rig, &cnt, max(users/2, 2), tenants[0].id, driveDone)
		}()
	} else {
		close(killDone)
	}
	wg.Wait()
	close(driveDone)
	<-killDone
	close(errc)
	for err := range errc {
		return err
	}

	// The cluster distribution is read before teardown deletes the
	// sessions, while ownership is still observable.
	var clusterRep *ClusterReport
	if rig != nil {
		ids := make([]string, len(tenants))
		for i, tn := range tenants {
			ids[i] = tn.id
		}
		clusterRep = clusterReport(rig, killed, ids)
	}

	// Final per-session state, then teardown.
	outcomes := make([]SessionOutcome, sessions)
	for i, tn := range tenants {
		var st server.StatusResponse
		code, err := lc.doJSON("GET", addr+"/v1/sessions/"+tn.id+"/status", nil, &st)
		if err != nil || code != 200 {
			return fmt.Errorf("status of session %d: code %d err %v", i, code, err)
		}
		outcomes[i] = SessionOutcome{
			Index:        i,
			InitialDirty: st.Stats.InitialDirty,
			Dirty:        st.Stats.Dirty,
			Applied:      st.Stats.Applied,
			Pending:      st.Stats.Pending,
			CleanedPct:   st.Stats.CleanedPct,
		}
		if code, err := lc.doJSON("DELETE", addr+"/v1/sessions/"+tn.id, nil, nil); err != nil || code != 200 {
			return fmt.Errorf("deleting session %d: code %d err %v", i, code, err)
		}
	}

	sheds429, sheds503, retries := lc.counts()
	rep := Report{
		Rounds:     cnt.rounds,
		Sheds429:   sheds429,
		Sheds503:   sheds503,
		Retries:    retries,
		DupReplays: cnt.dups,
		Latency:    lats.summarize(),
		Sessions:   outcomes,
		Cluster:    clusterRep,
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// drive is one simulated user: the interactive loop of Procedure 1 against
// one served session, answers from the ground truth.
func drive(lc *loadClient, addr, id string, truth *gdr.DB, u, rounds int, dup bool, lats *latRecorder, cnt *counters) error {
	base := addr + "/v1/sessions/" + id
	// Conditional polling state: the last groups listing and its validator.
	// The server answers an unchanged ranking with a bodyless 304, so a user
	// whose session was not perturbed since its previous poll (common when
	// users outnumber active work, or between retries) pays no body at all.
	var groups server.GroupsResponse
	var groupsTag string
	for r := 0; r < rounds; r++ {
		start := time.Now()
		code, tag, err := lc.getJSONCond(base+"/groups?order=voi&limit=4", groupsTag, &groups)
		switch {
		case err != nil:
			return fmt.Errorf("groups: %v", err)
		case code == http.StatusNotModified: // groups still holds the listing
		case code == 200:
			groupsTag = tag
		default:
			return fmt.Errorf("groups: code %d", code)
		}
		lats.observe("groups", time.Since(start))
		if len(groups.Groups) == 0 {
			return nil // session fully repaired
		}
		g := groups.Groups[u%len(groups.Groups)]

		start = time.Now()
		var ups server.UpdatesResponse
		code, err = lc.doJSON("GET", base+"/groups/"+g.Key+"/updates", nil, &ups)
		if err != nil {
			return fmt.Errorf("updates: %v", err)
		}
		lats.observe("updates", time.Since(start))
		if code == http.StatusNotFound {
			continue // another user drained the group between the two calls
		}
		if code != 200 {
			return fmt.Errorf("updates: code %d", code)
		}

		items := make([]server.FeedbackItem, 0, len(ups.Updates))
		for _, up := range ups.Updates {
			want := truth.Get(up.Tid, up.Attr)
			verb := "reject"
			switch {
			case up.Value == want:
				verb = "confirm"
			case up.Current == want:
				verb = "retain"
			}
			items = append(items, server.FeedbackItem{Tid: up.Tid, Attr: up.Attr, Value: up.Value, Feedback: verb})
		}
		// The request id is stable across the retry loop's attempts (and the
		// forced -dup replay): a round shed mid-flight and retried must be
		// applied exactly once, whichever attempt actually landed.
		reqID := fmt.Sprintf("gdrload-%s-%d-%d", id, u, r)
		body := server.FeedbackRequest{Items: items}
		start = time.Now()
		var fb server.FeedbackResponse
		code, wasDup, err := lc.doJSONID("POST", base+"/feedback", body, &fb, reqID)
		if err != nil || code != 200 {
			return fmt.Errorf("feedback: code %d err %v", code, err)
		}
		lats.observe("feedback", time.Since(start))
		replays := 0
		if wasDup {
			replays++ // an organic retry already landed this round
		}
		if dup {
			var fb2 server.FeedbackResponse
			code, wasDup, err := lc.doJSONID("POST", base+"/feedback", body, &fb2, reqID)
			if err != nil || code != 200 {
				return fmt.Errorf("duplicate feedback: code %d err %v", code, err)
			}
			if !wasDup {
				return fmt.Errorf("round %d: forced duplicate was applied again, not replayed", r)
			}
			if fb2.Stats != fb.Stats {
				return fmt.Errorf("round %d: duplicate replay diverges: %+v vs %+v", r, fb2.Stats, fb.Stats)
			}
			replays++
		}

		cnt.mu.Lock()
		cnt.rounds++
		cnt.dups += replays
		cnt.mu.Unlock()
	}
	return nil
}

// killWhenBusy crashes the node owning the probe session once the drive
// has completed at least minRounds feedback rounds, and returns its URL
// ("" when the drive finishes first).
func killWhenBusy(rig *inproc.Cluster, cnt *counters, minRounds int, probeToken string, done <-chan struct{}) string {
	for {
		cnt.mu.Lock()
		busy := cnt.rounds >= minRounds
		cnt.mu.Unlock()
		if busy {
			break
		}
		select {
		case <-done:
			return ""
		case <-time.After(10 * time.Millisecond):
		}
	}
	victim := rig.Owner(probeToken)
	if victim < 0 {
		return ""
	}
	// Abrupt: the listener closes mid-flight, nothing drains — the health
	// loop must notice and promote the node's sessions from their replicas.
	rig.Kill(victim)
	return rig.Nodes[victim].URL
}

// clusterReport reads the post-drive distribution off the ring and the
// proxy's own metrics.
func clusterReport(rig *inproc.Cluster, killed string, sessionIDs []string) *ClusterReport {
	ring := rig.Proxy.Ring()
	reg := rig.Proxy.Registry()
	rep := &ClusterReport{
		Nodes:         len(rig.Nodes),
		KilledNode:    killed,
		RingVersion:   ring.Version(),
		Migrations:    reg.Counter("gdrproxy_migrations_total").Value(),
		ReplicaPushes: reg.Counter("gdrproxy_replica_pushes_total").Value(),
		Promotions:    reg.Counter("gdrproxy_replica_promotions_total").Value(),
	}
	for _, n := range rig.Nodes {
		owned := 0
		for _, id := range sessionIDs {
			if ring.Lookup(id) == n.URL {
				owned++
			}
		}
		rep.PerNode = append(rep.PerNode, NodeLoad{
			URL:      n.URL,
			Live:     ring.Has(n.URL),
			Requests: reg.LabeledCounter("gdrproxy_requests_total", "node", n.URL).Value(),
			Sessions: owned,
		})
	}
	return rep
}

// Retry policy for shed (429/503) responses.
const (
	retryBase     = 50 * time.Millisecond
	retryCap      = 5 * time.Second
	retryAttempts = 8 // retries after the first try
)

// loadClient wraps the HTTP client with bearer auth and overload-aware
// retries: a 429 or 503 is counted as a shed and retried with jittered
// exponential backoff, never sooner than the server's Retry-After hint.
// Other statuses pass straight through to the caller.
type loadClient struct {
	hc  *http.Client
	key string // bearer API key ("" = no auth header)

	mu       sync.Mutex
	rng      *rand.Rand
	sheds429 int
	sheds503 int
	retries  int
}

func newLoadClient(hc *http.Client, key string, seed int64) *loadClient {
	return &loadClient{
		hc:  hc,
		key: key,
		rng: rand.New(rand.NewSource(seed)),
	}
}

// backoffDelay computes the wait before retry number attempt (0-based):
// exponential in attempt with half the span jittered (jitter ∈ [0,1)), and
// never below the server's Retry-After hint — the server knows its own
// pressure better than our curve does.
func backoffDelay(attempt int, retryAfter time.Duration, jitter float64) time.Duration {
	d := retryBase << uint(attempt)
	if d > retryCap || d <= 0 {
		d = retryCap
	}
	d = d/2 + time.Duration(jitter*float64(d/2))
	if d < retryAfter {
		d = retryAfter
	}
	return d
}

// parseRetryAfter reads the integer-seconds form of a Retry-After header
// (the only form gdrd emits); anything else means no hint.
func parseRetryAfter(h string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// shed records one shed response and reports whether the caller should
// retry (budget permitting).
func (c *loadClient) shed(status, attempt int) (time.Duration, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if status == http.StatusTooManyRequests {
		c.sheds429++
	} else {
		c.sheds503++
	}
	if attempt >= retryAttempts {
		return 0, false
	}
	c.retries++
	return time.Duration(c.rng.Int63()), true // raw entropy; shaped by caller
}

// do issues one request, replaying through the retry policy. newReq must
// build a fresh request per attempt (bodies are consumed by a send).
func (c *loadClient) do(newReq func() (*http.Request, error)) (*http.Response, []byte, error) {
	for attempt := 0; ; attempt++ {
		req, err := newReq()
		if err != nil {
			return nil, nil, err
		}
		if c.key != "" {
			req.Header.Set("Authorization", "Bearer "+c.key)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return nil, nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return resp, nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			entropy, again := c.shed(resp.StatusCode, attempt)
			if again {
				jitter := float64(entropy%1000) / 1000
				time.Sleep(backoffDelay(attempt, parseRetryAfter(resp.Header.Get("Retry-After")), jitter))
				continue
			}
		}
		return resp, data, nil
	}
}

// counts snapshots the shed/retry totals for the report.
func (c *loadClient) counts() (sheds429, sheds503, retries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sheds429, c.sheds503, c.retries
}

// getJSONCond issues a conditional GET: etag (if any) travels as
// If-None-Match. On 200 the body is decoded into out and the fresh ETag
// returned; on 304 out is left holding the caller's cached value.
func (c *loadClient) getJSONCond(url, etag string, out any) (int, string, error) {
	resp, data, err := c.do(func() (*http.Request, error) {
		req, err := http.NewRequest("GET", url, nil)
		if err == nil && etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		return req, err
	})
	if err != nil {
		return 0, "", err
	}
	if resp.StatusCode == http.StatusOK && out != nil && len(data) > 0 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, "", fmt.Errorf("decoding GET %s response: %w", url, err)
		}
	}
	return resp.StatusCode, resp.Header.Get("ETag"), nil
}

// doJSON issues one JSON request; out may be nil.
func (c *loadClient) doJSON(method, url string, body any, out any) (int, error) {
	code, _, err := c.doJSONID(method, url, body, out, "")
	return code, err
}

// doJSONID issues one JSON request carrying an idempotency key (reqID ""
// sends none). The key is set inside the per-attempt request builder, so
// every retry of a shed response replays the same id — that is what turns
// retried mutations into exactly-once ones. dup reports whether the server
// answered from its dedup window instead of applying the request.
func (c *loadClient) doJSONID(method, url string, body, out any, reqID string) (int, bool, error) {
	var buf []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, false, err
		}
		buf = b
	}
	resp, data, err := c.do(func() (*http.Request, error) {
		var rd io.Reader
		if buf != nil {
			rd = bytes.NewReader(buf)
		}
		req, err := http.NewRequest(method, url, rd)
		if err == nil && buf != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if err == nil && reqID != "" {
			req.Header.Set(server.RequestIDHeader, reqID)
		}
		return req, err
	})
	if err != nil {
		return 0, false, err
	}
	if out != nil && len(data) > 0 && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, false, fmt.Errorf("decoding %s %s response: %w", method, url, err)
		}
	}
	return resp.StatusCode, resp.Header.Get(server.DuplicateHeader) != "", nil
}

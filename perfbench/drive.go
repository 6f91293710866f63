package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gdr/internal/relation"
	"gdr/internal/server"
)

// phase is a stage of a run that issues requests; failures are counted per
// phase.
type phase int

const (
	phaseSetup phase = iota
	phaseDrive
	phaseCheck
	phaseRestore
	numPhases
)

var phaseNames = [numPhases]string{"setup", "drive", "check", "restore"}

// client issues the benchmark's HTTP calls over at most nproc connections
// and counts what it attempted and what failed. Any transport error or
// status of 400 and above — sheds included — is a failure; there are no
// retries.
type client struct {
	hc    *http.Client
	rec   *recorder // nil in timed runs
	ids   atomic.Int64
	mu    sync.Mutex
	tried [numPhases]int // gdr:guarded-by mu
	fails [numPhases]int // gdr:guarded-by mu
}

func newClient(conns int, rec *recorder) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, rec: rec}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one completed call.
type reply struct {
	status int
	header http.Header
	body   []byte
	start  time.Time
	rt     time.Duration
	id     string // benchIDHeader value (traced runs)
}

// call issues one request. Failures are counted and returned as errors.
func (c *client) call(ph phase, method, url string, hdr map[string]string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var rep reply
	if c.rec != nil {
		rep.id = strconv.FormatInt(c.ids.Add(1), 10)
		req.Header.Set(benchIDHeader, rep.id)
	}
	rep.start = time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		rep.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rep.status, rep.header = resp.StatusCode, resp.Header
	}
	rep.rt = time.Since(rep.start)
	if err == nil && rep.status >= 400 {
		err = fmt.Errorf("%s %s: status %d: %s", method, url, rep.status, bytes.TrimSpace(rep.body))
	}
	c.count(ph, err)
	return rep, err
}

func (c *client) count(ph phase, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tried[ph]++
	if err != nil {
		c.fails[ph]++
	}
}

// totals returns attempted and failed calls per phase.
func (c *client) totals() (tried, fails [numPhases]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tried, c.fails
}

// callJSON issues a request with a JSON body and decodes a JSON reply.
func (c *client) callJSON(ph phase, method, url string, hdr map[string]string, in, out any) (reply, error) {
	var body []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return reply{}, err
		}
		body = b
	}
	rep, err := c.call(ph, method, url, hdr, body)
	if err == nil && out != nil && rep.status != http.StatusNotModified && len(rep.body) > 0 {
		if err = json.Unmarshal(rep.body, out); err != nil {
			err = fmt.Errorf("decoding %s %s: %w", method, url, err)
		}
	}
	return rep, err
}

// tenant is one session: its generated input, its server token and the
// record of every round an expert ran on it.
type tenant struct {
	idx   int
	seed  int64
	csv   string
	rules string
	truth *relation.DB

	id     string // server token
	etag   string // last groups validator
	groups server.GroupsResponse
	rounds []*roundLog
	clean  bool
	export []byte
}

// roundLog is one expert round as the client saw it: the question, the
// answers and the served outcome, plus in traced runs every call's timing.
type roundLog struct {
	id      int64
	key     string
	updates []server.UpdateBody
	items   []server.FeedbackItem
	stats   server.StatsBody
	timings []timing // each call joined with its Server-Timing
	replies []reply  // each call's id and round trip, for the proxy-hop join
}

// experts run expert rounds against the rig and collect the end-to-end
// samples.
type experts struct {
	c       *client
	base    string
	noLearn bool
	rec     *recorder
	rounds  atomic.Int64
	stop    atomic.Bool

	mu       sync.Mutex
	groupsMS []float64 // gdr:guarded-by mu
	feedMS   []float64 // gdr:guarded-by mu
	roundMS  []float64 // gdr:guarded-by mu
	applied  int       // gdr:guarded-by mu
}

// errStale fails a run that saw a stale item: with one expert per session
// every answered suggestion must still be live.
var errStale = errors.New("stale feedback item")

// step runs one round on t: rank the groups, fetch the top group's
// updates, answer them from the ground truth. It returns false, having
// spent only the groups poll, when the session has nothing left to ask.
func (x *experts) step(t *tenant) (bool, error) {
	rl := &roundLog{id: x.rounds.Add(1)}
	root := x.rec.begin("round", rl.id, -1)
	defer x.rec.end(root)
	base := x.base + "/v1/sessions/" + t.id

	hdr := map[string]string{}
	if t.etag != "" {
		hdr["If-None-Match"] = t.etag
	}
	var fresh server.GroupsResponse
	rep, err := x.c.callJSON(phaseDrive, http.MethodGet, base+"/groups?order=voi&limit=4", hdr, nil, &fresh)
	if err != nil {
		return false, err
	}
	x.trace(rl, root, "groups", rep)
	if rep.status != http.StatusNotModified {
		t.groups, t.etag = fresh, rep.header.Get("ETag")
	}
	x.mu.Lock()
	x.groupsMS = append(x.groupsMS, ms(rep.rt))
	x.mu.Unlock()
	if len(t.groups.Groups) == 0 {
		t.clean = true
		return false, nil
	}
	g := t.groups.Groups[0]
	rl.key = g.Key

	var ups server.UpdatesResponse
	rep, err = x.c.callJSON(phaseDrive, http.MethodGet, base+"/groups/"+g.Key+"/updates", nil, nil, &ups)
	if err != nil {
		return false, err
	}
	x.trace(rl, root, "updates", rep)
	rl.updates = ups.Updates

	rl.items = make([]server.FeedbackItem, len(ups.Updates))
	for i, u := range ups.Updates {
		rl.items[i] = server.FeedbackItem{Tid: u.Tid, Attr: u.Attr, Value: u.Value, Feedback: answer(t.truth, u)}
	}
	var fb server.FeedbackResponse
	reqID := fmt.Sprintf("perfbench-%s-%d", t.id, len(t.rounds))
	rep, err = x.c.callJSON(phaseDrive, http.MethodPost, base+"/feedback",
		map[string]string{server.RequestIDHeader: reqID},
		server.FeedbackRequest{Items: rl.items, NoLearn: x.noLearn}, &fb)
	if err != nil {
		return false, err
	}
	x.trace(rl, root, "feedback", rep)
	rl.stats = fb.Stats
	applied, stale := 0, 0
	for _, res := range fb.Results {
		switch res.Status {
		case server.FeedbackApplied:
			applied++
		case server.FeedbackStale:
			stale++
		}
	}
	t.rounds = append(t.rounds, rl)
	x.mu.Lock()
	x.feedMS = append(x.feedMS, ms(rep.rt))
	x.applied += applied
	x.mu.Unlock()
	if stale > 0 || applied != len(rl.items) {
		return false, fmt.Errorf("session %d round %d: %d of %d items applied, %d stale: %w", t.idx, len(t.rounds), applied, len(rl.items), stale, errStale)
	}
	return true, nil
}

// trace files one call of a traced round: a span under the round and the
// call joined with its Server-Timing.
func (x *experts) trace(rl *roundLog, root int, route string, rep reply) {
	if x.rec == nil {
		return
	}
	x.rec.add("http."+route, rl.id, root, rep.start, rep.rt)
	rl.timings = append(rl.timings, joinTiming(route, rep.rt, rep.header.Get("Server-Timing")))
	rl.replies = append(rl.replies, reply{id: rep.id, rt: rep.rt})
}

// observeRound records one completed round's latency.
func (x *experts) observeRound(lat time.Duration) {
	x.mu.Lock()
	x.roundMS = append(x.roundMS, ms(lat))
	x.mu.Unlock()
}

// answer is the expert: confirm a suggestion that matches the ground truth,
// retain a cell that already does, reject anything else.
func answer(truth *relation.DB, u server.UpdateBody) string {
	want := truth.Get(u.Tid, u.Attr)
	switch {
	case u.Value == want:
		return "confirm"
	case u.Current == want:
		return "retain"
	}
	return "reject"
}

// closedLoop runs one expert per list. An expert drives each of its
// sessions to clean — or, with budget > 0, for at most budget rounds —
// before taking the next, and starts no round after the deadline. It
// returns how long the drive took until the last round ended.
func (x *experts) closedLoop(lists [][]*tenant, dur time.Duration, budget int) (time.Duration, int, error) {
	start := time.Now()
	deadline := start.Add(dur)
	errs := make([]error, len(lists))
	var wg sync.WaitGroup
	var inflight, peak atomic.Int64
	for e, list := range lists {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, t := range list {
				for !t.clean && (budget == 0 || len(t.rounds) < budget) {
					if x.stop.Load() || !time.Now().Before(deadline) {
						return
					}
					due := time.Now()
					raise(&peak, inflight.Add(1))
					more, err := x.step(t)
					inflight.Add(-1)
					if err != nil {
						errs[e] = err
						x.stop.Store(true)
						return
					}
					if more {
						x.observeRound(time.Since(due))
					}
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start), int(peak.Load()), errors.Join(errs...)
}

// openLoop sends rounds on a fixed schedule, rate per second for dur,
// whether or not earlier rounds are done: round i is due at i/rate and goes
// to slot i mod len(slots). A slot runs one round at a time and drives its
// sessions in order, each to clean; at most workers rounds are in flight.
// Each round's latency counts from when it was due.
func (x *experts) openLoop(slots [][]*tenant, rate float64, dur time.Duration, workers int) (time.Duration, []roundTime, int, error) {
	interval := time.Duration(float64(time.Second) / rate)
	n := int(dur / interval)
	times := make([]roundTime, n)
	ran := make([]bool, n)
	busy := make([]chan struct{}, len(slots))
	for k := range busy {
		busy[k] = make(chan struct{}, 1)
	}
	cursor := make([]int, len(slots)) // slot k's entry is touched only by the holder of busy[k]
	sem := make(chan struct{}, workers)
	errs := make([]error, n)
	var wg sync.WaitGroup
	var inflight, peak atomic.Int64
	start := time.Now()
	for i := 0; i < n && !x.stop.Load(); i++ {
		due := time.Duration(i) * interval
		if wait := time.Until(start.Add(due)); wait > 0 {
			time.Sleep(wait)
		}
		k := i % len(slots)
		busy[k] <- struct{}{}
		sem <- struct{}{}
		sent := time.Since(start)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem; <-busy[k] }()
			raise(&peak, inflight.Add(1))
			defer inflight.Add(-1)
			for cursor[k] < len(slots[k]) {
				more, err := x.step(slots[k][cursor[k]])
				if err != nil {
					errs[i] = err
					x.stop.Store(true)
					return
				}
				if more {
					times[i], ran[i] = roundTime{due: due, start: sent, end: time.Since(start)}, true
					x.observeRound(times[i].latency())
					return
				}
				cursor[k]++
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var done []roundTime
	for i, ok := range ran {
		if ok {
			done = append(done, times[i])
		}
	}
	return elapsed, done, int(peak.Load()), errors.Join(errs...)
}

// raise lifts peak to v if v is higher.
func raise(peak *atomic.Int64, v int64) {
	for {
		p := peak.Load()
		if v <= p || peak.CompareAndSwap(p, v) {
			return
		}
	}
}

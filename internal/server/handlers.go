package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gdr/internal/core"
	"gdr/internal/group"
	"gdr/internal/obs"
	"gdr/internal/repair"
	"gdr/internal/snapshot"
)

// Cluster placement headers: the routing proxy pre-assigns the token a new
// session lives under (so it consistent-hashes to the node being asked) and
// the tenant a migrated session keeps belonging to. Header-only on purpose:
// they never round-trip through bodies a tenant composes.
const (
	AssignTokenHeader  = "X-Gdr-Assign-Token"
	AssignTenantHeader = "X-Gdr-Assign-Tenant"
)

// Replication and retry headers.
const (
	// MutationSeqHeader carries a session's mutation-sequence watermark: on
	// a snapshot export response it stamps which mutation the bytes capture;
	// on a replica PUT it is the push's watermark, and the spill store
	// rejects pushes older than what it already holds (409); on a create's
	// 409 it is the live copy's watermark (absent while that copy is still
	// being built).
	MutationSeqHeader = "X-Gdr-Mutation-Seq"
	// RequestIDHeader is the client-chosen idempotency key for feedback
	// POSTs: a duplicate id within the session's dedup window replays the
	// original response instead of re-applying the round.
	RequestIDHeader = "X-Gdr-Request-Id"
	// DuplicateHeader marks a replayed feedback response.
	DuplicateHeader = "X-Gdr-Duplicate"

	// maxRequestIDLen bounds the dedup key a client may choose; longer ids
	// are rejected rather than truncated (truncation could alias two ids).
	maxRequestIDLen = 128
)

// handleCreate opens a session from a JSON body or a multipart form (file
// parts csv and rules; value parts name, seed, workers).
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	req, err := decodeCreateRequest(r)
	if err != nil {
		writeError(w, err)
		return
	}
	owner := requestOwner(r)
	req.Token = r.Header.Get(AssignTokenHeader)
	req.Tenant = r.Header.Get(AssignTenantHeader)
	if req.Token != "" || req.Tenant != "" {
		if !s.mayAssign(r) {
			writeError(w, fmt.Errorf("%w: session placement headers need cluster mode or an admin key", ErrForbidden))
			return
		}
		if req.Tenant != "" {
			if !tenantNameRE.MatchString(req.Tenant) {
				writeError(w, fmt.Errorf("%w: assigned tenant %q must match %s", ErrBadUpload, req.Tenant, tenantNameRE))
				return
			}
			owner = req.Tenant
		}
	}
	info, st, err := s.store.CreateAs(r.Context(), owner, req)
	if err != nil {
		var live tokenInUseError
		if errors.As(err, &live) {
			w.Header().Set(MutationSeqHeader, strconv.FormatUint(live.seq, 10))
		}
		writeError(w, err)
		return
	}
	obs.FromContext(r.Context()).SetSession(info.ID)
	writeJSON(w, http.StatusCreated, CreateSessionResponse{Session: info, Stats: statsBody(st)})
}

// mayAssign reports whether this request may use the placement headers: any
// caller on a cluster-mode node (such nodes face only the proxy), or an
// authenticated admin key.
func (s *Server) mayAssign(r *http.Request) bool {
	if s.cfg.ClusterMode {
		return true
	}
	t := tenantFrom(r.Context())
	return t != nil && t.cfg.Admin
}

func decodeCreateRequest(r *http.Request) (CreateSessionRequest, error) {
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "multipart/form-data") {
		return decodeCreateForm(r)
	}
	var req CreateSessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		// Double-%w keeps http.MaxBytesError reachable for the 413 mapping.
		return req, fmt.Errorf("%w: decoding JSON body: %w", ErrBadUpload, err)
	}
	return req, nil
}

func decodeCreateForm(r *http.Request) (CreateSessionRequest, error) {
	var req CreateSessionRequest
	if err := r.ParseMultipartForm(32 << 20); err != nil {
		return req, fmt.Errorf("%w: parsing multipart form: %w", ErrBadUpload, err)
	}
	// A snapshot part selects the restore-on-create path; csv and rules are
	// then not expected (the snapshot carries the whole session).
	if f, _, err := r.FormFile("snapshot"); err == nil {
		b, rerr := io.ReadAll(f)
		f.Close()
		if rerr != nil {
			return req, fmt.Errorf("%w: reading snapshot part: %w", ErrBadUpload, rerr)
		}
		req.Snapshot = b
	} else {
		csvBody, err := formPart(r, "csv")
		if err != nil {
			return req, err
		}
		rules, err := formPart(r, "rules")
		if err != nil {
			return req, err
		}
		req.CSV, req.Rules = csvBody, rules
	}
	req.Name = r.FormValue("name")
	if v := r.FormValue("seed"); v != "" {
		seed, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return req, fmt.Errorf("%w: seed %q", ErrBadUpload, v)
		}
		req.Seed = seed
	}
	if v := r.FormValue("workers"); v != "" {
		workers, err := strconv.Atoi(v)
		if err != nil {
			return req, fmt.Errorf("%w: workers %q", ErrBadUpload, v)
		}
		req.Workers = workers
	}
	return req, nil
}

// formPart reads a multipart part that may arrive as either a file upload
// or a plain value field.
func formPart(r *http.Request, name string) (string, error) {
	if f, _, err := r.FormFile(name); err == nil {
		defer f.Close()
		b, err := io.ReadAll(f)
		if err != nil {
			return "", fmt.Errorf("%w: reading %s part: %w", ErrBadUpload, name, err)
		}
		return string(b), nil
	}
	if v := r.FormValue(name); v != "" {
		return v, nil
	}
	return "", fmt.Errorf("%w: missing %s part", ErrBadUpload, name)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, SessionList{Sessions: s.store.ListFor(requestOwner(r))})
}

// requestOwner is the ownership tag of the request's authenticated tenant
// ("" in open mode): sessions it creates carry the tag, and lookups only
// see sessions with a matching (or empty) one.
func requestOwner(r *http.Request) string {
	if t := tenantFrom(r.Context()); t != nil {
		return t.owner()
	}
	return ""
}

// session resolves the {id} path value against the caller's tenant; a miss
// — including another tenant's session — writes the 404 itself.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (*entry, bool) {
	e, ok := s.store.GetFor(r.PathValue("id"), requestOwner(r))
	if !ok {
		writeNotFound(w, "session")
		return e, ok
	}
	obs.FromContext(r.Context()).SetSession(e.id)
	return e, ok
}

func parseOrder(v string) (core.Order, string, error) {
	switch v {
	case "", "voi":
		return core.OrderVOI, "voi", nil
	case "greedy":
		return core.OrderGreedy, "greedy", nil
	case "random":
		return core.OrderRandom, "random", nil
	default:
		return 0, "", fmt.Errorf("%w: order %q (want voi|greedy|random)", ErrBadRequest, v)
	}
}

// groupsETag renders the /groups cache validator: the session's monotone
// ranking version, scoped by the entry's incarnation salt (a restored
// session restarts the counter) and by the request shape (order and limit
// change the body without changing the ranking). Random order returns "" —
// every such response is a fresh shuffle and must never be served from a
// cache — as does a saltless entry.
func groupsETag(salt, orderName string, limit int, version uint64) string {
	if orderName == "random" || salt == "" {
		return ""
	}
	return fmt.Sprintf("\"gdr-%s-%s-%d-%d\"", salt, orderName, limit, version)
}

// etagMatches reports whether an If-None-Match header value matches the
// ETag, per RFC 9110: a comma-separated candidate list or "*"; weak
// validators (W/ prefix) compare by opaque value.
func etagMatches(header, etag string) bool {
	if header == "" || etag == "" {
		return false
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == "*" || cand == etag {
			return true
		}
	}
	return false
}

// handleGroups ranks the pending updates (step 4 of Procedure 1) and
// returns the groups; ?order picks the policy, ?limit truncates the tail.
// The session's incremental group index makes the steady-state call cheap
// (only invalidated groups are re-scored) and versions the ranking; when
// the client's If-None-Match still matches post-rank, the response is a
// bodyless 304 and no DTOs are built at all.
func (s *Server) handleGroups(w http.ResponseWriter, r *http.Request) {
	e, ok := s.session(w, r)
	if !ok {
		return
	}
	order, orderName, err := parseOrder(r.URL.Query().Get("order"))
	if err != nil {
		writeError(w, err)
		return
	}
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			writeError(w, fmt.Errorf("%w: limit %q", ErrBadRequest, v))
			return
		}
	}
	inm := r.Header.Get("If-None-Match")
	var resp GroupsResponse
	var etag string
	var notModified bool
	err = e.actor.do(r.Context(), "groups", func(sess *core.Session) {
		gs := sess.Groups(order, nil)
		if order == core.OrderRandom {
			// The shuffle advanced the session's shuffle count, which its
			// snapshot carries: a mutation, so the entry turns dirty and
			// the flusher or the drain captures it.
			e.mutSeq.Add(1)
		}
		etag = groupsETag(e.etagSalt, orderName, limit, sess.RankingVersion())
		if etagMatches(inm, etag) {
			notModified = true
			return
		}
		resp.Order = orderName
		resp.Total = len(gs)
		if limit > 0 && len(gs) > limit {
			gs = gs[:limit]
		}
		resp.Groups = make([]GroupBody, len(gs))
		for i, g := range gs {
			resp.Groups[i] = GroupBody{
				Key:     GroupKeyToken(g.Key),
				Attr:    g.Key.Attr,
				Value:   g.Key.Value,
				Size:    g.Size(),
				Benefit: g.Benefit,
			}
		}
	})
	if err != nil {
		writeError(w, err)
		return
	}
	if etag != "" {
		w.Header().Set("ETag", etag)
	}
	if notModified {
		s.reg.Counter("gdrd_groups_not_modified_total").Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// groupKeyFromPath recovers the raw {key} segment from the escaped URL path
// (PathValue would decode it once, making the ':' separator ambiguous) and
// parses it.
func groupKeyFromPath(r *http.Request) (group.Key, error) {
	segs := strings.Split(r.URL.EscapedPath(), "/")
	// /v1/sessions/{id}/groups/{key}/updates → ["", v1, sessions, id, groups, key, updates]
	if len(segs) != 7 {
		return group.Key{}, fmt.Errorf("%w: malformed updates path", ErrBadRequest)
	}
	k, err := ParseGroupKeyToken(segs[5])
	if err != nil {
		return group.Key{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return k, nil
}

// handleUpdates lists one group's live suggested updates.
func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	e, ok := s.session(w, r)
	if !ok {
		return
	}
	key, err := groupKeyFromPath(r)
	if err != nil {
		writeError(w, err)
		return
	}
	var resp UpdatesResponse
	var empty bool
	err = e.actor.do(r.Context(), "updates", func(sess *core.Session) {
		ups := sess.GroupUpdates(key)
		if len(ups) == 0 {
			empty = true
			return
		}
		resp = UpdatesResponse{
			Key:     GroupKeyToken(key),
			Attr:    key.Attr,
			Value:   key.Value,
			Updates: updateBodies(sess, ups),
		}
	})
	if err != nil {
		writeError(w, err)
		return
	}
	if empty {
		writeNotFound(w, "group")
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func parseFeedback(v string) (repair.Feedback, bool) {
	switch v {
	case "confirm":
		return repair.Confirm, true
	case "reject":
		return repair.Reject, true
	case "retain":
		return repair.Retain, true
	default:
		return 0, false
	}
}

// handleFeedback applies one batched feedback round: each item is matched
// against the live suggestion for its cell (stale items are reported, not
// applied), answers train the committees unless no_learn is set, rejects
// report their replacement suggestion, and with sweep the trained models
// decide whatever they are confident about — the response carries those
// newly derived consequences plus the post-round stats.
func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	e, ok := s.session(w, r)
	if !ok {
		return
	}
	var req FeedbackRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("%w: decoding JSON body: %w", ErrBadRequest, err))
		return
	}
	if len(req.Items) == 0 && !req.Sweep {
		writeError(w, fmt.Errorf("%w: empty feedback batch", ErrBadRequest))
		return
	}
	reqID := r.Header.Get(RequestIDHeader)
	if len(reqID) > maxRequestIDLen {
		writeError(w, fmt.Errorf("%w: request id longer than %d bytes", ErrBadRequest, maxRequestIDLen))
		return
	}
	var resp FeedbackResponse
	// body holds the response rendered once: inside the command when the
	// dedup window stores it, else after; a replay sends the stored bytes.
	var body []byte
	var encErr error
	replay := false
	var ckpt *captured // the round's own checkpoint; nil on a memory-only node
	t := obs.FromContext(r.Context())
	err := e.actor.do(r.Context(), "feedback", func(sess *core.Session) {
		// Exactly-once retries: a request id seen within the dedup window
		// replays the original response bytes without touching the session.
		// Everything — the window check, the apply, the sequence bump, the
		// response rendering and the checkpoint capture — happens inside
		// this one command, so the snapshot holds state, watermark and
		// window in a mutually consistent cut that includes this round.
		if reqID != "" {
			if body, replay = e.dedup.get(reqID); replay {
				return
			}
		}
		resp = applyFeedbackBatch(sess, req)
		e.mutSeq.Add(1)
		if reqID != "" {
			if body, encErr = marshalJSONBody(resp); encErr == nil {
				e.dedup.put(reqID, body)
			}
		}
		ckpt = s.store.captureRound(e, sess, t)
	})
	if err != nil {
		writeError(w, err)
		return
	}
	if replay {
		s.reg.Counter("gdrd_feedback_duplicates_total").Inc()
		w.Header().Set(DuplicateHeader, "1")
		writeJSONBytes(w, http.StatusOK, body)
		return
	}
	if body == nil && encErr == nil {
		body, encErr = marshalJSONBody(resp)
	}
	// Make the round durable before answering: once the client sees this
	// response, a daemon crash must not lose the feedback. The write runs
	// after the turn is released, so no command queued behind the round
	// delays the answer, and it does not consult the request context, so
	// neither an expired deadline nor a client that hung up leaves the
	// round undurable. A failed write is logged and retried by the
	// periodic flusher (the durability watermark stays behind) — the
	// in-memory decision already happened, so the response still reports
	// it.
	if err := s.store.checkpoint(t, e, ckpt); err != nil {
		s.log.Warn("checkpoint after feedback failed", "session", e.id, "trace_id", t.ID(), "err", err)
	}
	// Count per-item outcomes separately: stale is the multi-client
	// contention signal, invalid is client misuse — lumping either into
	// the applied rate would mislead dashboards.
	var applied, stale, invalid int64
	for _, res := range resp.Results {
		switch res.Status {
		case FeedbackApplied:
			applied++
		case FeedbackStale:
			stale++
		default:
			invalid++
		}
	}
	s.reg.Counter("gdrd_feedback_total").Add(applied)
	s.reg.Counter("gdrd_feedback_stale_total").Add(stale)
	s.reg.Counter("gdrd_feedback_invalid_total").Add(invalid)
	s.reg.Counter("gdrd_learner_decisions_total").Add(int64(len(resp.LearnerDecisions)))
	if encErr != nil {
		writeEncodeError(w, encErr)
		return
	}
	writeJSONBytes(w, http.StatusOK, body)
}

// applyFeedbackBatch runs inside a command holding the session's turn.
func applyFeedbackBatch(sess *core.Session, req FeedbackRequest) FeedbackResponse {
	before := sess.Stats()
	resp := FeedbackResponse{Results: make([]FeedbackResult, len(req.Items))}
	for i, item := range req.Items {
		fb, ok := parseFeedback(item.Feedback)
		if !ok {
			resp.Results[i] = FeedbackResult{
				Status: FeedbackInvalid,
				Error:  fmt.Sprintf("feedback %q (want confirm|reject|retain)", item.Feedback),
			}
			continue
		}
		cell := repair.CellKey{Tid: item.Tid, Attr: item.Attr}
		cur, live := sess.Pending(cell)
		if !live || cur.Value != item.Value {
			resp.Results[i] = FeedbackResult{Status: FeedbackStale}
			continue
		}
		if req.NoLearn {
			sess.ApplyFeedback(cur, fb)
		} else {
			sess.UserFeedback(cur, fb)
		}
		res := FeedbackResult{Status: FeedbackApplied}
		if fb == repair.Reject {
			if nu, ok := sess.Pending(cell); ok {
				b := updateBody(sess, nu)
				res.Replacement = &b
			}
		}
		resp.Results[i] = res
	}
	if req.Sweep {
		resp.LearnerDecisions = appliedBodies(sess.LearnerSweep(4))
	}
	after := sess.Stats()
	resp.AppliedDelta = after.Applied - before.Applied
	resp.ForcedFixesDelta = after.ForcedFixes - before.ForcedFixes
	resp.Stats = statsBody(after)
	return resp
}

// handleStatus reports the session snapshot: counts, quality-so-far proxy
// and per-attribute model accuracy/trust.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	e, ok := s.session(w, r)
	if !ok {
		return
	}
	var resp StatusResponse
	err := e.actor.do(r.Context(), "status", func(sess *core.Session) {
		resp.Stats = statsBody(sess.Stats())
		ms := sess.ModelStats()
		resp.Models = make([]ModelStatBody, len(ms))
		for i, m := range ms {
			resp.Models[i] = ModelStatBody{
				Attr:     m.Attr,
				Examples: m.Examples,
				Ready:    m.Ready,
				Assessed: m.Assessed,
				Accuracy: m.Accuracy,
				Trusted:  m.Trusted,
			}
		}
	})
	if err != nil {
		writeError(w, err)
		return
	}
	resp.Session = e.info(s.cfg.TTL)
	writeJSON(w, http.StatusOK, resp)
}

// handleExport streams the instance under repair as CSV — the repaired data
// is the product; this is how a tenant takes it home.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	e, ok := s.session(w, r)
	if !ok {
		return
	}
	var buf bytes.Buffer
	err := e.actor.do(r.Context(), "export", func(sess *core.Session) {
		_ = sess.DB().WriteCSV(&buf)
	})
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	_, _ = w.Write(buf.Bytes())
}

// handleSnapshot exports the session as a versioned binary snapshot — the
// portable form of a tenant's accumulated work (instance, feedback,
// committees). The same bytes re-imported via POST /v1/sessions (snapshot
// field or multipart part) resume the session exactly, on this server or
// another; with persistence enabled the export also lands a durable
// checkpoint. The file name offered is the session's key, the name its own
// checkpoint has, so an export saved into a data directory can never give
// its token a second file.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	e, ok := s.session(w, r)
	if !ok {
		return
	}
	data, mut, err := s.store.Snapshot(r.Context(), e)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", e.key()+snapSuffix))
	w.Header().Set("X-GDR-Snapshot-Version", strconv.Itoa(snapshot.FormatVersion))
	// The watermark and tenant ride response headers so the cluster proxy
	// can stamp replica pushes and preserve ownership without decoding the
	// snapshot bytes itself.
	w.Header().Set(MutationSeqHeader, strconv.FormatUint(mut, 10))
	if e.tenant != "" {
		w.Header().Set(AssignTenantHeader, e.tenant)
	}
	_, _ = w.Write(data)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.store.DeleteFor(r.PathValue("id"), requestOwner(r)) {
		writeNotFound(w, "session")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"sessions":       s.store.Len(),
		"uptime_seconds": int64(time.Since(s.started).Seconds()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.collectRuntime()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WriteProm(w)
}

// collectRuntime refreshes the Go runtime gauges at scrape time — sampling
// on demand keeps the daemon from paying ReadMemStats on any hot path.
func (s *Server) collectRuntime() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.reg.Gauge("gdrd_goroutines").Set(int64(runtime.NumGoroutine()))
	s.reg.Gauge("gdrd_heap_alloc_bytes").Set(int64(ms.HeapAlloc))
	s.reg.Gauge("gdrd_heap_objects").Set(int64(ms.HeapObjects))
	s.reg.Gauge("gdrd_gc_cycles_total").Set(int64(ms.NumGC))
	s.reg.FloatGauge("gdrd_gc_pause_seconds_total").Set(float64(ms.PauseTotalNs) / 1e9)
}

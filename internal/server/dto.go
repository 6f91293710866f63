package server

import (
	"fmt"
	"net/url"
	"strings"
	"time"

	"gdr/internal/core"
	"gdr/internal/group"
	"gdr/internal/repair"
)

// The wire types of the gdrd HTTP/JSON API. Every response body is one of
// these structs (or ErrorBody); request bodies are CreateSessionRequest and
// FeedbackRequest. Field names are stable API surface — the load client and
// the curl walkthrough in the README depend on them.

// CreateSessionRequest opens a session from an inline CSV instance and a
// rule set in the cfd text format ("name: A -> B :: p || q", one per line).
// The same fields can instead be posted as a multipart form (csv and rules
// file parts; name, seed and workers as value parts) so that curl can
// upload files directly.
type CreateSessionRequest struct {
	// Name is an optional human label echoed back in status.
	Name string `json:"name,omitempty"`
	// CSV is the dirty instance, header row first.
	CSV string `json:"csv"`
	// Rules is the CFD rule set, one rule per line.
	Rules string `json:"rules"`
	// Seed drives every random choice in the session (group shuffles,
	// committee training); 0 (or omitted) keeps the server's default.
	Seed int64 `json:"seed,omitempty"`
	// Workers bounds the goroutines one request into this session may use
	// for VOI scoring and candidate generation; it is clamped to the
	// server's worker budget. Sessions default to 1: the serving tier
	// scales across sessions, not inside one.
	Workers int `json:"workers,omitempty"`
	// Snapshot, when present, selects the restore-on-create path: the body
	// of a previous POST .../snapshot export (base64 in JSON, raw bytes as
	// a multipart "snapshot" file part). The snapshot carries the whole
	// session — CSV, Rules and Seed must be absent; Workers may still
	// override the restored session's fan-out (clamped to the budget).
	Snapshot []byte `json:"snapshot,omitempty"`
	// Token pre-assigns the session's token instead of generating one. It
	// is the cluster-placement hook — the routing proxy chooses tokens so
	// they consistent-hash to the node it creates the session on, and a
	// migrated session keeps the token its clients hold. It never travels
	// in a body: only the X-GDR-Assign-Token header sets it, and only with
	// Config.ClusterMode or an admin tenant (403 otherwise).
	Token string `json:"-"`
	// Tenant pre-assigns the session's owning tenant — the migration
	// import path preserves ownership across nodes with it. Header-only
	// (X-GDR-Assign-Tenant) and gated exactly like Token.
	Tenant string `json:"-"`
}

// SessionInfo describes one live session.
type SessionInfo struct {
	ID        string    `json:"id"`
	Name      string    `json:"name,omitempty"`
	Tenant    string    `json:"tenant,omitempty"`
	Tuples    int       `json:"tuples"`
	Attrs     []string  `json:"attrs"`
	Rules     int       `json:"rules"`
	CreatedAt time.Time `json:"created_at"`
	ExpiresAt time.Time `json:"expires_at"`
	// MutSeq is the session's mutation-sequence watermark — how many
	// mutations (feedback rounds and random-order polls) it has absorbed.
	// The cluster proxy compares it against replica watermarks to spot
	// lagging replicas.
	MutSeq uint64 `json:"mut_seq,omitempty"`
}

// ReplicaInfo describes one held replica snapshot on a node's spill store.
type ReplicaInfo struct {
	Key    string `json:"key"`              // <tenant>@<token> or bare <token>
	Token  string `json:"token"`            // the session token
	Tenant string `json:"tenant,omitempty"` // owning tenant ("" = unowned)
	Seq    uint64 `json:"seq"`              // mutation watermark of the bytes
	Size   int    `json:"size"`             // snapshot size in bytes
}

// ReplicaList is the GET /v1/replicas response.
type ReplicaList struct {
	Replicas []ReplicaInfo `json:"replicas"`
}

// StatsBody mirrors core.Stats on the wire.
type StatsBody struct {
	Pending      int     `json:"pending"`
	Dirty        int     `json:"dirty"`
	InitialDirty int     `json:"initial_dirty"`
	Tuples       int     `json:"tuples"`
	Applied      int     `json:"applied"`
	ForcedFixes  int     `json:"forced_fixes"`
	CleanedPct   float64 `json:"cleaned_pct"`
}

func statsBody(st core.Stats) StatsBody {
	return StatsBody{
		Pending:      st.Pending,
		Dirty:        st.Dirty,
		InitialDirty: st.InitialDirty,
		Tuples:       st.Tuples,
		Applied:      st.Applied,
		ForcedFixes:  st.ForcedFixes,
		CleanedPct:   st.CleanedPct,
	}
}

// ModelStatBody mirrors core.ModelStat on the wire.
type ModelStatBody struct {
	Attr     string  `json:"attr"`
	Examples int     `json:"examples"`
	Ready    bool    `json:"ready"`
	Assessed bool    `json:"assessed"`
	Accuracy float64 `json:"accuracy"`
	Trusted  bool    `json:"trusted"`
}

// CreateSessionResponse returns the token and the initial suggestion state.
type CreateSessionResponse struct {
	Session SessionInfo `json:"session"`
	Stats   StatsBody   `json:"stats"`
}

// SessionList is the GET /v1/sessions response.
type SessionList struct {
	Sessions []SessionInfo `json:"sessions"`
}

// UpdateBody is one suggested repair ⟨t, A, v, s⟩ on the wire. Current is
// the cell's value at response time, so a remote user (or simulated oracle)
// can choose retain without another round trip; it is omitted for
// already-applied learner decisions.
type UpdateBody struct {
	Tid     int     `json:"tid"`
	Attr    string  `json:"attr"`
	Value   string  `json:"value"`
	Current string  `json:"current,omitempty"`
	Score   float64 `json:"score"`
}

func updateBody(sess *core.Session, u repair.Update) UpdateBody {
	return UpdateBody{
		Tid:     u.Tid,
		Attr:    u.Attr,
		Value:   u.Value,
		Current: sess.DB().Get(u.Tid, u.Attr),
		Score:   u.Score,
	}
}

func updateBodies(sess *core.Session, ups []repair.Update) []UpdateBody {
	out := make([]UpdateBody, len(ups))
	for i, u := range ups {
		out[i] = updateBody(sess, u)
	}
	return out
}

func appliedBodies(ups []repair.Update) []UpdateBody {
	out := make([]UpdateBody, len(ups))
	for i, u := range ups {
		out[i] = UpdateBody{Tid: u.Tid, Attr: u.Attr, Value: u.Value, Score: u.Score}
	}
	return out
}

// GroupBody is one ranked update group. Key is the opaque path token for
// GET .../groups/{key}/updates: the attribute and the suggested value,
// individually query-escaped and joined by ':'.
type GroupBody struct {
	Key     string  `json:"key"`
	Attr    string  `json:"attr"`
	Value   string  `json:"value"`
	Size    int     `json:"size"`
	Benefit float64 `json:"benefit"`
}

// GroupsResponse is the ranked group listing. The session's monotone
// ranking version travels in the response's ETag (not the body, which stays
// byte-identical across snapshot/restore): poll with If-None-Match to get a
// bodyless 304 while the ranking is unchanged (voi and greedy orders only;
// random produces a fresh shuffle per request and is never cacheable).
type GroupsResponse struct {
	Order  string      `json:"order"`
	Total  int         `json:"total"`
	Groups []GroupBody `json:"groups"`
}

// UpdatesResponse lists the live updates of one group.
type UpdatesResponse struct {
	Key     string       `json:"key"`
	Attr    string       `json:"attr"`
	Value   string       `json:"value"`
	Updates []UpdateBody `json:"updates"`
}

// FeedbackItem is one user decision on one suggested update. The (tid,
// attr, value) triple must match a live suggestion exactly; a stale triple
// (already decided, or replaced by a newer suggestion) is reported, not
// applied.
type FeedbackItem struct {
	Tid      int    `json:"tid"`
	Attr     string `json:"attr"`
	Value    string `json:"value"`
	Feedback string `json:"feedback"` // confirm | reject | retain
}

// FeedbackRequest is a batched round of user feedback.
type FeedbackRequest struct {
	Items []FeedbackItem `json:"items"`
	// NoLearn suppresses committee training (the raw ApplyFeedback path);
	// by default every answer is also a training example, as in
	// Procedure 1 step 6.
	NoLearn bool `json:"no_learn,omitempty"`
	// Sweep asks the trained committees to decide everything still pending
	// after the batch (the Section 4.2 hand-off). Decisions are returned
	// in LearnerDecisions.
	Sweep bool `json:"sweep,omitempty"`
}

// Feedback item outcome codes.
const (
	FeedbackApplied = "applied" // decision recorded
	FeedbackStale   = "stale"   // no live suggestion matched the triple
	FeedbackInvalid = "invalid" // malformed item (bad tid/attr/feedback)
)

// FeedbackResult reports the outcome of one item, plus the newly derived
// consequence for rejects: the replacement suggestion for the same cell,
// when the generator finds one.
type FeedbackResult struct {
	Status      string      `json:"status"`
	Error       string      `json:"error,omitempty"`
	Replacement *UpdateBody `json:"replacement,omitempty"`
}

// FeedbackResponse summarizes one feedback round: per-item outcomes, the
// updates the learner decided during the optional sweep, and the deltas the
// round caused (applied writes and forced constant-rule fixes include the
// consistency manager's cascades).
type FeedbackResponse struct {
	Results          []FeedbackResult `json:"results"`
	LearnerDecisions []UpdateBody     `json:"learner_decisions,omitempty"`
	AppliedDelta     int              `json:"applied_delta"`
	ForcedFixesDelta int              `json:"forced_fixes_delta"`
	Stats            StatsBody        `json:"stats"`
}

// StatusResponse is the session introspection snapshot.
type StatusResponse struct {
	Session SessionInfo     `json:"session"`
	Stats   StatsBody       `json:"stats"`
	Models  []ModelStatBody `json:"models"`
}

// ErrorBody is every non-2xx response.
type ErrorBody struct {
	Error string `json:"error"`
}

// GroupKeyToken renders a group key as its opaque URL path token.
func GroupKeyToken(k group.Key) string {
	return url.QueryEscape(k.Attr) + ":" + url.QueryEscape(k.Value)
}

// ParseGroupKeyToken inverts GroupKeyToken. raw must be the undecoded path
// segment: QueryEscape escapes ':' inside the attribute and the value, so
// the first raw ':' is always the separator.
func ParseGroupKeyToken(raw string) (group.Key, error) {
	i := strings.IndexByte(raw, ':')
	if i < 0 {
		return group.Key{}, fmt.Errorf("group key %q: want attr:value", raw)
	}
	attr, err := url.QueryUnescape(raw[:i])
	if err != nil {
		return group.Key{}, fmt.Errorf("group key attribute: %w", err)
	}
	value, err := url.QueryUnescape(raw[i+1:])
	if err != nil {
		return group.Key{}, fmt.Errorf("group key value: %w", err)
	}
	return group.Key{Attr: attr, Value: value}, nil
}

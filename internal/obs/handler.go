package obs

import (
	"encoding/json"
	"net/http"
	"time"
)

// TraceJSON is the wire form of one finished trace at /debug/traces.
type TraceJSON struct {
	TraceID    string     `json:"trace_id"`
	SpanID     string     `json:"span_id"`
	ParentSpan string     `json:"parent_span,omitempty"`
	Route      string     `json:"route"`
	Tenant     string     `json:"tenant,omitempty"`
	Session    string     `json:"session,omitempty"`
	Start      time.Time  `json:"start"`
	Seconds    float64    `json:"duration_seconds"`
	Status     int        `json:"status"`
	Dropped    int        `json:"dropped_spans,omitempty"`
	Spans      []SpanJSON `json:"spans"`
}

// SpanJSON is one node of the rendered span tree.
type SpanJSON struct {
	Stage    string     `json:"stage"`
	Offset   float64    `json:"start_seconds"`
	Seconds  float64    `json:"duration_seconds"`
	Children []SpanJSON `json:"children,omitempty"`
}

// TracesBody is the /debug/traces response document. Enabled is always
// true: tracing cannot be turned off, and the field keeps the document's
// shape for the scripts that read it.
type TracesBody struct {
	Enabled bool        `json:"enabled"`
	Total   uint64      `json:"finished_total"`
	Recent  []TraceJSON `json:"recent"`
	Slowest []TraceJSON `json:"slowest"`
}

// Handler serves the retained traces as JSON: the recent ring (newest
// first) and the slowest list, each optionally filtered by ?min_dur= (a Go
// duration, e.g. 100ms). The handler performs no access control — the
// serving tier mounts it behind a loopback guard.
func (tr *Tracer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var minDur time.Duration
		if v := r.URL.Query().Get("min_dur"); v != "" {
			d, err := time.ParseDuration(v)
			if err != nil {
				w.WriteHeader(http.StatusBadRequest)
				_ = json.NewEncoder(w).Encode(map[string]string{"error": "bad min_dur: " + err.Error()})
				return
			}
			minDur = d
		}
		recent, slowest, total := tr.snapshot()
		body := TracesBody{
			Enabled: true,
			Total:   total,
			Recent:  render(recent, minDur),
			Slowest: render(slowest, minDur),
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(body)
	})
}

// render converts finished traces to their wire form, dropping those
// faster than minDur.
func render(traces []*Trace, minDur time.Duration) []TraceJSON {
	out := make([]TraceJSON, 0, len(traces))
	for _, t := range traces {
		if j, ok := t.render(minDur); ok {
			out = append(out, j)
		}
	}
	return out
}

// render builds the wire form of one finished trace. The trace is sealed
// (immutable) by the time it is retained, but the snapshot still copies
// everything under the trace's own lock for safety.
func (t *Trace) render(minDur time.Duration) (TraceJSON, bool) {
	t.mu.Lock()
	dur := t.dur
	if dur < minDur {
		t.mu.Unlock()
		return TraceJSON{}, false
	}
	j := TraceJSON{
		TraceID:    t.id,
		SpanID:     t.spanID,
		ParentSpan: t.parentSpan,
		Route:      t.route,
		Tenant:     t.tenant,
		Session:    t.session,
		Start:      t.start,
		Seconds:    dur.Seconds(),
		Status:     t.status,
		Dropped:    t.dropped,
	}
	spans := append([]Span(nil), t.spans...)
	t.mu.Unlock()
	j.Spans = buildTree(spans)
	return j, true
}

// treeNode is the mutable form of a span while the tree is assembled.
type treeNode struct {
	span     Span
	children []*treeNode
}

// buildTree nests flat spans by parent stage name. Spans are recorded when
// they end, so an enclosing span (exec, persist) lands in the list after
// the children it covered: each span therefore attaches to the nearest
// following span whose stage matches its Parent — the soonest-ending
// enclosure, which resolves repeated stage names (each suggest span finds
// the exec that enclosed it, not a later one). A span whose parent only
// occurs earlier (recorded out of discipline) falls back to the nearest
// preceding match; "" or unknown parents join the root list.
func buildTree(spans []Span) []SpanJSON {
	nodes := make([]*treeNode, len(spans))
	for i, sp := range spans {
		nodes[i] = &treeNode{span: sp}
	}
	var roots []*treeNode
	for i, sp := range spans {
		parent := (*treeNode)(nil)
		if sp.Parent != "" {
			for j := i + 1; j < len(nodes); j++ {
				if nodes[j].span.Stage == sp.Parent {
					parent = nodes[j]
					break
				}
			}
			if parent == nil {
				for j := i - 1; j >= 0; j-- {
					if nodes[j].span.Stage == sp.Parent {
						parent = nodes[j]
						break
					}
				}
			}
		}
		if parent == nil {
			roots = append(roots, nodes[i])
		} else {
			parent.children = append(parent.children, nodes[i])
		}
	}
	return materialize(roots)
}

func materialize(nodes []*treeNode) []SpanJSON {
	if len(nodes) == 0 {
		return nil
	}
	out := make([]SpanJSON, len(nodes))
	for i, n := range nodes {
		out[i] = SpanJSON{
			Stage:    n.span.Stage,
			Offset:   n.span.Start.Seconds(),
			Seconds:  n.span.Dur.Seconds(),
			Children: materialize(n.children),
		}
	}
	return out
}

package server

import "gdr/internal/snapshot"

// dedupWindowSize bounds the per-session feedback dedup window: a retrying
// client re-sends within a round trip or two, so a handful of remembered
// responses is plenty, and the window's snapshot footprint stays small and
// bounded (each entry is one request id plus one rendered response body).
const dedupWindowSize = 32

// dedupWindow remembers the last dedupWindowSize feedback responses by
// client request id, so a retried POST (same X-Gdr-Request-Id) replays the
// original bytes instead of double-applying the round. It is confined like
// the session: every method must run inside a command holding the owning
// session's turn, which is also what lets it be persisted inside the
// session snapshot — state and window roll back (or fail over) atomically.
type dedupWindow struct {
	ring  []snapshot.DedupEntry // oldest-first up to next, insertion ring
	next  int                   // slot the next put overwrites once full
	index map[string]int        // request id → ring slot
}

func newDedupWindow() *dedupWindow {
	return &dedupWindow{index: make(map[string]int, dedupWindowSize)}
}

// get returns the remembered response for a request id, if still windowed.
func (d *dedupWindow) get(id string) ([]byte, bool) {
	i, ok := d.index[id]
	if !ok {
		return nil, false
	}
	return d.ring[i].Body, true
}

// put remembers one response, evicting the oldest entry once the window is
// full. A repeated id overwrites in place (the response for an id never
// legitimately changes, but an overwrite must not grow the window).
func (d *dedupWindow) put(id string, body []byte) {
	if i, ok := d.index[id]; ok {
		d.ring[i].Body = body
		return
	}
	if len(d.ring) < dedupWindowSize {
		d.index[id] = len(d.ring)
		d.ring = append(d.ring, snapshot.DedupEntry{ID: id, Body: body})
		return
	}
	delete(d.index, d.ring[d.next].ID)
	d.ring[d.next] = snapshot.DedupEntry{ID: id, Body: body}
	d.index[id] = d.next
	d.next = (d.next + 1) % dedupWindowSize
}

// export snapshots the window in deterministic (insertion ring) order:
// oldest first, so restore rebuilds the same eviction order and two
// snapshots of the same session state encode byte-identically.
func (d *dedupWindow) export() []snapshot.DedupEntry {
	if len(d.ring) == 0 {
		return nil
	}
	out := make([]snapshot.DedupEntry, 0, len(d.ring))
	for i := 0; i < len(d.ring); i++ {
		out = append(out, d.ring[(d.next+i)%len(d.ring)])
	}
	return out
}

// restore rebuilds the window from snapshot meta (oldest-first, as export
// writes it).
func (d *dedupWindow) restore(entries []snapshot.DedupEntry) {
	d.ring = d.ring[:0]
	d.next = 0
	clear(d.index)
	for _, ent := range entries {
		d.put(ent.ID, ent.Body)
	}
}

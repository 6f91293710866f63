package server

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"

	"gdr/internal/faultfs"
	"gdr/internal/obs"
	"gdr/internal/snapshot"
)

// The replica spill store: every cluster node holds, next to its own
// sessions, the replicated snapshots of sessions whose ring owner is
// another node. The cluster proxy pushes a versioned snapshot here after
// each mutating round (PUT, watermarked with X-Gdr-Mutation-Seq), promotes
// from here on a dead-node failover (GET), and garbage-collects replicas
// whose placement moved (DELETE). Pushes are monotone: a push older than
// what the store already holds is rejected with 409, so a delayed or
// replayed push can never roll a replica back.

// errReplicaStale rejects a replica push whose watermark is behind the
// stored copy (mapped to 409).
var errReplicaStale = fmt.Errorf("server: replica push is stale")

// replicaRec is one held replica: the watermark its snapshot carries, its
// size, and — without a directory, so that a diskless node can still serve
// as a replica target — its bytes.
type replicaRec struct {
	seq  uint64
	size int
	data []byte
}

// replicaStore holds replica snapshots under their session keys, on disk
// the way the session store keeps checkpoints: <dir>/<key>.snap. It is
// deliberately dumb storage: no TTLs, no interpretation of the bytes beyond
// the envelope and the watermark — the proxy's anti-entropy sweep owns the
// lifecycle.
type replicaStore struct {
	snapDir // dir "" = memory only

	mu   sync.Mutex
	held map[string]replicaRec // gdr:guarded-by mu
}

// newReplicaStore builds the store and, with a directory configured,
// rescans the replicas that survived a restart, each at the watermark its
// verified snapshot carries.
func newReplicaStore(dir string, faults *faultfs.Injector, log *slog.Logger) *replicaStore {
	rs := &replicaStore{snapDir: snapDir{dir: dir, faults: faults, log: log}, held: make(map[string]replicaRec)}
	if dir == "" {
		return rs
	}
	keys, err := rs.scan()
	if err != nil {
		rs.log.Error("scanning replica dir failed", "dir", dir, "err", err)
		rs.dir = "" // fall back to memory-only rather than failing every push
		return rs
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for _, key := range keys {
		data, err := os.ReadFile(rs.path(key))
		var seq uint64
		if err == nil {
			seq, err = snapshot.Watermark(data)
		}
		if err != nil {
			rs.log.Warn("skipping snapshot "+rs.path(key), "err", err)
			continue
		}
		rs.held[key] = replicaRec{seq: seq, size: len(data)}
	}
	if len(rs.held) > 0 {
		rs.log.Info("restored replicas", "count", len(rs.held), "dir", dir)
	}
	return rs
}

// put stores one replica push at watermark seq and returns the watermark
// held before it, if any. Watermarks are monotone per key: an older push
// returns errReplicaStale, an equal one is an idempotent no-op (the proxy
// retries pushes), and a newer one replaces the copy atomically — if its
// snapshot carries that watermark (carried), which keeps the held one
// equal to what a restart reads back.
func (rs *replicaStore) put(key string, seq, carried uint64, data []byte, t *obs.Trace) (held uint64, had bool, err error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	prev, had := rs.held[key]
	switch {
	case had && seq < prev.seq:
		return prev.seq, had, errReplicaStale
	case had && seq == prev.seq:
		return prev.seq, had, nil
	case carried != seq:
		return prev.seq, had, fmt.Errorf("%w: %s is %d but the snapshot carries watermark %d", ErrBadRequest, MutationSeqHeader, seq, carried)
	}
	rec := replicaRec{seq: seq, size: len(data)}
	if rs.dir == "" {
		// Copied to its exact size: the body io.ReadAll returns has up to a
		// fifth more capacity, which a held replica would keep alive.
		rec.data = append([]byte(nil), data...)
	} else if err = rs.write(key, data, t); err != nil {
		return prev.seq, had, err
	}
	rs.held[key] = rec
	return prev.seq, had, nil
}

// get returns the held replica bytes and watermark for a key. The read
// holds the lock, as put's write does, so the bytes are always the ones
// the watermark names.
func (rs *replicaStore) get(key string) ([]byte, uint64, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rec, ok := rs.held[key]
	if !ok || rs.dir == "" {
		return rec.data, rec.seq, ok
	}
	data, err := os.ReadFile(rs.path(key))
	if err != nil {
		rs.log.Warn("reading replica failed", "key", key, "err", err)
		return nil, 0, false
	}
	return data, rec.seq, true
}

// drop removes a held replica; it reports whether one existed. The file
// goes under the lock, so a racing push cannot land first and be deleted.
func (rs *replicaStore) drop(key string) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if _, ok := rs.held[key]; !ok {
		return false
	}
	delete(rs.held, key)
	if rs.dir != "" {
		rs.remove(key)
	}
	return true
}

// list snapshots the held replicas, ordered by key.
func (rs *replicaStore) list() []ReplicaInfo {
	rs.mu.Lock()
	out := make([]ReplicaInfo, 0, len(rs.held))
	for key, rec := range rs.held {
		tenant, token := splitKey(key)
		out = append(out, ReplicaInfo{Key: key, Token: token, Tenant: tenant, Seq: rec.seq, Size: rec.size})
	}
	rs.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// count returns the number of held replicas.
func (rs *replicaStore) count() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.held)
}

// replicaMetrics refreshes the replica gauges after a store mutation.
func (s *Server) replicaMetrics() {
	s.reg.Gauge("gdrd_replicas_held").Set(int64(s.replicas.count()))
}

// handleReplicaPut accepts one replica push. Gated like the placement
// headers (cluster mode or an admin tenant): replicas bypass the normal
// session lifecycle, so open tenants must not reach them.
func (s *Server) handleReplicaPut(w http.ResponseWriter, r *http.Request) {
	if !s.mayAssign(r) {
		writeError(w, fmt.Errorf("%w: replica endpoints need cluster mode or an admin key", ErrForbidden))
		return
	}
	key := r.PathValue("key")
	if !validKey(key) {
		writeError(w, fmt.Errorf("%w: malformed replica key", ErrBadRequest))
		return
	}
	seq, err := strconv.ParseUint(r.Header.Get(MutationSeqHeader), 10, 64)
	if err != nil {
		writeError(w, fmt.Errorf("%w: missing or malformed %s header", ErrBadRequest, MutationSeqHeader))
		return
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, fmt.Errorf("%w: reading replica body: %w", ErrBadRequest, err))
		return
	}
	// Envelope check before anything is stored: a corrupt push (bad magic,
	// unreadable version, CRC mismatch) must never replace a good replica.
	carried, err := snapshot.Watermark(data)
	if err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	held, had, err := s.replicas.put(key, seq, carried, data, obs.FromContext(r.Context()))
	if err == errReplicaStale {
		s.reg.Counter("gdrd_replica_stale_pushes_total").Inc()
		writeJSON(w, http.StatusConflict, ErrorBody{Error: fmt.Sprintf("%v: holds seq %d, push carries %d", err, held, seq)})
		return
	}
	if err != nil {
		writeError(w, err)
		return
	}
	s.reg.Counter("gdrd_replica_pushes_total").Inc()
	// The rounds this push skipped over: 0 when it follows the held copy
	// by one round (or is the key's first), more when pushes were lost.
	lag := int64(0)
	if had && seq > held+1 {
		lag = int64(seq - held - 1)
	}
	s.reg.Gauge("gdrd_replica_lag_rounds").Set(lag)
	s.replicaMetrics()
	writeJSON(w, http.StatusOK, map[string]any{"status": "stored", "seq": seq})
}

// handleReplicaGet serves the held replica bytes (the failover pull path).
func (s *Server) handleReplicaGet(w http.ResponseWriter, r *http.Request) {
	if !s.mayAssign(r) {
		writeError(w, fmt.Errorf("%w: replica endpoints need cluster mode or an admin key", ErrForbidden))
		return
	}
	data, seq, ok := s.replicas.get(r.PathValue("key"))
	if !ok {
		writeNotFound(w, "replica")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(MutationSeqHeader, strconv.FormatUint(seq, 10))
	_, _ = w.Write(data)
}

// handleReplicaDelete drops a held replica (placement moved, or the
// session was deleted).
func (s *Server) handleReplicaDelete(w http.ResponseWriter, r *http.Request) {
	if !s.mayAssign(r) {
		writeError(w, fmt.Errorf("%w: replica endpoints need cluster mode or an admin key", ErrForbidden))
		return
	}
	if !s.replicas.drop(r.PathValue("key")) {
		writeNotFound(w, "replica")
		return
	}
	s.replicaMetrics()
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}

// handleReplicaList inventories the held replicas (the anti-entropy sweep
// reads this from every node).
func (s *Server) handleReplicaList(w http.ResponseWriter, r *http.Request) {
	if !s.mayAssign(r) {
		writeError(w, fmt.Errorf("%w: replica endpoints need cluster mode or an admin key", ErrForbidden))
		return
	}
	writeJSON(w, http.StatusOK, ReplicaList{Replicas: s.replicas.list()})
}

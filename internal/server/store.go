package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gdr/internal/cfd"
	"gdr/internal/core"
	"gdr/internal/faultfs"
	"gdr/internal/metrics"
	"gdr/internal/obs"
	"gdr/internal/relation"
	"gdr/internal/snapshot"
)

// Store owns the live sessions of one server: creation from an uploaded
// instance (or an imported snapshot), token lookup, a cap on concurrently
// live sessions, and TTL-based eviction of idle ones (touched on every
// lookup). All session work after creation goes through each entry's actor,
// with CPU slots granted tenant-fairly by the shared scheduler. Sessions
// created by an authenticated tenant are owned by it: other tenants cannot
// see or touch them. With a data directory configured, the store is also
// the persistence tier: it checkpoints sessions to disk, restores them on
// construction, and flushes a final checkpoint of every live session on
// Close.
type Store struct {
	ttl        time.Duration
	maxLive    int
	session    core.Config // per-session defaults (Seed/Workers overridable per request)
	sched      *sched      // tenant-fair CPU slot scheduler
	queueDepth int
	faults     *faultfs.Injector
	reg        *metrics.Registry
	now        func() time.Time

	// dir is the snapshot directory ("" disables persistence); ckptEvery
	// the periodic flusher cadence; log the store's structured sink (never nil).
	dir       string
	ckptEvery time.Duration
	log       *slog.Logger

	mu      sync.Mutex
	entries map[string]*entry // gdr:guarded-by mu
	closed  bool              // gdr:guarded-by mu

	janitorStop chan struct{}
	janitorWG   sync.WaitGroup
	flushStop   chan struct{}
	flushWG     sync.WaitGroup
}

// entry is one live session: its actor, immutable metadata, and the
// lastUsed stamp eviction works from.
type entry struct {
	id      string
	name    string
	tenant  string // owning tenant; "" = unowned (open mode), visible to all
	created time.Time
	attrs   []string
	tuples  int
	rules   int
	actor   *actor

	// etagSalt scopes /groups cache validators to this in-memory incarnation
	// of the session. The ranking version is derived, unpersisted state that
	// restarts when a snapshot is restored; without the salt, a client
	// holding a pre-restart ETag could get a false 304 once the restored
	// session's version counter passes the old value again. Empty disables
	// conditional responses for the entry (fail-safe).
	etagSalt string

	// mutSeq counts the session's state mutations; it is bumped inside the
	// actor command that performs the mutation, so a snapshot encoded on
	// the actor observes a value consistent with the state it captured.
	// ckptMu guards the durability watermark: durableMut is the mutSeq the
	// newest on-disk snapshot captured (valid once hasDurable). An entry is
	// dirty — needing a checkpoint — while mutSeq is ahead of the
	// watermark; comparing sequences (instead of a boolean) means a stale
	// in-flight snapshot can neither overwrite a newer file nor mark newer,
	// unflushed mutations as durable.
	mutSeq atomic.Uint64

	// dedup is the feedback replay window. Actor-confined, like the session
	// itself: only commands running on the entry's actor may touch it, which
	// is what keeps a snapshot's state and dedup window mutually consistent.
	dedup *dedupWindow

	ckptMu     sync.Mutex
	durableMut uint64 // gdr:guarded-by ckptMu
	hasDurable bool   // gdr:guarded-by ckptMu

	// Checkpoint retry backoff, consulted only by the periodic flusher: a
	// session whose disk keeps failing is retried with exponentially growing
	// spacing instead of hammering the sick disk every tick.
	ckptFails int       // gdr:guarded-by ckptMu — consecutive failures
	nextCkpt  time.Time // gdr:guarded-by ckptMu — flusher holds off until then

	mu       sync.Mutex
	lastUsed time.Time // gdr:guarded-by mu
	// leases counts operations that must not lose the session mid-flight —
	// a snapshot export the cluster proxy is streaming for a migration.
	// While any lease is held, the janitor (and the lazy lookup-time check)
	// treats the entry as in use: without this, a TTL tick during a slow
	// export could evict the source session the importing node is about to
	// take over, losing it from both.
	leases int // gdr:guarded-by mu
}

// acquireLease pins the entry against TTL eviction; release with
// releaseLease. Acquisition also refreshes the idle clock, so back-to-back
// exports behave like any other use.
func (e *entry) acquireLease(now time.Time) {
	e.mu.Lock()
	e.leases++
	e.lastUsed = now
	e.mu.Unlock()
}

// releaseLease drops one lease and restamps the idle clock — the TTL
// countdown starts from the end of the leased operation, not its start.
func (e *entry) releaseLease(now time.Time) {
	e.mu.Lock()
	e.leases--
	e.lastUsed = now
	e.mu.Unlock()
}

// evictable reports whether the entry may be TTL-evicted: idle past the
// deadline and not pinned by any lease.
func (e *entry) evictable(deadline time.Time) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.leases == 0 && e.lastUsed.Before(deadline)
}

// newEntry wraps a freshly built session in its entry: the metadata
// snapshot, the actor that owns the session from here on, and the ETag
// salt. Taking the session as a parameter keeps the reads here inside the
// actor-confinement rule: only a caller that legitimately holds the
// freshly built session can hand it in.
func (s *Store) newEntry(sess *core.Session, token, name, tenant string, workers int) *entry {
	db, nrules := sess.DB(), len(sess.Engine().Rules())
	now := s.now()
	return &entry{
		id:       token,
		name:     name,
		tenant:   tenant,
		created:  now,
		lastUsed: now,
		attrs:    append([]string(nil), db.Schema.Attrs...),
		tuples:   db.N(),
		rules:    nrules,
		actor:    newActor(sess, s.sched, workers, tenant, s.queueDepth, s.reg, s.faults),
		etagSalt: newETagSalt(),
		dedup:    newDedupWindow(),
	}
}

// visibleTo reports whether a caller with the given ownership tag may see
// this entry. Unowned entries (open mode, or restored from before auth was
// enabled) are visible to everyone; an empty caller tag — open mode — sees
// everything, because there is no one to hide it from.
func (e *entry) visibleTo(owner string) bool {
	return e.tenant == "" || owner == "" || e.tenant == owner
}

// isDirty reports whether the session has state not yet captured by an
// on-disk snapshot.
func (e *entry) isDirty() bool {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	return !e.hasDurable || e.mutSeq.Load() > e.durableMut
}

// markUndurable invalidates the durability watermark, as if the last
// checkpoint had never landed (the on-disk file is gone or stale).
func (e *entry) markUndurable() {
	e.ckptMu.Lock()
	e.hasDurable = false
	e.ckptMu.Unlock()
}

// ckptFailed records one failed checkpoint and schedules the flusher's next
// attempt: base spacing doubles per consecutive failure, capped at 32×.
func (e *entry) ckptFailed(now time.Time, base time.Duration) {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	shift := e.ckptFails
	if shift > 5 {
		shift = 5
	}
	e.ckptFails++
	e.nextCkpt = now.Add(base << shift)
}

// ckptSucceeded resets the retry backoff after a landed checkpoint.
func (e *entry) ckptSucceeded() {
	e.ckptMu.Lock()
	e.ckptFails = 0
	e.nextCkpt = time.Time{}
	e.ckptMu.Unlock()
}

// retryDue reports whether the flusher should attempt this entry yet.
func (e *entry) retryDue(now time.Time) bool {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	return !now.Before(e.nextCkpt)
}

func (e *entry) touch(now time.Time) {
	e.mu.Lock()
	e.lastUsed = now
	e.mu.Unlock()
}

func (e *entry) idleSince() time.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lastUsed
}

// info snapshots the entry's wire description. Expiry is projected from
// the last use, so an actively driven session never shows as expiring.
func (e *entry) info(ttl time.Duration) SessionInfo {
	return SessionInfo{
		ID:        e.id,
		Name:      e.name,
		Tenant:    e.tenant,
		Tuples:    e.tuples,
		Attrs:     e.attrs,
		Rules:     e.rules,
		CreatedAt: e.created,
		ExpiresAt: e.idleSince().Add(ttl),
		MutSeq:    e.mutSeq.Load(),
	}
}

// NewStore builds a store from an already-defaulted server Config (TTL,
// session cap, worker budget, per-session defaults, persistence settings).
// reg receives the store's gauges and counters. When cfg.DataDir is set,
// every existing snapshot in it is restored before the store starts
// serving, and the periodic checkpoint flusher is started.
func NewStore(cfg Config, reg *metrics.Registry) *Store {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	s := &Store{
		ttl:         cfg.TTL,
		maxLive:     cfg.MaxSessions,
		session:     cfg.Session,
		sched:       newSched(workers),
		queueDepth:  cfg.QueueDepth,
		faults:      cfg.Faults,
		reg:         reg,
		now:         time.Now,
		dir:         cfg.DataDir,
		ckptEvery:   cfg.CheckpointEvery,
		log:         cfg.logger(),
		entries:     make(map[string]*entry),
		janitorStop: make(chan struct{}),
		flushStop:   make(chan struct{}),
	}
	if s.dir != "" {
		s.restoreDir()
		s.flushWG.Add(1)
		go s.flusher()
	}
	interval := cfg.TTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	s.janitorWG.Add(1)
	go s.janitor(interval)
	return s
}

func (s *Store) janitor(interval time.Duration) {
	defer s.janitorWG.Done()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.evictIdle()
		case <-s.janitorStop:
			return
		}
	}
}

// evictIdle removes every session idle for longer than the TTL.
func (s *Store) evictIdle() {
	deadline := s.now().Add(-s.ttl)
	var victims []*entry
	s.mu.Lock()
	for id, e := range s.entries {
		if e == nil {
			continue // cap reservation: a Create is mid-build
		}
		if e.evictable(deadline) {
			delete(s.entries, id)
			victims = append(victims, e)
		}
	}
	s.setLiveLocked()
	s.mu.Unlock()
	// Victims were harvested in map order; evict oldest-idle first so the
	// teardown sequence (and its log/metric trail) is reproducible.
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	for _, e := range victims {
		e.actor.close()
		s.removeSnapshot(e)
		s.reg.Counter("gdrd_sessions_evicted_total").Inc()
	}
}

// setLiveLocked refreshes the live-session gauge. It must run under s.mu:
// publishing a count computed inside the lock after releasing it lets two
// concurrent mutations land their Sets out of order and strand a stale
// value.
func (s *Store) setLiveLocked() {
	n := 0
	for _, e := range s.entries {
		if e != nil {
			n++
		}
	}
	s.reg.Gauge("gdrd_sessions_live").Set(int64(n))
}

// newToken returns a 128-bit random session token.
func newToken() (string, error) {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("server: generating session token: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// validToken reports whether an assigned token has the exact shape
// newToken produces (32 lowercase hex characters) — anything else would
// break snapshot file naming and the proxy's hash routing.
func validToken(t string) bool {
	if len(t) != 32 {
		return false
	}
	for i := 0; i < len(t); i++ {
		c := t[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// newETagSalt returns a short random incarnation marker for entry.etagSalt,
// or "" when entropy is unavailable (which merely disables 304s).
func newETagSalt() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return ""
	}
	return hex.EncodeToString(b[:])
}

// Create builds a session owned by nobody — the open-mode path and the
// compatibility entry point for embedders; see CreateAs.
func (s *Store) Create(ctx context.Context, req CreateSessionRequest) (SessionInfo, core.Stats, error) {
	return s.CreateAs(ctx, "", req)
}

// CreateAs builds and registers a session under a fresh token, owned by the
// given tenant tag ("" = unowned), from either an uploaded CSV instance
// plus rule set, or an exported snapshot (restore-on-create). Construction
// holds CPU slots matching the session's fan-out — acquired fairly against
// the owning tenant, so one tenant's create burst cannot freeze everyone's
// feedback — with the upload path running the initial suggestion pass and
// the snapshot path rebuilding the violation engine and retraining
// committees. It fails with ErrTooManySessions when the live cap is
// reached, and honors ctx while waiting for CPU slots — a caller that gives
// up does not leave an orphan session pinning the cap.
func (s *Store) CreateAs(ctx context.Context, tenant string, req CreateSessionRequest) (SessionInfo, core.Stats, error) {
	var build func() (*core.Session, error)
	var workers int
	var meta snapshot.Meta
	name := req.Name
	if len(req.Snapshot) > 0 {
		b, w, n, m, err := s.importBuild(req)
		if err != nil {
			return SessionInfo{}, core.Stats{}, err
		}
		build, workers, meta = b, w, m
		if name == "" {
			name = n
		}
	} else {
		b, w, err := s.uploadBuild(req)
		if err != nil {
			return SessionInfo{}, core.Stats{}, err
		}
		build, workers = b, w
	}

	// Reserve the slot in the cap before the expensive build, so a burst
	// of concurrent creates cannot overshoot it; the reservation is rolled
	// back if the build fails.
	token := req.Token
	if token != "" {
		if !validToken(token) {
			return SessionInfo{}, core.Stats{}, fmt.Errorf("%w: assigned token must be 32 lowercase hex characters", ErrBadUpload)
		}
	} else {
		fresh, err := newToken()
		if err != nil {
			return SessionInfo{}, core.Stats{}, err
		}
		token = fresh
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return SessionInfo{}, core.Stats{}, ErrSessionClosed
	}
	if held, exists := s.entries[token]; exists {
		// Random tokens never collide; a pre-assigned one may — the proxy's
		// migration dedup depends on this conflict being reported, not
		// silently clobbering the live session, and on the live copy's
		// watermark (none while that copy is still being built).
		s.mu.Unlock()
		if held != nil {
			return SessionInfo{}, core.Stats{}, tokenInUseError{seq: held.mutSeq.Load()}
		}
		return SessionInfo{}, core.Stats{}, ErrTokenInUse
	}
	if s.maxLive > 0 && len(s.entries) >= s.maxLive {
		s.mu.Unlock()
		return SessionInfo{}, core.Stats{}, ErrTooManySessions
	}
	s.entries[token] = nil // reservation
	s.mu.Unlock()
	rollback := func() {
		s.mu.Lock()
		delete(s.entries, token)
		s.mu.Unlock()
	}

	// Construction runs with workers-way fan-out, so it must hold that many
	// slots — the same accounting the actors enforce — or concurrent builds
	// would overshoot the CPU budget and starve live sessions' commands.
	// The wait is a root slot span, as an actor command's is.
	slotStart := time.Now()
	if err := s.sched.acquire(ctx, tenant, workers); err != nil {
		rollback()
		return SessionInfo{}, core.Stats{}, errExpiredQueued()
	}
	obs.FromContext(ctx).RecordSince("slot", "", slotStart)
	sess, err := build()
	s.sched.release(tenant, workers)
	if err != nil {
		rollback()
		return SessionInfo{}, core.Stats{}, fmt.Errorf("%w: %v", ErrBadUpload, err)
	}
	if ctx.Err() != nil {
		// The client vanished mid-build: registering the session anyway
		// would pin a cap slot under a token nobody holds, until the TTL.
		rollback()
		return SessionInfo{}, core.Stats{}, ctx.Err()
	}

	e := s.newEntry(sess, token, name, tenant, workers)
	// An imported snapshot carries its mutation watermark and dedup window;
	// the entry is unpublished and its actor quiescent, so these restores
	// race nothing. Without them a migrated session would restart at
	// sequence 0 and the proxy would take its next replica push for stale.
	e.mutSeq.Store(meta.MutSeq)
	e.dedup.restore(meta.Dedup)
	//lint:ignore actorconfine construction-time read: the actor was just created and has processed nothing, so the session is still quiescent
	st := sess.Stats()
	s.mu.Lock()
	if s.closed {
		delete(s.entries, token)
		s.mu.Unlock()
		e.actor.close()
		return SessionInfo{}, core.Stats{}, ErrSessionClosed
	}
	s.entries[token] = e
	s.setLiveLocked()
	s.mu.Unlock()
	s.reg.Counter("gdrd_sessions_created_total").Inc()
	// Make the newborn durable right away: a crash between creation and the
	// first feedback must not lose the upload. (A fresh entry has no
	// durability watermark, so it counts as dirty until this lands; a
	// failure here is retried by the periodic flusher.)
	if err := s.Checkpoint(ctx, e); err != nil {
		s.log.Warn("initial checkpoint failed", "session", token, "err", err)
	}
	return e.info(s.ttl), st, nil
}

// uploadBuild validates a CSV + rules upload and returns the session
// constructor for it, plus the worker fan-out it will hold while building.
func (s *Store) uploadBuild(req CreateSessionRequest) (build func() (*core.Session, error), workers int, err error) {
	if strings.TrimSpace(req.CSV) == "" {
		return nil, 0, fmt.Errorf("%w: empty csv", ErrBadUpload)
	}
	db, err := relation.ReadCSV(strings.NewReader(req.CSV), "upload")
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadUpload, err)
	}
	rules, err := cfd.Parse(strings.NewReader(req.Rules))
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadUpload, err)
	}
	if len(rules) == 0 {
		return nil, 0, fmt.Errorf("%w: empty rule set", ErrBadUpload)
	}
	cfg := s.session
	if req.Seed != 0 {
		cfg.Seed = req.Seed // 0 (or omitted) keeps the server default
	}
	if req.Workers > 0 {
		cfg.Workers = req.Workers
	}
	// Clamp the session's actual fan-out, not just its slot accounting:
	// a session must never run wider than the budget it can hold.
	cfg.Workers = s.sched.clampSlots(cfg.Workers)
	return func() (*core.Session, error) { return core.NewSession(db, rules, cfg) }, cfg.Workers, nil
}

// importBuild validates a snapshot upload (restore-on-create) and returns
// the session constructor for it. The snapshot carries the session's own
// configuration; only Workers may be overridden (clamped to the budget
// either way), because overriding Seed would desynchronize the restored
// session's recorded randomness from its state.
func (s *Store) importBuild(req CreateSessionRequest) (build func() (*core.Session, error), workers int, name string, meta snapshot.Meta, err error) {
	if strings.TrimSpace(req.CSV) != "" || strings.TrimSpace(req.Rules) != "" {
		return nil, 0, "", meta, fmt.Errorf("%w: a snapshot upload cannot also carry csv or rules", ErrBadUpload)
	}
	if req.Seed != 0 {
		return nil, 0, "", meta, fmt.Errorf("%w: seed cannot be overridden when restoring a snapshot", ErrBadUpload)
	}
	name, meta, st, err := snapshot.DecodeStateMeta(req.Snapshot)
	if err != nil {
		return nil, 0, "", meta, fmt.Errorf("%w: %v", ErrBadUpload, err)
	}
	if err := validateImportConfig(st.Config); err != nil {
		return nil, 0, "", meta, err
	}
	if req.Workers > 0 {
		st.Config.Workers = req.Workers
	}
	st.Config.Workers = s.sched.clampSlots(st.Config.Workers)
	return func() (*core.Session, error) { return core.RestoreSession(st) }, st.Config.Workers, name, meta, nil
}

// validateImportConfig bounds the session configuration arriving inside an
// untrusted snapshot. The upload path only ever exposes Seed and Workers —
// everything else is server-chosen — so an imported config far outside
// what this server would create (million-tree committees, unbounded
// depths) is a resource-exhaustion attempt, not a legitimate migration,
// and is rejected rather than silently clamped (clamping would break the
// byte-identical-resume guarantee).
func validateImportConfig(c core.Config) error {
	limits := []struct {
		name string
		v    int
		max  int
	}{
		{"forest committee size", c.Forest.K, 256},
		{"forest depth", c.Forest.MaxDepth, 256},
		{"forest min leaf", c.Forest.MinLeaf, 1 << 20},
		{"forest mtry", c.Forest.Mtry, 1 << 16},
		{"min train", c.MinTrain, 1 << 20},
		{"min verify", c.MinVerify, 1 << 20},
		{"batch size", c.BatchSize, 1 << 20},
		{"workers", c.Workers, 1 << 16},
	}
	for _, l := range limits {
		if l.v > l.max {
			return fmt.Errorf("%w: snapshot %s %d exceeds limit %d", ErrBadUpload, l.name, l.v, l.max)
		}
	}
	if f := c.Forest.SampleFrac; f < 0 || f > 1 {
		return fmt.Errorf("%w: snapshot sample fraction %v outside [0, 1]", ErrBadUpload, f)
	}
	return nil
}

// Get returns the live entry for a token, refreshing its idle clock — with
// no ownership check; see GetFor.
func (s *Store) Get(id string) (*entry, bool) {
	return s.GetFor(id, "")
}

// GetFor returns the live entry for a token if it is visible to the caller
// (the entry is unowned, or owned by the caller's tenant), refreshing its
// idle clock. An invisible entry is indistinguishable from a missing one —
// tokens are secrets, and a 403 would confirm one exists. An entry past
// its TTL is evicted on the spot, whatever the janitor's phase.
func (s *Store) GetFor(id, owner string) (*entry, bool) {
	s.mu.Lock()
	e, ok := s.entries[id]
	if !ok || e == nil { // unknown, or still being built
		s.mu.Unlock()
		return nil, false
	}
	if !e.visibleTo(owner) {
		s.mu.Unlock()
		return nil, false
	}
	now := s.now()
	if e.evictable(now.Add(-s.ttl)) {
		delete(s.entries, id)
		s.setLiveLocked()
		s.mu.Unlock()
		e.actor.close()
		s.removeSnapshot(e)
		s.reg.Counter("gdrd_sessions_evicted_total").Inc()
		return nil, false
	}
	// Touch before releasing s.mu: a janitor tick between unlock and touch
	// would still see the stale idle stamp and evict a session that is
	// actively in use.
	e.touch(now)
	s.mu.Unlock()
	return e, true
}

// Delete removes a session with no ownership check; see DeleteFor.
func (s *Store) Delete(id string) bool {
	return s.DeleteFor(id, "")
}

// DeleteFor removes a session visible to the caller and stops its actor; it
// reports whether such a session was live (an invisible one reads as
// missing, like GetFor).
func (s *Store) DeleteFor(id, owner string) bool {
	s.mu.Lock()
	e, ok := s.entries[id]
	if !ok || e == nil || !e.visibleTo(owner) {
		s.mu.Unlock()
		return false
	}
	delete(s.entries, id)
	s.setLiveLocked()
	s.mu.Unlock()
	e.actor.close()
	s.removeSnapshot(e)
	return true
}

// List snapshots every live session with no ownership filter; see ListFor.
func (s *Store) List() []SessionInfo {
	return s.ListFor("")
}

// ListFor snapshots every live session visible to the caller, ordered by
// creation time then token.
func (s *Store) ListFor(owner string) []SessionInfo {
	s.mu.Lock()
	out := make([]SessionInfo, 0, len(s.entries))
	for _, e := range s.entries {
		if e == nil || !e.visibleTo(owner) {
			continue
		}
		out = append(out, e.info(s.ttl))
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].CreatedAt.Before(out[j].CreatedAt)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Len returns the live-session count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.entries {
		if e != nil {
			n++
		}
	}
	return n
}

// Close stops the janitor and the checkpoint flusher, flushes a final
// checkpoint of every live session that still has undurable state (so a
// graceful drain never loses feedback), then stops every actor, draining
// in-flight commands. New creates and lookups fail afterwards.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	victims := make([]*entry, 0, len(s.entries))
	for id, e := range s.entries {
		delete(s.entries, id)
		if e != nil {
			victims = append(victims, e)
		}
	}
	s.setLiveLocked()
	s.mu.Unlock()
	// Map-order harvest; sort so the final-checkpoint and shutdown sequence
	// is reproducible across runs.
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	close(s.janitorStop)
	s.janitorWG.Wait()
	if s.dir != "" {
		close(s.flushStop)
		s.flushWG.Wait()
		for _, e := range victims {
			// The actor is still live here, so the final encode sees the
			// session's last state; errors are logged, not fatal — the
			// session is going away either way.
			if e.isDirty() {
				if err := s.Checkpoint(context.Background(), e); err != nil {
					s.log.Warn("final checkpoint failed", "session", e.id, "err", err)
				}
			}
		}
	}
	for _, e := range victims {
		e.actor.close()
	}
}

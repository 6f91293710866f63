package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"gdr/internal/core"
	"gdr/internal/faultfs"
	"gdr/internal/obs"
	"gdr/internal/snapshot"
)

// snapSuffix names the per-session snapshot files in the data directory.
const snapSuffix = ".snap"

// ownerSep separates the owning tenant from the token in a snapshot file
// name. Neither side can contain it: tokens are hex and tenant names match
// tenantNameRE, so the encoding is unambiguous.
const ownerSep = "@"

// snapshotPath places a session's snapshot in the data directory. Unowned
// sessions are plain <token>.snap; owned ones carry their tenant as a
// <tenant>@<token>.snap prefix, so ownership survives a restart without
// changing the snapshot byte format.
func (s *Store) snapshotPath(e *entry) string {
	base := e.id + snapSuffix
	if e.tenant != "" {
		base = e.tenant + ownerSep + base
	}
	return filepath.Join(s.dir, base)
}

// Snapshot encodes the session's current state on its actor goroutine and
// returns the bytes plus the mutation sequence they capture (the replica
// watermark); with persistence enabled the same bytes are also written
// through the checkpoint path, so an explicit export doubles as a durable
// checkpoint. The write is best-effort: a failing disk must not block the
// export — taking sessions off a sick node is exactly what the endpoint is
// for — so persist errors are logged and counted, and the periodic flusher
// keeps retrying.
func (s *Store) Snapshot(ctx context.Context, e *entry) ([]byte, uint64, error) {
	// The lease pins the session against TTL eviction for the whole export:
	// the cluster proxy calls this to move a session, and the janitor
	// harvesting the source mid-export would hand the importing node a
	// snapshot of a session that no longer exists anywhere else.
	e.acquireLease(s.now())
	defer func() { e.releaseLease(s.now()) }()
	data, mut, err := s.encode(ctx, e)
	if err != nil {
		return nil, 0, err
	}
	if s.dir != "" {
		t := obs.FromContext(ctx)
		h := t.StartSpan("persist")
		err := s.persist(e, data, mut, t)
		h.End()
		if err != nil {
			s.reg.Counter("gdrd_checkpoint_failures_total").Inc()
			e.ckptFailed(s.now(), s.ckptEvery)
			s.log.Warn("persisting snapshot failed", "session", e.id, "err", err)
		} else {
			e.ckptSucceeded()
		}
	}
	return data, mut, nil
}

// Checkpoint makes the session durable: encode on the actor, write to a
// temp file, fsync, rename. A no-op without a data directory. Concurrent
// checkpoints of one session are safe — snapshots are sequence-stamped in
// session-mutation order and a stale one never overwrites a newer file. A
// failure leaves the entry dirty (the flusher retries with backoff) but
// never corrupts the previous on-disk snapshot.
func (s *Store) Checkpoint(ctx context.Context, e *entry) error {
	if s.dir == "" {
		return nil
	}
	// The whole checkpoint is one "persist" span; the encode rides the actor
	// queue with this span as its parent, so its queue/slot/exec spans nest
	// under persist instead of reading as a second request.
	t := obs.FromContext(ctx)
	h := t.StartSpan("persist")
	defer h.End()
	data, mut, err := s.encode(obs.WithSpanParent(ctx, "persist"), e)
	if err != nil {
		s.reg.Counter("gdrd_checkpoint_failures_total").Inc()
		e.ckptFailed(s.now(), s.ckptEvery)
		return err
	}
	if err := s.persist(e, data, mut, t); err != nil {
		s.reg.Counter("gdrd_checkpoint_failures_total").Inc()
		e.ckptFailed(s.now(), s.ckptEvery)
		return err
	}
	e.ckptSucceeded()
	s.reg.Counter("gdrd_checkpoints_total").Inc()
	return nil
}

// encode runs the snapshot encoder on the session's actor and records
// which mutation sequence the captured state corresponds to. The watermark
// and the dedup window ride inside the snapshot (format v2 meta): both are
// read on the actor, so the encoded triple is always mutually consistent.
func (s *Store) encode(ctx context.Context, e *entry) (data []byte, mut uint64, err error) {
	var encErr error
	doErr := e.actor.do(ctx, "encode", func(sess *core.Session) {
		mut = e.mutSeq.Load()
		meta := snapshot.Meta{MutSeq: mut, Dedup: e.dedup.export()}
		data, encErr = snapshot.EncodeStateMeta(e.name, meta, sess.ExportState())
	})
	if doErr != nil {
		return nil, 0, doErr
	}
	if encErr != nil {
		return nil, 0, encErr
	}
	return data, mut, nil
}

// persist writes one captured snapshot crash-safely, advancing the
// durability watermark to the mutation it covers. A snapshot at or behind
// the watermark is skipped: the file already holds that state (or newer),
// and advancing nothing means mutations the snapshot missed stay dirty for
// the flusher.
func (s *Store) persist(e *entry, data []byte, mut uint64, t *obs.Trace) error {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	if e.hasDurable && mut <= e.durableMut {
		return nil
	}
	if err := writeAtomic(s.snapshotPath(e), data, s.faults, t); err != nil {
		return err
	}
	e.durableMut = mut
	e.hasDurable = true
	return nil
}

// writeAtomic lands data at path via temp-file + fsync + rename, so a crash
// at any moment leaves either the old snapshot or the new one — never a
// torn file. faults (possibly nil) injects write/fsync/rename failures at
// the same decision points a real disk fails at; an injected failure takes
// the same cleanup path, which is how the chaos tests prove a failing disk
// can never corrupt the previous snapshot.
func writeAtomic(path string, data []byte, faults *faultfs.Injector, t *obs.Trace) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	h := t.StartChild("persist", "write")
	if err = faults.Fault(faultfs.Write); err == nil {
		_, err = f.Write(data)
	}
	h.End()
	if err == nil {
		h = t.StartChild("persist", "fsync")
		if err = faults.Fault(faultfs.Sync); err == nil {
			err = f.Sync()
		}
		h.End()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		h = t.StartChild("persist", "rename")
		if err = faults.Fault(faultfs.Rename); err == nil {
			err = os.Rename(tmp, path)
		}
		h.End()
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// removeSnapshot drops a session's durable state; called when the session
// itself is deliberately removed (explicit delete, TTL eviction), so the
// data directory always mirrors the live session set.
func (s *Store) removeSnapshot(e *entry) {
	if s.dir == "" {
		return
	}
	if err := os.Remove(s.snapshotPath(e)); err != nil && !os.IsNotExist(err) {
		s.log.Warn("removing snapshot failed", "session", e.id, "err", err)
	}
}

// restoreDir loads every *.snap file in the data directory and registers
// the sessions under their original tokens and owners (both encoded in the
// file names). It runs during store construction, before any traffic.
// Unreadable or corrupt snapshots are skipped with a log line — one bad
// file must not take the daemon down — and left in place for operator
// inspection.
func (s *Store) restoreDir() {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		s.log.Error("creating data dir failed", "dir", s.dir, "err", err)
		return
	}
	names, err := filepath.Glob(filepath.Join(s.dir, "*"+snapSuffix))
	if err != nil {
		s.log.Error("scanning data dir failed", "dir", s.dir, "err", err)
		return
	}
	restored := 0
	// Construction is single-threaded (no janitor, flusher or traffic yet),
	// but the map mutations take the lock anyway to keep the invariant
	// obvious — setLiveLocked requires it.
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, path := range names {
		base := strings.TrimSuffix(filepath.Base(path), snapSuffix)
		tenant, token, owned := strings.Cut(base, ownerSep)
		if !owned {
			tenant, token = "", base
		}
		if s.maxLive > 0 && len(s.entries) >= s.maxLive {
			s.log.Warn("session cap reached; not restoring", "cap", s.maxLive, "path", path)
			break
		}
		e, err := s.restoreFile(token, tenant, path)
		if err != nil {
			s.log.Warn("skipping snapshot "+path, "err", err)
			continue
		}
		s.entries[token] = e
		restored++
	}
	s.setLiveLocked()
	if restored > 0 || len(names) > 0 {
		s.log.Info("restored sessions", "count", restored, "dir", s.dir)
	}
	s.reg.Counter("gdrd_sessions_restored_total").Add(int64(restored))
}

// restoreFile rebuilds one session from its snapshot file.
func (s *Store) restoreFile(token, tenant, path string) (*entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name, meta, st, err := snapshot.DecodeStateMeta(data)
	if err != nil {
		return nil, err
	}
	// The snapshot may come from a server with a larger worker budget.
	st.Config.Workers = s.sched.clampSlots(st.Config.Workers)
	sess, err := core.RestoreSession(st)
	if err != nil {
		return nil, fmt.Errorf("restoring session: %w", err)
	}
	e := s.newEntry(sess, token, name, tenant, st.Config.Workers)
	// The on-disk state is exactly what we restored: durable at the
	// snapshot's own watermark, which also seeds the live sequence — a
	// restored session must not restart at 0, or its replica pushes would
	// read as stale. The entry is unpublished, so no lock is needed.
	e.mutSeq.Store(meta.MutSeq)
	e.dedup.restore(meta.Dedup)
	//lint:ignore guardedby pre-publication write: no other goroutine can hold a reference to e yet
	e.hasDurable = true
	//lint:ignore guardedby pre-publication write: no other goroutine can hold a reference to e yet
	e.durableMut = meta.MutSeq
	return e, nil
}

// flusher periodically re-checkpoints sessions whose synchronous write
// failed (the dirty flag survives a failed Checkpoint), so a transient
// disk error does not leave a session undurable forever. Repeatedly
// failing sessions back off exponentially (see entry.ckptFailed) instead
// of hammering a sick disk every tick.
func (s *Store) flusher() {
	defer s.flushWG.Done()
	tick := time.NewTicker(s.ckptEvery)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			now := s.now()
			s.mu.Lock()
			dirty := make([]*entry, 0, len(s.entries))
			for _, e := range s.entries {
				if e != nil && e.isDirty() && e.retryDue(now) {
					dirty = append(dirty, e)
				}
			}
			s.mu.Unlock()
			// The dirty set was harvested in map order; checkpoint in id
			// order so the flush sequence is reproducible.
			sort.Slice(dirty, func(i, j int) bool { return dirty[i].id < dirty[j].id })
			for _, e := range dirty {
				if err := s.Checkpoint(context.Background(), e); err != nil {
					s.log.Warn("periodic checkpoint failed", "session", e.id, "err", err)
				}
			}
		case <-s.flushStop:
			return
		}
	}
}

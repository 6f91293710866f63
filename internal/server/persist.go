package server

import (
	"context"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gdr/internal/core"
	"gdr/internal/faultfs"
	"gdr/internal/obs"
	"gdr/internal/snapshot"
)

// snapSuffix names snapshot files: <key>.snap, in either snapshot store.
const snapSuffix = ".snap"

// tmpMark sits between a snapshot file's name and the random suffix of the
// temp file writeAtomic lands it through.
const tmpMark = ".tmp-"

// ownerSep separates the owning tenant from the token in a session key.
// Neither side can contain it: tokens are hex and tenant names match
// tenantNameRE, so the encoding is unambiguous.
const ownerSep = "@"

// SessionKey names a session in both snapshot stores and on the replica
// endpoints: the bare token for an unowned session, <tenant>@<token> for
// an owned one, so ownership survives a restart or a failover without
// changing the snapshot byte format.
func SessionKey(tenant, token string) string {
	if tenant == "" {
		return token
	}
	return tenant + ownerSep + token
}

// splitKey inverts SessionKey.
func splitKey(key string) (tenant, token string) {
	if t, tok, ok := strings.Cut(key, ownerSep); ok {
		return t, tok
	}
	return "", key
}

// validKey reports whether a key has SessionKey's shape: a token NewToken
// could mint, optionally prefixed "<tenant>@" with a well-formed tenant
// name. Anything else could escape the file naming scheme — or, for an
// explicit empty tenant ("@<token>"), alias the bare-token key.
func validKey(key string) bool {
	tenant, token, owned := strings.Cut(key, ownerSep)
	if !owned {
		return validToken(key)
	}
	return validToken(token) && tenantNameRE.MatchString(tenant)
}

// snapDir is the one way a node keeps snapshots on disk, shared by the
// session store (the data directory) and the replica spill store (its
// replicas/ subdirectory): one <key>.snap file per session key, replaced
// whole by writeAtomic. An empty dir keeps nothing on disk.
type snapDir struct {
	dir    string
	faults *faultfs.Injector
	log    *slog.Logger
}

func (d snapDir) path(key string) string { return filepath.Join(d.dir, key+snapSuffix) }

// write lands data as key's snapshot crash-safely, over the previous one.
func (d snapDir) write(key string, data []byte, t *obs.Trace) error {
	return writeAtomic(d.path(key), data, d.faults, t)
}

// remove deletes key's snapshot, if there is one.
func (d snapDir) remove(key string) {
	if err := os.Remove(d.path(key)); err != nil && !os.IsNotExist(err) {
		d.log.Warn("removing snapshot failed", "key", key, "err", err)
	}
}

// scan creates the directory if it is missing and returns the keys of the
// snapshots it holds, in name order. It runs at boot, before any writer,
// so a temp file there is a write a crash cut short, and is deleted. Any
// other file that is not <key>.snap under a well-formed key (a stray
// export, a replica file of an older build) is logged and left in place.
func (d snapDir) scan() ([]string, error) {
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return nil, err
	}
	files, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, f := range files {
		path := filepath.Join(d.dir, f.Name())
		key, isSnap := strings.CutSuffix(f.Name(), snapSuffix)
		switch {
		case f.IsDir():
		case strings.Contains(f.Name(), snapSuffix+tmpMark):
			if err := os.Remove(path); err != nil {
				d.log.Warn("removing temp file failed", "path", path, "err", err)
			}
		case isSnap && validKey(key):
			keys = append(keys, key)
		default:
			d.log.Warn("skipping snapshot "+path, "err", "not named <key>.snap with key [tenant@]token")
		}
	}
	return keys, nil
}

// key names the entry's session in the snapshot stores.
func (e *entry) key() string { return SessionKey(e.tenant, e.id) }

// Snapshot encodes the session's current state in a command holding its
// turn and returns the bytes plus the mutation sequence they capture (the
// replica watermark). With persistence enabled the same bytes also land
// through checkpoint, so an explicit export doubles as a durable
// checkpoint. That write is best-effort: a failing disk must not block the
// export — taking sessions off a sick node is exactly what the endpoint is
// for — so its failure is counted and left to the flusher's retries.
func (s *Store) Snapshot(ctx context.Context, e *entry) ([]byte, uint64, error) {
	// The lease pins the session against TTL eviction for the whole export:
	// the cluster proxy calls this to move a session, and the janitor
	// harvesting the source mid-export would hand the importing node a
	// snapshot of a session that no longer exists anywhere else.
	e.acquireLease(s.now())
	defer func() { e.releaseLease(s.now()) }()
	c := s.encode(ctx, e)
	if c.err == nil && s.dir != "" {
		_ = s.checkpoint(obs.FromContext(ctx), e, &c)
	}
	return c.data, c.mut, c.err
}

// Checkpoint makes the session durable: encode as one session command,
// then write to a temp file, fsync, rename. A no-op without a data
// directory. Concurrent checkpoints of one session are safe — snapshots are
// sequence-stamped in session-mutation order and a stale one never
// overwrites a newer file. A failure leaves the entry dirty (the flusher
// retries with backoff) but never corrupts the previous on-disk snapshot.
func (s *Store) Checkpoint(ctx context.Context, e *entry) error {
	if s.dir == "" {
		return nil
	}
	c := s.encode(ctx, e)
	return s.checkpoint(obs.FromContext(ctx), e, &c)
}

// captured is one snapshot taken in a session command, on its way to the
// session's file: the bytes encoded at watermark mut, or the error
// encoding them failed with.
type captured struct {
	data []byte
	mut  uint64
	err  error
}

// mutation is one session change as mutate records it: the mutation
// sequence the change advanced the session to and, on a durable node, the
// checkpoint that makes it durable. The zero value is no change.
type mutation struct {
	seq  uint64
	ckpt *captured // nil on a memory-only node
}

// mutate is the one step that advances a session's mutation sequence. A
// command that changes session state calls it inside its turn, once the
// change is complete (a feedback round after it stores its dedup entry, a
// random-order poll after it shuffles), and the handler hands the result
// to land once the turn is released. On a durable node it also captures
// the checkpoint, so the snapshot holds the change and its watermark.
func (s *Store) mutate(e *entry, sess *core.Session, t *obs.Trace) mutation {
	m := mutation{seq: e.mutSeq.Add(1)}
	if s.dir != "" {
		c := e.capture(sess, t)
		m.ckpt = &c
	}
	return m
}

// checkpoint is the one path from a captured snapshot to the session's
// file, and writes nothing for a nil capture. It persists the bytes under
// one "persist" span, which times the disk alone (the capture ran in a
// session command before it), counts the outcome and sets the flusher's
// backoff.
func (s *Store) checkpoint(t *obs.Trace, e *entry, c *captured) error {
	if c == nil {
		return nil
	}
	err := c.err
	if err == nil {
		h := t.StartSpan("persist")
		err = s.persist(e, c.data, c.mut, t)
		h.End()
	}
	if err != nil {
		s.reg.Counter("gdrd_checkpoint_failures_total").Inc()
		e.ckptFailed(s.now(), s.ckptEvery)
		return err
	}
	e.ckptSucceeded()
	s.reg.Counter("gdrd_checkpoints_total").Inc()
	return nil
}

// encode captures the session's snapshot as one session command.
func (s *Store) encode(ctx context.Context, e *entry) (c captured) {
	if err := e.actor.do(ctx, "encode", func(sess *core.Session) {
		c = e.capture(sess, obs.FromContext(ctx))
	}); err != nil {
		return captured{err: err}
	}
	return c
}

// capture encodes the session's snapshot under an "encode" span beneath
// the running command's exec. It runs inside a command holding the turn —
// an encode command, or the mutation it makes durable — and reads
// the state, the mutation sequence (the watermark) and the dedup window
// there, so the encoded triple is always mutually consistent (format v2
// meta).
func (e *entry) capture(sess *core.Session, t *obs.Trace) captured {
	h := t.StartChild("exec", "encode")
	defer h.End()
	c := captured{mut: e.mutSeq.Load()}
	meta := snapshot.Meta{MutSeq: c.mut, Dedup: e.dedup.export()}
	c.data, c.err = snapshot.EncodeStateMeta(e.name, meta, sess.ExportState())
	return c
}

// persist writes one captured snapshot crash-safely, advancing the
// durability watermark to the mutation it covers. A snapshot at or behind
// the watermark is skipped: the file already holds that state (or newer),
// and advancing nothing means mutations the snapshot missed stay dirty for
// the flusher. A retired session's snapshot is refused: retire closes the
// turn and then removes the file under ckptMu, so a capture taken before
// the retire either lands before the removal or sees the closed turn here,
// and a deleted session cannot come back at the next boot.
func (s *Store) persist(e *entry, data []byte, mut uint64, t *obs.Trace) error {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	if e.actor.closed() {
		return ErrSessionClosed
	}
	if e.hasDurable && mut <= e.durableMut {
		return nil
	}
	if err := s.write(e.key(), data, t); err != nil {
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
	f, err := os.CreateTemp(dir, filepath.Base(path)+tmpMark+"*")
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

// restoreDir admits every session snapshot in the data directory, in key
// order, under the token and owner its key names: each file is imported
// through admit like an uploaded snapshot, so it meets the same token
// check, cap and config limits. It runs during store construction, before
// any traffic. A file that fails is skipped with a log line — one bad file
// must not take the daemon down — and left in place for operator
// inspection. A token that two files name (<token>.snap beside
// <tenant>@<token>.snap) has no owner this node can trust, so neither file
// is restored. The session cap stops the scan.
func (s *Store) restoreDir() {
	keys, err := s.scan()
	if err != nil {
		s.log.Error("scanning data dir failed", "dir", s.dir, "err", err)
		return
	}
	named := make(map[string]int, len(keys)) // token → snapshot files naming it
	for _, key := range keys {
		_, token := splitKey(key)
		named[token]++
	}
	namedTwice := errors.New("another snapshot names the same token; neither is restored")
	restored := 0
	for _, key := range keys {
		path := s.path(key)
		tenant, token := splitKey(key)
		err := namedTwice
		if named[token] == 1 {
			err = s.restoreFile(path, token, tenant)
		}
		if errors.Is(err, ErrTooManySessions) {
			s.log.Warn("session cap reached; not restoring", "cap", s.maxLive, "path", path)
			break
		}
		if err != nil {
			s.log.Warn("skipping snapshot "+path, "err", err)
			continue
		}
		restored++
	}
	if len(keys) > 0 {
		s.log.Info("restored sessions", "count", restored, "dir", s.dir)
	}
	s.reg.Counter("gdrd_sessions_restored_total").Add(int64(restored))
}

// restoreFile admits one session from its snapshot file and marks it
// durable at the watermark the file holds, which admit also seeded the
// live sequence from: the file is the session's checkpoint, so it is not
// rewritten, and a restored session does not restart at 0, where its
// replica pushes would read as stale.
func (s *Store) restoreFile(path, token, tenant string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	r, err := s.importBuild(CreateSessionRequest{Snapshot: data})
	if err != nil {
		return err
	}
	e, _, err := s.admit(context.Background(), token, tenant, r)
	if err != nil {
		return err
	}
	e.markDurable(r.meta.MutSeq)
	return nil
}

// flushDue is the flusher's tick. It re-checkpoints the sessions whose
// synchronous write failed (the dirty flag survives a failed Checkpoint),
// so a transient disk error does not leave a session undurable forever.
// Repeatedly failing sessions back off exponentially (see
// entry.ckptFailed) instead of hammering a sick disk every tick.
func (s *Store) flushDue() {
	now := s.now()
	s.mu.Lock()
	due := make([]*entry, 0, len(s.entries))
	for _, e := range s.entries {
		if e.isDirty() && e.retryDue(now) {
			due = append(due, e)
		}
	}
	s.mu.Unlock()
	// The dirty set was harvested in map order; checkpoint in token order
	// so the flush sequence is reproducible.
	sort.Slice(due, func(i, j int) bool { return due[i].id < due[j].id })
	s.flush(due, "periodic checkpoint failed")
}

// flush checkpoints, in the order given, each session that still has
// undurable state, logging a failure as msg. The flusher and the drain
// share it; each sorts what it passes.
func (s *Store) flush(es []*entry, msg string) {
	for _, e := range es {
		if !e.isDirty() {
			continue
		}
		if err := s.Checkpoint(context.Background(), e); err != nil {
			s.log.Warn(msg, "session", e.id, "err", err)
		}
	}
}

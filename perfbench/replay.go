package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"gdr/internal/cfd"
	"gdr/internal/core"
	"gdr/internal/relation"
	"gdr/internal/repair"
	"gdr/internal/server"
	"gdr/internal/snapshot"
)

// replayResult is what replaying one session produced: its export and the
// layer counts that spans cannot carry.
type replayResult struct {
	export       []byte
	answers      int
	ranked       int // groups returned by all VOI ranks
	ranks        int
	snapBytes    int // encoded snapshot bytes over all rounds
	snapshots    int
	retrains     int
	retrainedExs int // training examples of the retrained models, summed
}

// replay rebuilds t's session in-process from the uploaded CSV with the
// config the server used, re-asks every recorded question and applies the
// recorded answers, timing the public calls of each layer on the way. It
// fails when a question, an update list or the post-round stats differ
// from what the server served. snapshots also encodes the session after
// every round, as the server does when it checkpoints or replicates, and
// finally decodes and restores it, as a restart or a replica promotion
// does; with ckptDir set each snapshot also lands there the way a
// checkpoint does.
func replay(t *tenant, noLearn, snapshots bool, ckptDir string, rec *recorder) (replayResult, error) {
	var res replayResult
	sp := rec.begin("relation.read_csv", 0, -1)
	db, err := relation.ReadCSV(strings.NewReader(t.csv), "upload")
	rec.end(sp)
	if err != nil {
		return res, err
	}
	rules, err := cfd.Parse(strings.NewReader(t.rules))
	if err != nil {
		return res, err
	}
	if rec != nil {
		// NewSession builds its engine internally; time one more on a copy
		// to see the violation engine's share of session creation.
		sp = rec.begin("cfd.new_engine", 0, -1)
		_, err := cfd.NewEngine(db.Clone(), rules)
		rec.end(sp)
		if err != nil {
			return res, err
		}
	}
	sp = rec.begin("core.new_session", 0, -1)
	sess, err := core.NewSession(db, rules, core.Config{Seed: t.seed, Workers: 1})
	rec.end(sp)
	if err != nil {
		return res, err
	}

	var round int64
	parent := -1
	if rec != nil {
		sess.SetPhaseHook(func(ph string) func() {
			var stale []string
			if ph == core.PhaseRetrain {
				stale = staleModels(sess)
			}
			id := rec.begin(phaseSpan[ph], round, parent)
			return func() {
				rec.end(id)
				if ph == core.PhaseRetrain {
					res.retrains++
					for _, attr := range stale {
						if m := sess.ModelFor(attr); !m.NeedsRetrain() {
							res.retrainedExs += m.Len()
						}
					}
				}
			}
		})
	}

	for i, rl := range t.rounds {
		round = rl.id
		root := rec.begin("replay.round", round, -1)
		parent = rec.begin("core.groups", round, root)
		gs := sess.Groups(core.OrderVOI, nil)
		rec.end(parent)
		res.ranks++
		res.ranked += len(gs)
		if len(gs) == 0 {
			return res, fmt.Errorf("round %d: replay has no groups, server asked %s", i, rl.key)
		}
		if key := server.GroupKeyToken(gs[0].Key); key != rl.key {
			return res, fmt.Errorf("round %d: replay asks %s, server asked %s", i, key, rl.key)
		}
		ups := sess.GroupUpdates(gs[0].Key)
		if err := sameUpdates(sess, ups, rl.updates); err != nil {
			return res, fmt.Errorf("round %d: %w", i, err)
		}

		fb := rec.begin("core.feedback", round, root)
		for _, it := range rl.items {
			cur, live := sess.Pending(repair.CellKey{Tid: it.Tid, Attr: it.Attr})
			if !live || cur.Value != it.Value {
				return res, fmt.Errorf("round %d: item %d/%s is not live in the replay", i, it.Tid, it.Attr)
			}
			verdict := verdicts[it.Feedback]
			parent = rec.begin("core.answer", round, fb)
			if noLearn {
				sess.ApplyFeedback(cur, verdict)
			} else {
				sess.UserFeedback(cur, verdict)
			}
			rec.end(parent)
			res.answers++
		}
		st := sess.Stats()
		rec.end(fb)
		if st.Applied != rl.stats.Applied || st.Pending != rl.stats.Pending || st.Dirty != rl.stats.Dirty {
			return res, fmt.Errorf("round %d: replay stats %+v, server served %+v", i, st, rl.stats)
		}
		if snapshots {
			sp := rec.begin("snapshot.encode", round, root)
			data, err := snapshot.EncodeStateMeta("", snapshot.Meta{MutSeq: uint64(i + 1)}, sess.ExportState())
			rec.end(sp)
			if err != nil {
				return res, err
			}
			res.snapBytes += len(data)
			res.snapshots++
			if ckptDir != "" {
				path := filepath.Join(ckptDir, fmt.Sprintf("%d.snap", t.idx))
				if err := checkpointFile(rec, round, root, path, data); err != nil {
					return res, err
				}
			}
		}
		rec.end(root)
	}
	if t.clean {
		if gs := sess.Groups(core.OrderVOI, nil); len(gs) != 0 {
			return res, fmt.Errorf("server reported the session clean, replay still has %d groups", len(gs))
		}
	}
	var buf bytes.Buffer
	if err := sess.DB().WriteCSV(&buf); err != nil {
		return res, err
	}
	res.export = buf.Bytes()
	if snapshots {
		data, err := snapshot.EncodeStateMeta("", snapshot.Meta{}, sess.ExportState())
		if err != nil {
			return res, err
		}
		sp := rec.begin("snapshot.decode", 0, -1)
		_, _, st, err := snapshot.DecodeStateMeta(data)
		rec.end(sp)
		if err != nil {
			return res, err
		}
		sp = rec.begin("core.restore_session", 0, -1)
		_, err = core.RestoreSession(st)
		rec.end(sp)
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// checkpointFile lands data at path as a crash-safe checkpoint does — a
// temp file in the same directory, write, fsync, close, rename over the
// previous snapshot — with a span around each step.
func checkpointFile(rec *recorder, round int64, parent int, path string, data []byte) error {
	all := rec.begin("fs.checkpoint", round, parent)
	defer rec.end(all)
	sp := rec.begin("fs.create", round, all)
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	rec.end(sp)
	if err != nil {
		return err
	}
	tmp := f.Name()
	sp = rec.begin("fs.write", round, all)
	_, err = f.Write(data)
	rec.end(sp)
	if err == nil {
		sp = rec.begin("fs.fsync", round, all)
		err = f.Sync()
		rec.end(sp)
	}
	sp = rec.begin("fs.close", round, all)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	rec.end(sp)
	if err == nil {
		sp = rec.begin("fs.rename", round, all)
		err = os.Rename(tmp, path)
		rec.end(sp)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// verdicts maps the wire feedback verbs to the core's.
var verdicts = map[string]repair.Feedback{"confirm": repair.Confirm, "reject": repair.Reject, "retain": repair.Retain}

// phaseSpan names the layer behind each engine phase.
var phaseSpan = map[string]string{
	core.PhaseSuggest: "repair.suggest",
	core.PhaseRerank:  "voi.rerank",
	core.PhaseRetrain: "learn.retrain",
}

// staleModels lists the attributes whose committees will retrain on their
// next prediction. Only attributes that already have a model are looked
// at, so the scan creates nothing.
func staleModels(sess *core.Session) []string {
	var out []string
	for _, st := range sess.ModelStats() {
		if sess.ModelFor(st.Attr).NeedsRetrain() {
			out = append(out, st.Attr)
		}
	}
	return out
}

// sameUpdates checks the replay's update list against the served one.
func sameUpdates(sess *core.Session, got []repair.Update, served []server.UpdateBody) error {
	if len(got) != len(served) {
		return fmt.Errorf("replay lists %d updates, server served %d", len(got), len(served))
	}
	for j, u := range got {
		s := served[j]
		if u.Tid != s.Tid || u.Attr != s.Attr || u.Value != s.Value || sess.DB().Get(u.Tid, u.Attr) != s.Current {
			return fmt.Errorf("update %d: replay %d/%s=%q, server %d/%s=%q", j, u.Tid, u.Attr, u.Value, s.Tid, s.Attr, s.Value)
		}
	}
	return nil
}

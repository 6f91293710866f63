package core

import (
	"fmt"
	"sort"

	"gdr/internal/cfd"
	"gdr/internal/group"
	"gdr/internal/learn"
	"gdr/internal/relation"
	"gdr/internal/repair"
	"gdr/internal/voi"
)

// SessionState is the complete serializable state of a Session: everything
// needed to rebuild one that behaves byte-identically from the snapshot
// point on. It stores the dictionary-encoded instance (dictionaries id-for-
// id plus VID rows — never re-parsed CSV, so interned-but-unused values such
// as rejected candidates keep their ids), the rules, the feedback
// bookkeeping, the learner state and the deterministic-randomness cursors.
//
// Deliberately absent: the violation engine's indexes, the co-occurrence
// indexes, the similarity memo and the prediction cache — all are pure
// functions of the instance and are rebuilt (eagerly or lazily) by
// RestoreSession. The VOI rule weights are NOT such a cache:
// the paper fixes wi = |D(φi)|/|D| on the instance at session start, and
// the instance has mutated since, so they are carried explicitly.
type SessionState struct {
	// Config is the session's effective configuration (defaults applied).
	Config Config

	// Relation and Attrs describe the schema; Dicts holds each attribute's
	// interned values in id order; Rows the VID-encoded tuples; Weights the
	// per-tuple business-importance weights.
	Relation string
	Attrs    []string
	Dicts    [][]string
	Rows     [][]relation.VID
	Weights  []float64

	// Rules is the rule set in engine index order.
	Rules []*cfd.CFD
	// RuleWeights are the VOI weights wi, frozen at original session start.
	RuleWeights []float64

	// Possible is the live PossibleUpdates list, sorted by (tid, attr).
	Possible []repair.Update
	// Locked and Prevented are the consistency manager's per-cell
	// bookkeeping (Changeable flags and prevented lists).
	Locked    []repair.LockedCell
	Prevented []repair.PreventedCell

	// InitialDirty is E, the dirty-tuple count at original session start;
	// Applied and ForcedFixes are the repair activity counters.
	InitialDirty int
	Applied      int
	ForcedFixes  int

	// Shuffles is the count of Groups(OrderRandom, nil) fallback shuffles
	// consumed so far; each shuffle's RNG is derived from (Config.Seed,
	// index), so the counter is the whole randomness state.
	Shuffles uint64

	// Models holds one entry per attribute learner, sorted by attribute;
	// Hits the sliding prequential-accuracy windows, sorted by attribute.
	Models []AttrModelState
	Hits   []AttrHitWindow
}

// AttrModelState pairs an attribute with its learner's state.
type AttrModelState struct {
	Attr  string
	State learn.ModelState
}

// AttrHitWindow pairs an attribute with its recent prediction-hit window.
type AttrHitWindow struct {
	Attr   string
	Window []bool
}

// ExportState snapshots the session. The returned state shares no mutable
// storage with the session (rows, windows and bookkeeping are copied), so
// it remains stable while the session keeps repairing. Snapshots keep the
// prequential windows as outcomes, so ExportState scores every check still
// pending in them (at most accuracyWindow forests per attribute, and each
// only once; see ModelAccuracy): checkpoints, snapshot exports, replica
// pushes and migrations pay for the checks UserFeedback deferred. Scoring
// memoizes into the session, so ExportState must be called from the
// goroutine that owns the session, like every other method.
func (s *Session) ExportState() *SessionState {
	st := &SessionState{
		Config:       s.cfg,
		Relation:     s.db.Schema.Relation,
		Attrs:        append([]string(nil), s.db.Schema.Attrs...),
		Dicts:        make([][]string, s.db.Schema.Arity()),
		Rows:         make([][]relation.VID, s.db.N()),
		Weights:      make([]float64, s.db.N()),
		Rules:        append([]*cfd.CFD(nil), s.eng.Rules()...),
		RuleWeights:  make([]float64, len(s.eng.Rules())),
		Possible:     s.PendingUpdates(),
		InitialDirty: s.initialDirty,
		Applied:      s.Applied,
		ForcedFixes:  s.ForcedFixes,
		Shuffles:     s.shuffles,
	}
	for ai := 0; ai < s.db.Schema.Arity(); ai++ {
		st.Dicts[ai] = s.db.Dict(ai).Vals()
	}
	// Every row is carved from one backing array.
	cells := make([]relation.VID, 0, s.db.N()*s.db.Schema.Arity())
	for tid := 0; tid < s.db.N(); tid++ {
		at := len(cells)
		cells = append(cells, s.db.Row(tid)...)
		st.Rows[tid] = cells[at:len(cells):len(cells)]
		st.Weights[tid] = s.db.Weight(tid)
	}
	for ri := range st.RuleWeights {
		st.RuleWeights[ri] = s.ranker.Weight(ri)
	}
	st.Locked, st.Prevented = s.gen.CellState()
	attrs := make([]string, 0, len(s.models))
	for attr := range s.models {
		attrs = append(attrs, attr)
	}
	sort.Strings(attrs)
	for _, attr := range attrs {
		st.Models = append(st.Models, AttrModelState{Attr: attr, State: s.models[attr].State()})
	}
	attrs = attrs[:0]
	for attr := range s.hits {
		attrs = append(attrs, attr)
	}
	sort.Strings(attrs)
	for _, attr := range attrs {
		m, w := s.models[attr], s.hits[attr]
		hw := AttrHitWindow{Attr: attr, Window: make([]bool, len(w))}
		for i := range w {
			hw.Window[i] = m.Score(&w[i])
		}
		st.Hits = append(st.Hits, hw)
	}
	return st
}

// RestoreSession rebuilds a session from a snapshot. The restored session
// produces byte-identical suggestions, rankings, learner decisions and
// exports from the snapshot point on: the instance is rebuilt id-for-id,
// the violation engine and every cache are re-derived from it, trained
// committees regrow from their recorded seeds, and the fallback shuffle
// stream is replayed to its recorded position. All cross-references (cell
// ids, VIDs, rule-weight count and range, update scores, model attributes)
// are validated so a corrupt or hand-edited snapshot fails with an error,
// never a panic.
func RestoreSession(st *SessionState) (*Session, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil session state")
	}
	if st.Relation == "" && len(st.Attrs) == 0 {
		return nil, fmt.Errorf("core: empty session state")
	}
	cfg := st.Config.withDefaults()
	schema, err := relation.NewSchema(st.Relation, st.Attrs)
	if err != nil {
		return nil, err
	}
	if len(st.Dicts) != schema.Arity() {
		return nil, fmt.Errorf("core: %d dictionaries for arity %d", len(st.Dicts), schema.Arity())
	}
	dicts := make([]*relation.Dict, schema.Arity())
	for ai := range dicts {
		if dicts[ai], err = relation.RestoreDict(st.Dicts[ai]); err != nil {
			return nil, err
		}
	}
	db, err := relation.RestoreDB(schema, dicts, st.Rows, st.Weights)
	if err != nil {
		return nil, err
	}
	for i, r := range st.Rules {
		if r == nil {
			return nil, fmt.Errorf("core: nil rule at index %d", i)
		}
	}
	eng, err := cfd.NewEngine(db, st.Rules)
	if err != nil {
		return nil, err
	}
	if len(st.RuleWeights) != len(st.Rules) {
		return nil, fmt.Errorf("core: %d rule weights for %d rules", len(st.RuleWeights), len(st.Rules))
	}
	for ri, w := range st.RuleWeights {
		// wi = |D(φi)|/|D| always lies in [0, 1]. A NaN or infinite weight
		// would turn benefits into NaN, breaking the ranking's total order.
		if !(w >= 0 && w <= 1) {
			return nil, fmt.Errorf("core: rule %d weight %v outside [0, 1]", ri, w)
		}
	}
	gen := repair.NewGenerator(eng, repair.WithWorkers(cfg.Workers))
	if err := gen.RestoreCellState(st.Locked, st.Prevented); err != nil {
		return nil, err
	}
	if st.InitialDirty < 0 || st.Applied < 0 || st.ForcedFixes < 0 {
		return nil, fmt.Errorf("core: negative session counters")
	}
	s := &Session{
		cfg:          cfg,
		db:           db,
		eng:          eng,
		gen:          gen,
		ranker:       voi.NewRanker(eng, voi.WithWeights(st.RuleWeights)),
		index:        group.NewIndex(),
		attrSigs:     make([]attrSig, db.Schema.Arity()),
		staleBuf:     make([]bool, db.Schema.Arity()),
		models:       make(map[string]*learn.Model, len(st.Models)),
		hits:         make(map[string][]learn.Check, len(st.Hits)),
		memo:         make(map[int]predVal),
		tupleVer:     make([]uint32, db.N()),
		initialDirty: st.InitialDirty,
		Applied:      st.Applied,
		ForcedFixes:  st.ForcedFixes,
	}
	for _, u := range st.Possible {
		if u.Tid < 0 || u.Tid >= db.N() {
			return nil, fmt.Errorf("core: pending update for tuple %d outside instance of %d", u.Tid, db.N())
		}
		if _, ok := schema.Index(u.Attr); !ok {
			return nil, fmt.Errorf("core: pending update for unknown attribute %q", u.Attr)
		}
		// sj lies in [0, 1], and until a committee is ready it is p̃j
		// itself (Session.Prob). A NaN or infinite score would turn a
		// benefit into NaN or ±Inf, breaking the ranking's total order.
		if !(u.Score >= 0 && u.Score <= 1) {
			return nil, fmt.Errorf("core: pending update for tuple %d attribute %q: score %v outside [0, 1]",
				u.Tid, u.Attr, u.Score)
		}
		s.index.Set(u)
	}
	for _, ms := range st.Models {
		if _, ok := schema.Index(ms.Attr); !ok {
			return nil, fmt.Errorf("core: model for unknown attribute %q", ms.Attr)
		}
		if _, dup := s.models[ms.Attr]; dup {
			return nil, fmt.Errorf("core: duplicate model for attribute %q", ms.Attr)
		}
		mst := ms.State
		// The feature vector of Session.Features is the tuple's values plus
		// the suggested value; an example with any other arity would make
		// Forest.Predict panic at the first post-restore prediction.
		if len(mst.Examples) > 0 && len(mst.Examples[0].Cats) != schema.Arity()+1 {
			return nil, fmt.Errorf("core: model %q: example arity %d, want %d",
				ms.Attr, len(mst.Examples[0].Cats), schema.Arity()+1)
		}
		if cfg.Forest.Workers == 0 {
			// Mirror Session.model: a model whose fan-out was derived from
			// the session's Workers follows the restored session's setting
			// (worker count never changes the trained forest).
			mst.Cfg.Workers = cfg.Workers
		}
		m, err := learn.RestoreModel(mst)
		if err != nil {
			return nil, fmt.Errorf("core: model %q: %w", ms.Attr, err)
		}
		s.models[ms.Attr] = m
	}
	for _, hw := range st.Hits {
		// A window's checks judge its model's committees, so it needs one.
		if _, ok := s.models[hw.Attr]; !ok {
			return nil, fmt.Errorf("core: hit window for attribute %q, which has no model", hw.Attr)
		}
		if _, dup := s.hits[hw.Attr]; dup {
			return nil, fmt.Errorf("core: duplicate hit window for attribute %q", hw.Attr)
		}
		if len(hw.Window) > accuracyWindow {
			return nil, fmt.Errorf("core: hit window for attribute %q holds %d checks, more than %d",
				hw.Attr, len(hw.Window), accuracyWindow)
		}
		w := make([]learn.Check, len(hw.Window))
		for i, hit := range hw.Window {
			w[i] = learn.ScoredCheck(hit)
		}
		s.hits[hw.Attr] = w
	}
	s.shuffles = st.Shuffles
	return s, nil
}

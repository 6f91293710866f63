// Package core implements the GDR framework itself (Figure 2 of the paper):
// the repair session that wires the violation engine, update generation,
// grouping, VOI ranking, per-attribute learners and the consistency manager
// into the interactive loop of Procedure 1, plus runners for every strategy
// evaluated in Section 5 (GDR, GDR-S-Learning, Active-Learning,
// GDR-NoLearning, Greedy, Random and the automatic BatchRepair heuristic).
package core

import (
	"fmt"
	"math/rand"
	"sort"

	"gdr/internal/cfd"
	"gdr/internal/group"
	"gdr/internal/learn"
	"gdr/internal/relation"
	"gdr/internal/repair"
	"gdr/internal/strsim"
	"gdr/internal/voi"
)

// Config tunes a repair session. The zero value selects the paper's
// defaults.
type Config struct {
	// Forest configures the per-attribute random forests (k = 10 by default).
	Forest learn.Config
	// MinTrain is the number of labeled examples a model needs before it
	// predicts. Default 3.
	MinTrain int
	// MinVerify clamps the per-group feedback quota di from below: the
	// paper's formula di = E·(1 − g/gmax) yields 0 for the top group, which
	// would starve the learner of training data. Default 20 (the committee
	// needs a couple of batches of labels per attribute before its confirm
	// predictions become trustworthy).
	MinVerify int
	// BatchSize is ns: how many updates the user labels per interactive
	// round before the learner is retrained and the group reordered.
	// Default 10.
	BatchSize int
	// MinDelegate is the committee vote share a prediction needs before the
	// learner may decide an update without the user. Default 0.55.
	MinDelegate float64
	// MinAccuracy models the paper's "until the user is satisfied with the
	// learner predictions": during interactive sessions the user sees the
	// model's prediction next to their own answer, and only delegates once
	// the model's recent (prequential) accuracy reaches this level. The
	// assessed items are uncertainty-sampled — the hardest cases, where
	// 3-class chance level is 1/3 — so the default is 0.4: demonstrably
	// better than guessing on the examples the committee itself flags as
	// difficult.
	MinAccuracy float64
	// Seed drives every random choice in the session.
	Seed int64
	// Workers bounds the goroutines used for the session's CPU-heavy
	// batches: VOI group scoring, repair-candidate generation and committee
	// training (unless Forest.Workers overrides it). 0 and 1 select the
	// serial paths. Results are byte-identical at any setting — same seed,
	// same figures, regardless of worker count.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.MinTrain <= 0 {
		c.MinTrain = 3
	}
	if c.MinVerify <= 0 {
		c.MinVerify = 20
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 10
	}
	if c.MinDelegate <= 0 || c.MinDelegate > 1 {
		c.MinDelegate = 0.55
	}
	if c.MinAccuracy <= 0 || c.MinAccuracy > 1 {
		c.MinAccuracy = 0.4
	}
	if c.Workers < 1 {
		c.Workers = 1
	}
	return c
}

// accuracyWindow is the number of recent user-checked predictions the
// prequential accuracy is computed over, and minAssessed the minimum number
// required before a model may be trusted at all.
const (
	accuracyWindow = 25
	minAssessed    = 10
)

// Order selects how groups are ranked before the user picks one.
type Order int

const (
	// OrderVOI ranks groups by the Eq. 6 estimated benefit (GDR).
	OrderVOI Order = iota
	// OrderGreedy ranks groups by size (the Greedy baseline).
	OrderGreedy
	// OrderRandom shuffles groups (the Random baseline).
	OrderRandom
)

// Session is one guided-repair session over a database instance.
type Session struct {
	cfg    Config
	db     *relation.DB
	eng    *cfd.Engine
	gen    *repair.Generator
	ranker *voi.Ranker

	// index owns the PossibleUpdates list — at most one pending suggestion
	// per cell (newer suggestions replace older ones for the same cell) —
	// partitioned by (attr, value) and kept incrementally: the consistency
	// manager feeds it one Set/Delete per suggestion delta, and ranking
	// re-scores only groups invalidated since the last call (see
	// staleAttrs). It is derived state: snapshots persist the flat update
	// list and restore rebuilds the index from it.
	index *group.Index

	// attrSigs records, per attribute position, the scoring inputs the last
	// VOI rank observed: the version counters of every rule involving the
	// attribute and the attribute committee's generation. A mismatch means
	// every group on that attribute must be re-scored even if its membership
	// is unchanged. staleBuf is the per-rank scratch verdict, reused so the
	// steady-state poll allocates nothing here.
	attrSigs []attrSig
	staleBuf []bool

	// models holds one learner per attribute (M_Ai of Section 4.2).
	models map[string]*learn.Model

	// hits holds, per attribute, the prequential checks of the model's
	// recent predictions against the user's answers: a sliding window of
	// at most accuracyWindow entries, appended by UserFeedback. Entries may
	// be pending; the readers (ModelAccuracy, ExportState) score them on
	// demand and memoize the outcome in place.
	hits map[string][]learn.Check

	// memo holds the committee prediction for each cell's pending
	// suggestion, keyed by cell position (tid·arity + attribute index). An
	// entry serves only the value, committee generation and tuple version
	// it was computed at, so it survives the many pool re-rankings of
	// active learning and VOI scoring. It retires with its suggestion:
	// every path that drops a cell from the group index drops the cell's
	// entry (forget), so the memo never outgrows the instance's cells.
	// memoPeak is the memo's largest size since it was last rebuilt.
	memo     map[int]predVal
	memoPeak int
	tupleVer []uint32
	// cats is Predict's feature scratch, reused across calls.
	cats []string

	// shuffles counts the Groups(OrderRandom, nil) fallback shuffles so
	// far. Each shuffle draws from a fresh RNG derived from (Config.Seed,
	// shuffles) — deterministic per session, and the counter is the entire
	// serializable randomness state (math/rand sources are not otherwise
	// serializable, and recording a whole stream would grow without bound).
	shuffles uint64

	initialDirty int

	// phaseHook, when set (see SetPhaseHook), observes the expensive engine
	// phases. It is injected, unserialized observer state: the deterministic
	// core never reads clocks itself, so stage timing lives in the closure
	// the serving tier supplies.
	phaseHook PhaseHook

	// Applied counts cell changes written to the database (user confirms,
	// learner confirms and forced constant-rule fixes).
	Applied int
	// ForcedFixes counts automatic constant-rule repairs (step 3(a)i of the
	// consistency manager).
	ForcedFixes int
}

// NewSession builds a session over db (which it mutates as repairs are
// applied) and generates the initial PossibleUpdates list. A nil database
// or a nil rule entry is reported as an error, not a panic; an empty
// instance or an empty rule set yields a valid session with no suggestions.
func NewSession(db *relation.DB, rules []*cfd.CFD, cfg Config) (*Session, error) {
	if db == nil {
		return nil, fmt.Errorf("core: nil database")
	}
	for i, r := range rules {
		if r == nil {
			return nil, fmt.Errorf("core: nil rule at index %d", i)
		}
	}
	cfg = cfg.withDefaults()
	eng, err := cfd.NewEngine(db, rules)
	if err != nil {
		return nil, err
	}
	gen := repair.NewGenerator(eng, repair.WithWorkers(cfg.Workers))
	s := &Session{
		cfg:          cfg,
		db:           db,
		eng:          eng,
		gen:          gen,
		ranker:       voi.NewRanker(eng),
		index:        group.NewIndex(),
		attrSigs:     make([]attrSig, db.Schema.Arity()),
		staleBuf:     make([]bool, db.Schema.Arity()),
		models:       make(map[string]*learn.Model),
		hits:         make(map[string][]learn.Check),
		memo:         make(map[int]predVal),
		tupleVer:     make([]uint32, db.N()),
		initialDirty: eng.DirtyCount(),
	}
	for _, u := range gen.SuggestAll() {
		s.index.Set(u)
	}
	return s, nil
}

// PhaseHook observes named engine phases (PhaseSuggest, PhaseRerank,
// PhaseRetrain). It is called when a phase begins and returns the function
// to call when it ends (nil to skip this occurrence). Hooks must not mutate
// session state — they exist so the serving tier can attribute latency
// without the deterministic core reading clocks.
type PhaseHook func(phase string) (done func())

// Engine phase names passed to a PhaseHook.
const (
	// PhaseSuggest is one SuggestBatch regeneration of pending updates for
	// tuples the consistency manager revisited.
	PhaseSuggest = "suggest"
	// PhaseRerank is the incremental VOI re-rank behind Groups(OrderVOI).
	PhaseRerank = "rerank"
	// PhaseRetrain is one lazy committee retrain inside Predict.
	PhaseRetrain = "retrain"
)

// SetPhaseHook installs the phase observer (nil disables). The hook is not
// part of the session's serialized state; a restored session starts with
// none.
func (s *Session) SetPhaseHook(h PhaseHook) { s.phaseHook = h }

// phase begins a named phase, returning the end function (nil when no hook
// is installed or the hook declines).
func (s *Session) phase(name string) func() {
	if s.phaseHook == nil {
		return nil
	}
	return s.phaseHook(name)
}

// DB returns the instance under repair.
func (s *Session) DB() *relation.DB { return s.db }

// Engine returns the violation engine.
func (s *Session) Engine() *cfd.Engine { return s.eng }

// Generator returns the update generator.
func (s *Session) Generator() *repair.Generator { return s.gen }

// Ranker returns the VOI ranker.
func (s *Session) Ranker() *voi.Ranker { return s.ranker }

// InitialDirtyCount returns E, the number of dirty tuples at session start.
func (s *Session) InitialDirtyCount() int { return s.initialDirty }

// PendingCount returns the number of suggested updates awaiting a decision.
func (s *Session) PendingCount() int { return s.index.Len() }

// Pending returns the live suggestion for a cell, if any.
func (s *Session) Pending(c repair.CellKey) (repair.Update, bool) {
	return s.index.Get(c)
}

// PendingUpdates returns all live suggestions in deterministic order.
func (s *Session) PendingUpdates() []repair.Update {
	out := s.index.AppendAll(make([]repair.Update, 0, s.index.Len()))
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tid != out[j].Tid {
			return out[i].Tid < out[j].Tid
		}
		return out[i].Attr < out[j].Attr
	})
	return out
}

// GroupUpdates returns the live suggestions belonging to a group key, in
// ascending tuple order — an O(group) index lookup, not a pending scan. The
// slice is the caller's to reorder.
func (s *Session) GroupUpdates(k group.Key) []repair.Update {
	return s.index.Updates(k)
}

// RankingVersion returns the group index's monotone ranking version: it
// advances whenever the pending partition mutates or a re-rank changes a
// cached benefit, so equal versions imply an identical VOI (and size)
// ordering. The serving tier uses it as the /groups ETag.
func (s *Session) RankingVersion() uint64 { return s.index.Version() }

// Groups ranks the pending update groups: by VOI benefit (step 4 of
// Procedure 1), by size, or randomly. rng is only used for OrderRandom;
// passing rng == nil there is explicit, supported behavior — the session
// falls back to its own generator seeded from Config.Seed, so the shuffle
// is deterministic per session rather than silently skipped.
//
// The VOI ranking is incremental: the session's group index keeps the
// partition and the sorted order across calls, and only groups invalidated
// since the last call — membership deltas from feedback and cascades, rule
// version moves, committee retrains — are re-scored and re-inserted. The
// result is byte-identical to a from-scratch Partition+Rank at any worker
// count; a steady-state poll costs O(changed). The returned VOI groups are
// cached snapshots that own their memory: reordering one's Updates in place
// cannot corrupt the index, but later calls may return the same snapshot,
// so callers wanting a private ordering should use GroupUpdates (always a
// fresh copy).
func (s *Session) Groups(order Order, rng *rand.Rand) []*group.Group {
	switch order {
	case OrderVOI:
		done := s.phase(PhaseRerank)
		s.refreshStaleAttrs()
		gs, _ := s.index.Rank(s.staleKey, s.scoreGroups)
		s.recordAttrSigs()
		if done != nil {
			done()
		}
		return gs
	case OrderGreedy:
		gs := s.index.Partition()
		group.SortBySize(gs)
		return gs
	default: // OrderRandom
		gs := s.index.Partition()
		if rng == nil {
			rng = rand.New(rand.NewSource(s.cfg.Seed + int64(s.shuffles*0x9E3779B97F4A7C15)))
			s.shuffles++
		}
		rng.Shuffle(len(gs), func(i, j int) { gs[i], gs[j] = gs[j], gs[i] })
		return gs
	}
}

// attrSig is the per-attribute scoring-input signature of the last VOI rank.
type attrSig struct {
	seen     bool
	modelGen int64
	vers     []uint64 // versions of RulesInvolvingAt(ai), engine order
}

// modelGen returns the attribute committee's generation without creating a
// model: an absent model and a fresh empty one predict identically (not
// ready → p̃j falls back to the update score), so both read as generation 0.
func (s *Session) modelGen(attr string) int64 {
	if m, ok := s.models[attr]; ok {
		return m.Gen()
	}
	return 0
}

// refreshStaleAttrs decides, per attribute, whether groups on it must be
// re-scored: true when any rule involving the attribute changed version
// (the engine bumps counters on every Apply/Insert touching the rule) or
// the attribute's committee trained on new feedback since the last rank.
// The verdicts land in staleBuf (reused across calls).
func (s *Session) refreshStaleAttrs() {
	for ai, attr := range s.db.Schema.Attrs {
		sig := &s.attrSigs[ai]
		if !sig.seen {
			s.staleBuf[ai] = true
			continue
		}
		stale := sig.modelGen != s.modelGen(attr)
		if !stale {
			for i, ri := range s.eng.RulesInvolvingAt(ai) {
				if sig.vers[i] != s.eng.Version(ri) {
					stale = true
					break
				}
			}
		}
		s.staleBuf[ai] = stale
	}
}

// recordAttrSigs snapshots the post-rank scoring inputs for every attribute.
func (s *Session) recordAttrSigs() {
	for ai, attr := range s.db.Schema.Attrs {
		sig := &s.attrSigs[ai]
		rules := s.eng.RulesInvolvingAt(ai)
		if sig.vers == nil {
			sig.vers = make([]uint64, len(rules))
		}
		for i, ri := range rules {
			sig.vers[i] = s.eng.Version(ri)
		}
		sig.modelGen = s.modelGen(attr)
		sig.seen = true
	}
}

// staleKey adapts the per-attribute staleness verdicts to group keys.
func (s *Session) staleKey(k group.Key) bool {
	return s.staleBuf[s.db.Schema.MustIndex(k.Attr)]
}

// scoreGroups computes Eq. 6 benefits for the dirty groups the index hands
// over (key-ordered). With Config.Workers > 1 the committee probabilities
// p̃j are warmed serially first — committee (re)training, model creation and
// the prediction memo are single-goroutine — after which scoring is
// read-only and fans out over the worker pool; the benefits are identical
// at any worker count.
func (s *Session) scoreGroups(gs []*group.Group) {
	if s.cfg.Workers > 1 && len(gs) > 1 {
		for _, g := range gs {
			for _, u := range g.Updates {
				s.Prob(u)
			}
		}
		s.ranker.ScoreGroups(gs, s.probFrozen, s.cfg.Workers)
		return
	}
	s.ranker.ScoreGroups(gs, s.Prob, 1)
}

// probFrozen is Session.Prob for the read-only parallel scoring phase: it
// serves p̃j from the prediction memo the serial warm-up just filled,
// writing nothing. Should an entry be missing, the prediction is recomputed
// without memoizing — safe concurrently, since the warm-up already
// (re)trained every committee the dirty groups touch, leaving Model.Predict
// a pure read.
func (s *Session) probFrozen(u repair.Update) float64 {
	m, ok := s.models[u.Attr]
	if !ok {
		return u.Score
	}
	if v, hit := s.memo[s.memoKey(u.Cell())]; hit && v.value == u.Value && v.modelGen == m.Gen() && v.tupleVer == s.tupleVer[u.Tid] {
		if !v.ok {
			return u.Score
		}
		return v.votes[learn.Confirm]
	}
	cats, sim := s.Features(u)
	_, votes, ready := m.Predict(cats, sim)
	if !ready {
		return u.Score
	}
	return votes[learn.Confirm]
}

// model returns (creating if needed) the learner for an attribute.
func (s *Session) model(attr string) *learn.Model {
	m, ok := s.models[attr]
	if !ok {
		cfg := s.cfg.Forest
		cfg.Seed = s.cfg.Seed*1315423911 + int64(len(s.models)+1)
		if cfg.Workers == 0 {
			cfg.Workers = s.cfg.Workers
		}
		m = learn.NewModel(cfg, s.cfg.MinTrain)
		s.models[attr] = m
	}
	return m
}

// Features builds the learner input for an update per the paper's data
// representation: the original tuple's attribute values and the suggested
// value as categorical features, plus R(t[Ai], v) as the numeric
// relationship feature. It must be called before the update is applied.
func (s *Session) Features(u repair.Update) (cats []string, sim float64) {
	return s.appendCats(make([]string, 0, s.db.Schema.Arity()+1), u), s.similarity(u)
}

// appendCats appends the categorical features of u to dst: the tuple's
// current values, read straight from the dictionaries, then the suggested
// value.
func (s *Session) appendCats(dst []string, u repair.Update) []string {
	for ai, v := range s.db.Row(u.Tid) {
		dst = append(dst, s.db.Dict(ai).Val(v))
	}
	return append(dst, u.Value)
}

// similarity is the relationship feature R(t[Ai], v) of an update.
func (s *Session) similarity(u repair.Update) float64 {
	return strsim.Similarity(s.db.Get(u.Tid, u.Attr), u.Value)
}

// example builds the training example a user answer on u contributes.
func (s *Session) example(u repair.Update, fb repair.Feedback) learn.Example {
	cats, sim := s.Features(u)
	return learn.Example{Cats: cats, Sim: sim, Label: feedbackToLabel(fb)}
}

// LearnFrom adds a user feedback as a training example to the attribute's
// model. Learner-made decisions must not be fed back (no self-training).
func (s *Session) LearnFrom(u repair.Update, fb repair.Feedback) {
	s.model(u.Attr).Add(s.example(u, fb))
}

// UserFeedback records one user answer end to end: the model's prediction
// for the update is checked against the answer (the user inherently checks
// the learner during the session), the feedback becomes a training example
// (step 6 of Procedure 1), and the decision is applied through the
// consistency manager (step 7).
//
// The check is deferred (see learn.Model.AddChecked): when the committee is
// stale, as it is after every earlier answer, predicting would grow a
// forest only to produce this one outcome, so the outcome joins the
// attribute's window pending and is scored only if the window is read
// before it slides out. The retrain counter still advances as if the
// committee had been grown, so every committee, question and repair is the
// one the eager predict-then-learn order gives, and no PhaseRetrain runs.
func (s *Session) UserFeedback(u repair.Update, fb repair.Feedback) {
	if c, ok := s.model(u.Attr).AddChecked(s.example(u, fb)); ok {
		s.recordCheck(u.Attr, c)
	}
	s.ApplyFeedback(u, fb)
}

// recordCheck appends a prequential check to an attribute's window,
// dropping the oldest beyond accuracyWindow.
func (s *Session) recordCheck(attr string, c learn.Check) {
	w := append(s.hits[attr], c)
	if len(w) > accuracyWindow {
		w = w[len(w)-accuracyWindow:]
	}
	s.hits[attr] = w
}

// ModelAccuracy returns the prequential accuracy of an attribute's model
// over the recent user-checked predictions; ok is false until enough
// predictions have been checked. Pending checks in the window are scored
// here, each growing the committee its answer skipped, and memoized: a
// check grows at most one forest, and a read at most accuracyWindow.
// Deferred scoring is not reported as PhaseRetrain: a phase hook may read
// ModelStats, and scoring inside that phase would call it again.
func (s *Session) ModelAccuracy(attr string) (acc float64, ok bool) {
	w := s.hits[attr]
	if len(w) < minAssessed {
		return 0, false
	}
	m := s.models[attr]
	good := 0
	for i := range w {
		if m.Score(&w[i]) {
			good++
		}
	}
	return float64(good) / float64(len(w)), true
}

// Trusted reports whether the user would currently delegate decisions on
// this attribute to the learner (recent accuracy at or above MinAccuracy).
func (s *Session) Trusted(attr string) bool {
	acc, ok := s.ModelAccuracy(attr)
	return ok && acc >= s.cfg.MinAccuracy
}

// predVal is a memoized prediction of the suggestion value for one cell.
// sim, the update's relationship feature, depends only on the cell's value
// and the suggested one, so it stays valid while tupleVer matches even after
// the model retrains. The fields are ordered largest first, which keeps the
// entry at 72 bytes.
type predVal struct {
	votes    learn.Votes
	value    string
	modelGen int64
	sim      float64
	label    learn.Label
	tupleVer uint32
	ok       bool
}

// memoKey is the memo key of a cell: its position in the instance,
// tid·arity + attribute index.
func (s *Session) memoKey(c repair.CellKey) int {
	return c.Tid*s.db.Schema.Arity() + s.db.Schema.MustIndex(c.Attr)
}

// forget retires the memo entry of a cell whose suggestion left the group
// index. Go maps never shrink, so once the memo falls below a quarter of its
// peak it is copied into a map sized for what is left.
func (s *Session) forget(c repair.CellKey) {
	k := s.memoKey(c)
	if _, ok := s.memo[k]; !ok {
		return
	}
	delete(s.memo, k)
	if len(s.memo) >= s.memoPeak/4 {
		return
	}
	m := make(map[int]predVal, len(s.memo))
	for k, v := range s.memo {
		m[k] = v
	}
	s.memo, s.memoPeak = m, len(m)
}

// Predict consults the attribute's model for an update. ok is false while
// the model lacks training data. Results are memoized until the attribute's
// model retrains, the tuple changes or the cell's suggestion retires.
//
// The memo is a pure cache. The generation is the model's example count, so
// a hit means no example arrived since the entry was stored, right after a
// Predict that left the committee trained: recomputing would neither retrain
// nor vote differently.
func (s *Session) Predict(u repair.Update) (learn.Label, learn.Votes, bool) {
	m := s.model(u.Attr)
	key := s.memoKey(u.Cell())
	ver := s.tupleVer[u.Tid]
	v, hit := s.memo[key]
	hit = hit && v.value == u.Value && v.tupleVer == ver
	if hit && v.modelGen == m.Gen() {
		return v.label, v.votes, v.ok
	}
	sim := v.sim
	if !hit {
		sim = s.similarity(u)
	}
	// The committee only reads the features, so the serial path builds
	// them in a reused buffer (probFrozen, which runs concurrently, does
	// not).
	s.cats = s.appendCats(s.cats[:0], u)
	cats := s.cats
	var label learn.Label
	var votes learn.Votes
	var ok bool
	if m.NeedsRetrain() {
		// The retrain is the expensive part of this Predict; the phase span
		// covers the whole call so the committee growth is attributed, not
		// the cheap vote.
		done := s.phase(PhaseRetrain)
		label, votes, ok = m.Predict(cats, sim)
		if done != nil {
			done()
		}
	} else {
		label, votes, ok = m.Predict(cats, sim)
	}
	s.memo[key] = predVal{label: label, votes: votes, value: u.Value, ok: ok, modelGen: m.Gen(), tupleVer: ver, sim: sim}
	s.memoPeak = max(s.memoPeak, len(s.memo))
	return label, votes, ok
}

// Uncertainty returns the committee disagreement for an update; updates the
// model cannot judge yet are maximally uncertain (1).
func (s *Session) Uncertainty(u repair.Update) float64 {
	_, votes, ok := s.Predict(u)
	if !ok {
		return 1
	}
	return votes.Uncertainty()
}

// Prob is the user model p̃j of Section 4.1: the learner's confirm
// probability once trained, the repair algorithm's score sj before that.
func (s *Session) Prob(u repair.Update) float64 {
	_, votes, ok := s.Predict(u)
	if !ok {
		return u.Score
	}
	return votes[learn.Confirm]
}

// ModelFor exposes the per-attribute model (creating it if necessary);
// examples and readiness are observable for tests and tooling.
func (s *Session) ModelFor(attr string) *learn.Model { return s.model(attr) }

func feedbackToLabel(fb repair.Feedback) learn.Label {
	switch fb {
	case repair.Confirm:
		return learn.Confirm
	case repair.Reject:
		return learn.Reject
	default:
		return learn.Retain
	}
}

func labelToFeedback(l learn.Label) repair.Feedback {
	switch l {
	case learn.Confirm:
		return repair.Confirm
	case learn.Reject:
		return repair.Reject
	default:
		return repair.Retain
	}
}

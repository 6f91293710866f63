// Package relation implements the in-memory relational substrate GDR repairs:
// schemas, tuples, a mutable cell-addressed database instance, per-attribute
// value domains and tuple weights (Definition 1 of the paper allows scaling a
// tuple's violations by a business-importance weight).
//
// Storage is dictionary-encoded: each attribute owns a Dict interning its
// distinct values, each held once in a string of its own, and the tuples are
// stored as one flat array of fixed-width value ids (VID), row after row. The
// violation engine, update generator and VOI ranker operate on VIDs directly
// — string hashing and comparison in their hot paths become word operations
// — while the string-facing API (Get/Set/Tuple/Domain) stays unchanged for
// loaders, CLIs and examples.
//
// The paper stored records in MySQL and kept all repair state application
// side; here the whole instance lives in memory so the violation engine in
// package cfd can maintain incremental indexes over it.
package relation

import (
	"fmt"
	"sort"
	"strings"
)

// Schema describes a relation: its name and ordered attribute list.
type Schema struct {
	Relation string
	Attrs    []string
	pos      map[string]int
}

// NewSchema builds a schema for the named relation over the given attributes.
// Attribute names must be unique.
func NewSchema(relationName string, attrs []string) (*Schema, error) {
	s := &Schema{Relation: relationName, Attrs: append([]string(nil), attrs...), pos: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if _, dup := s.pos[a]; dup {
			return nil, fmt.Errorf("relation: duplicate attribute %q in schema %q", a, relationName)
		}
		s.pos[a] = i
	}
	return s, nil
}

// MustSchema is NewSchema for statically known-good schemas; it panics on error.
func MustSchema(relationName string, attrs []string) *Schema {
	s, err := NewSchema(relationName, attrs)
	if err != nil {
		panic(err)
	}
	return s
}

// Index returns the position of attr in the schema and whether it exists.
func (s *Schema) Index(attr string) (int, bool) {
	i, ok := s.pos[attr]
	return i, ok
}

// MustIndex returns the position of attr, panicking if the attribute is not
// part of the schema. It is intended for internal call sites that have
// already validated rule/schema compatibility.
func (s *Schema) MustIndex(attr string) int {
	i, ok := s.pos[attr]
	if !ok {
		panic(fmt.Sprintf("relation: attribute %q not in schema %q", attr, s.Relation))
	}
	return i
}

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.Attrs) }

// Tuple is a row of attribute values, positionally aligned with the schema.
type Tuple []string

// Clone returns an independent copy of the tuple.
func (t Tuple) Clone() Tuple {
	return append(Tuple(nil), t...)
}

// VID is an interned value id: the dense index of a value in its attribute's
// dictionary. Ids are assigned in first-appearance order and never reused or
// remapped, so a VID obtained once stays valid for the instance's lifetime.
type VID uint32

// AppendVID appends v's fixed-width (4-byte little-endian) encoding to buf
// and returns it. It is the one encoding used for every composite VID key in
// the library — violation-engine bucket keys, co-occurrence index keys — so
// the layout lives in a single place.
func AppendVID(buf []byte, v VID) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// KeyBufSize is the recommended size for stack scratch buffers composite VID
// keys are built in: 4 bytes per attribute, so keys over up to 16 attributes
// stay allocation-free (longer keys spill to the heap, still correct).
const KeyBufSize = 64

// Dict interns the distinct values of one attribute. Values are only ever
// appended; interning the same string twice returns the same id.
type Dict struct {
	vals []string
	ids  map[string]VID
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{ids: make(map[string]VID)}
}

// ID interns v, assigning the next dense id on first appearance. The first
// appearance stores a copy of v, so the dictionary never pins the memory v
// was cut from: encoding/csv returns a record's fields as substrings of one
// string per line, and keeping such a substring would keep its whole line
// alive for the life of the instance.
func (d *Dict) ID(v string) VID {
	if id, ok := d.ids[v]; ok {
		return id
	}
	v = strings.Clone(v)
	id := VID(len(d.vals))
	d.vals = append(d.vals, v)
	d.ids[v] = id
	return id
}

// Lookup returns v's id without interning it.
func (d *Dict) Lookup(v string) (VID, bool) {
	id, ok := d.ids[v]
	return id, ok
}

// Val returns the string a VID stands for.
func (d *Dict) Val(id VID) string { return d.vals[id] }

// Len returns the number of interned values.
func (d *Dict) Len() int { return len(d.vals) }

func (d *Dict) clone() *Dict {
	out := &Dict{vals: append([]string(nil), d.vals...), ids: make(map[string]VID, len(d.ids))}
	for v, id := range d.ids {
		out.ids[v] = id
	}
	return out
}

// DB is a mutable database instance of a single relation. Tuples are
// addressed by dense integer ids (their insertion order) and stored as
// dictionary-encoded VID rows, all in one flat array. Per-attribute value
// counts are maintained incrementally on every Insert/Set, so domain
// statistics never require a full rescan.
//
// DB is not safe for concurrent mutation; GDR sessions own their instance.
type DB struct {
	Schema *Schema

	// cells holds every tuple's VIDs row-major: tuple tid owns
	// cells[tid*arity : (tid+1)*arity]. weights has one entry per tuple,
	// so its length is the tuple count.
	cells   []VID
	arity   int
	weights []float64

	dicts  []*Dict
	counts [][]int // per attribute, indexed by VID: tuples currently holding the value

	domainList [][]string // cached sorted distinct values (count > 0)
	domainUp   []bool     // per-attribute validity of domainList
}

// NewDB returns an empty instance over the schema.
func NewDB(s *Schema) *DB {
	n := s.Arity()
	db := &DB{
		Schema:     s,
		arity:      n,
		dicts:      make([]*Dict, n),
		counts:     make([][]int, n),
		domainList: make([][]string, n),
		domainUp:   make([]bool, n),
	}
	for ai := 0; ai < n; ai++ {
		db.dicts[ai] = NewDict()
	}
	return db
}

// Insert appends a tuple and returns its id. The tuple values are interned;
// it must have exactly Schema.Arity() values.
func (db *DB) Insert(t Tuple) (int, error) {
	if len(t) != db.Schema.Arity() {
		return 0, fmt.Errorf("relation: tuple arity %d does not match schema %q arity %d", len(t), db.Schema.Relation, db.Schema.Arity())
	}
	for ai, v := range t {
		id := db.Intern(ai, v)
		db.cells = append(db.cells, id)
		db.bumpCount(ai, id, 1)
	}
	db.weights = append(db.weights, 1)
	return len(db.weights) - 1, nil
}

// MustInsert is Insert for known-good tuples; it panics on arity mismatch.
func (db *DB) MustInsert(t Tuple) int {
	id, err := db.Insert(t)
	if err != nil {
		panic(err)
	}
	return id
}

// N returns the number of tuples.
func (db *DB) N() int { return len(db.weights) }

// Row returns tuple tid's dictionary-encoded row: a capped window onto the
// instance's flat storage, so it reflects later Set calls on the tuple.
// Callers must not mutate it directly (use Set/SetVIDAt), and must not keep
// it past the next Insert, which may move the storage; every holder in the
// library uses it within one call.
func (db *DB) Row(tid int) []VID {
	i := tid * db.arity
	return db.cells[i : i+db.arity : i+db.arity]
}

// Tuple materializes tuple tid as strings. The returned slice is a fresh
// copy owned by the caller.
func (db *DB) Tuple(tid int) Tuple {
	row := db.Row(tid)
	out := make(Tuple, len(row))
	for ai, v := range row {
		out[ai] = db.dicts[ai].vals[v]
	}
	return out
}

// Get returns the value of attr in tuple tid.
func (db *DB) Get(tid int, attr string) string {
	return db.GetAt(tid, db.Schema.MustIndex(attr))
}

// GetAt returns the value at attribute position ai in tuple tid.
func (db *DB) GetAt(tid, ai int) string { return db.dicts[ai].vals[db.Row(tid)[ai]] }

// VIDAt returns the interned id at attribute position ai in tuple tid.
func (db *DB) VIDAt(tid, ai int) VID { return db.Row(tid)[ai] }

// Dict returns the dictionary of attribute position ai. Callers may intern
// into it (via DB.Intern) but must not assume ids beyond Len() exist.
func (db *DB) Dict(ai int) *Dict { return db.dicts[ai] }

// Intern returns the id of val under attribute position ai, adding it to the
// dictionary if new. Interning alone does not make the value part of the
// domain: Domain/ValueCount only report values some tuple currently holds.
func (db *DB) Intern(ai int, val string) VID {
	d := db.dicts[ai]
	if id, ok := d.ids[val]; ok {
		return id
	}
	id := d.ID(val)
	db.counts[ai] = append(db.counts[ai], 0)
	return id
}

// LookupVID returns the id of val under attribute position ai without
// interning it.
func (db *DB) LookupVID(ai int, val string) (VID, bool) {
	return db.dicts[ai].Lookup(val)
}

// syncCounts grows the count slice of attribute ai to cover every id in its
// dictionary — ids can outpace counts when a caller interned through the
// Dict directly instead of DB.Intern.
func (db *DB) syncCounts(ai int) {
	if n := db.dicts[ai].Len(); len(db.counts[ai]) < n {
		db.counts[ai] = append(db.counts[ai], make([]int, n-len(db.counts[ai]))...)
	}
}

// bumpCount adjusts the count of one value and invalidates the sorted domain
// cache only when the distinct-value set actually changed (a count crossing
// zero), keeping Set/SetAt free of O(N·arity) domain rebuilds.
func (db *DB) bumpCount(ai int, v VID, delta int) {
	if int(v) >= len(db.counts[ai]) {
		db.syncCounts(ai)
	}
	counts := db.counts[ai]
	was := counts[v]
	counts[v] = was + delta
	if (was == 0) != (counts[v] == 0) {
		db.domainUp[ai] = false
	}
}

// Set updates one cell. Violation indexes are maintained by the cfd.Engine
// wrapper, which is the only component that should mutate a database under
// repair; domain counts are maintained here, incrementally.
func (db *DB) Set(tid int, attr, value string) {
	ai := db.Schema.MustIndex(attr)
	db.SetVIDAt(tid, ai, db.Intern(ai, value))
}

// SetAt updates one cell by attribute position.
func (db *DB) SetAt(tid, ai int, value string) {
	db.SetVIDAt(tid, ai, db.Intern(ai, value))
}

// SetVIDAt updates one cell to an already-interned value id. It panics on an
// id outside the attribute's dictionary — notably the engine's sentinel ids
// (FreshVID), which are only meaningful to hypothetical, read-only calls and
// would poison the stored row.
func (db *DB) SetVIDAt(tid, ai int, v VID) {
	if int(v) >= db.dicts[ai].Len() {
		panic(fmt.Sprintf("relation: VID %d not in dictionary of %q (len %d); intern values before storing them",
			v, db.Schema.Attrs[ai], db.dicts[ai].Len()))
	}
	row := db.Row(tid)
	old := row[ai]
	if old == v {
		return
	}
	row[ai] = v
	db.bumpCount(ai, old, -1)
	db.bumpCount(ai, v, 1)
}

// Weight returns the business-importance weight of a tuple (default 1).
func (db *DB) Weight(tid int) float64 { return db.weights[tid] }

// SetWeight sets the business-importance weight of a tuple.
func (db *DB) SetWeight(tid int, w float64) { db.weights[tid] = w }

// Clone deep-copies the instance: rows, weights, dictionaries and counts.
// VIDs remain valid across the copy (dictionaries are cloned id-for-id), so
// encoded state derived from one instance can be compared against its clone.
func (db *DB) Clone() *DB {
	out := NewDB(db.Schema)
	out.cells = append([]VID(nil), db.cells...)
	out.weights = append([]float64(nil), db.weights...)
	for ai := range db.dicts {
		out.dicts[ai] = db.dicts[ai].clone()
		out.counts[ai] = append([]int(nil), db.counts[ai]...)
	}
	return out
}

// Domain returns the sorted distinct values currently stored under attr.
// The returned slice must not be mutated.
func (db *DB) Domain(attr string) []string {
	ai := db.Schema.MustIndex(attr)
	if !db.domainUp[ai] {
		d := db.dicts[ai]
		counts := db.counts[ai]
		vals := make([]string, 0, len(counts))
		for v, c := range counts {
			if c > 0 {
				vals = append(vals, d.vals[v])
			}
		}
		sort.Strings(vals)
		db.domainList[ai] = vals
		db.domainUp[ai] = true
	}
	return db.domainList[ai]
}

// ValueCount returns how many tuples currently hold value under attr.
func (db *DB) ValueCount(attr, value string) int {
	ai := db.Schema.MustIndex(attr)
	id, ok := db.dicts[ai].Lookup(value)
	if !ok {
		return 0
	}
	return db.CountVID(ai, id)
}

// CountVID returns how many tuples currently hold the value with id v under
// attribute position ai.
func (db *DB) CountVID(ai int, v VID) int {
	if int(v) >= len(db.counts[ai]) {
		return 0
	}
	return db.counts[ai][v]
}

// DiffCells returns the list of cells (tid, attribute index) on which db and
// other disagree. Both instances must share a schema and size; it is used to
// measure repair precision/recall against a ground-truth instance. The two
// instances may have independent dictionaries, so cells are compared by
// value, not by id.
func (db *DB) DiffCells(other *DB) ([][2]int, error) {
	if db.Schema.Arity() != other.Schema.Arity() || db.N() != other.N() {
		return nil, fmt.Errorf("relation: instances not comparable (%dx%d vs %dx%d)",
			db.N(), db.Schema.Arity(), other.N(), other.Schema.Arity())
	}
	var out [][2]int
	for tid := 0; tid < db.N(); tid++ {
		for ai := 0; ai < db.arity; ai++ {
			if db.GetAt(tid, ai) != other.GetAt(tid, ai) {
				out = append(out, [2]int{tid, ai})
			}
		}
	}
	return out, nil
}

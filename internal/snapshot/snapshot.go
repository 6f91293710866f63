// Package snapshot serializes guided-repair sessions to a versioned,
// self-describing binary format, so a session — the accumulated user
// feedback, the trained committees and the repaired instance — survives a
// daemon restart and can migrate between processes (the prerequisite for
// multi-node sharding).
//
// Wire layout (all integers little-endian; varints are encoding/binary's):
//
//	offset  size  field
//	0       4     magic "GDRS"
//	4       2     format version (uint16); readers accept v1 and v2
//	6       n     body: [v2+] the session meta (mutation sequence and the
//	              feedback dedup window), then the session name, then
//	              core.SessionState, encoded field by field with varint
//	              counts, length-prefixed strings and IEEE-754 bit-exact
//	              float64s
//	6+n     4     CRC-32 (IEEE) of everything before it
//
// Compatibility rules: the version is bumped whenever the body layout (or
// any serialized struct feeding it) changes — a hash lock test enforces
// this. Writers always emit the current version; readers additionally
// accept version 1 snapshots (pre-replication, no meta section), decoding
// them with a zero Meta. Forward migration beyond that is a higher-level
// concern; the format's job is to never misinterpret bytes. Decoding
// validates every count against the remaining input and every
// cross-reference against the decoded instance, so corrupt or truncated
// snapshots fail with an error — never a panic and never an oversized
// allocation.
//
// Encoding is deterministic: the same session state always produces the
// same bytes (maps are serialized in sorted order), which the format-lock
// golden test relies on.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"gdr/internal/cfd"
	"gdr/internal/core"
	"gdr/internal/learn"
	"gdr/internal/relation"
	"gdr/internal/repair"
)

// FormatVersion is the snapshot format this build writes. Bump it whenever
// the body layout or any serialized struct changes (the TestFormatLock
// golden test fails until you do).
const FormatVersion = 2

// minReadVersion is the oldest format this build still decodes. Version 1
// predates the Meta section; v1 snapshots decode with a zero Meta.
const minReadVersion = 1

// magic identifies a GDR snapshot.
var magic = [4]byte{'G', 'D', 'R', 'S'}

// Meta is the per-session bookkeeping serialized alongside the state since
// format v2: the mutation-sequence watermark (replica pushes carrying an
// older sequence are stale) and the feedback dedup window (request id →
// rendered response), persisted so state and dedup roll back atomically.
type Meta struct {
	MutSeq uint64
	Dedup  []DedupEntry
}

// DedupEntry is one remembered feedback request: the client-chosen id and
// the exact response body originally served, replayed on a duplicate.
type DedupEntry struct {
	ID   string
	Body []byte
}

// ErrFormat wraps every decode failure: bad magic, wrong version, CRC
// mismatch, truncation, or structurally invalid contents.
var ErrFormat = errors.New("snapshot: invalid snapshot")

// Encode snapshots a live session under a display name. It must be called
// from the goroutine that owns the session (for a served session, its
// actor).
func Encode(name string, sess *core.Session) ([]byte, error) {
	return EncodeState(name, sess.ExportState())
}

// Write is Encode directly to a writer.
func Write(w io.Writer, name string, sess *core.Session) error {
	b, err := Encode(name, sess)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Decode rebuilds a session from snapshot bytes.
func Decode(data []byte) (name string, sess *core.Session, err error) {
	name, st, err := DecodeState(data)
	if err != nil {
		return "", nil, err
	}
	sess, err = core.RestoreSession(st)
	if err != nil {
		return "", nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return name, sess, nil
}

// Read is Decode from a reader (the whole snapshot is buffered; callers
// serving untrusted input should bound the reader first).
func Read(r io.Reader) (name string, sess *core.Session, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return "", nil, err
	}
	return Decode(data)
}

// EncodeState serializes an already-exported state with a zero Meta.
func EncodeState(name string, st *core.SessionState) ([]byte, error) {
	return EncodeStateMeta(name, Meta{}, st)
}

// EncodeStateMeta serializes an already-exported state plus its session
// meta (mutation watermark and dedup window).
func EncodeStateMeta(name string, meta Meta, st *core.SessionState) ([]byte, error) {
	if st == nil {
		return nil, fmt.Errorf("snapshot: nil session state")
	}
	e := &encoder{}
	e.b = append(e.b, magic[:]...)
	e.b = binary.LittleEndian.AppendUint16(e.b, FormatVersion)
	e.uv(meta.MutSeq)
	e.uv(uint64(len(meta.Dedup)))
	for _, ent := range meta.Dedup {
		e.str(ent.ID)
		e.bytes(ent.Body)
	}
	e.str(name)
	e.sessionConfig(st.Config)
	e.str(st.Relation)
	e.strs(st.Attrs)
	e.uv(uint64(len(st.Dicts)))
	for _, vals := range st.Dicts {
		e.strs(vals)
	}
	e.uv(uint64(len(st.Rows)))
	for _, row := range st.Rows {
		if len(row) != len(st.Attrs) {
			return nil, fmt.Errorf("snapshot: row arity %d, want %d", len(row), len(st.Attrs))
		}
		for _, v := range row {
			e.uv(uint64(v))
		}
	}
	e.f64s(st.Weights)
	e.uv(uint64(len(st.Rules)))
	for i, r := range st.Rules {
		if r == nil {
			return nil, fmt.Errorf("snapshot: nil rule at index %d", i)
		}
		e.rule(r)
	}
	e.f64s(st.RuleWeights)
	e.uv(uint64(len(st.Possible)))
	for _, u := range st.Possible {
		e.v(int64(u.Tid))
		e.str(u.Attr)
		e.str(u.Value)
		e.f64(u.Score)
	}
	e.uv(uint64(len(st.Locked)))
	for _, c := range st.Locked {
		e.v(int64(c.Tid))
		e.v(int64(c.Pos))
	}
	e.uv(uint64(len(st.Prevented)))
	for _, c := range st.Prevented {
		e.v(int64(c.Tid))
		e.v(int64(c.Pos))
		e.uv(uint64(len(c.Values)))
		for _, v := range c.Values {
			e.uv(uint64(v))
		}
	}
	e.v(int64(st.InitialDirty))
	e.v(int64(st.Applied))
	e.v(int64(st.ForcedFixes))
	e.uv(st.Shuffles)
	e.uv(uint64(len(st.Models)))
	for _, ms := range st.Models {
		e.str(ms.Attr)
		e.modelState(ms.State)
	}
	e.uv(uint64(len(st.Hits)))
	for _, hw := range st.Hits {
		e.str(hw.Attr)
		e.bools(hw.Window)
	}
	e.b = binary.LittleEndian.AppendUint32(e.b, crc32.ChecksumIEEE(e.b))
	return e.b, nil
}

// DecodeState parses snapshot bytes into the display name and the session
// state, discarding the meta section.
func DecodeState(data []byte) (name string, st *core.SessionState, err error) {
	name, _, st, err = DecodeStateMeta(data)
	return name, st, err
}

// Verify cheaply validates the snapshot envelope — magic, a readable
// version and the CRC trailer — without decoding the body. The replica
// store uses it to reject corrupt pushes before touching disk.
func Verify(data []byte) error {
	const overhead = 4 + 2 + 4 // magic + version + crc
	if len(data) < overhead {
		return fmt.Errorf("%w: %d bytes is shorter than the fixed header", ErrFormat, len(data))
	}
	if [4]byte(data[:4]) != magic {
		return fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v < minReadVersion || v > FormatVersion {
		return fmt.Errorf("%w: format version %d (this build reads %d..%d)", ErrFormat, v, minReadVersion, FormatVersion)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(trailer); got != want {
		return fmt.Errorf("%w: CRC mismatch (corrupt or truncated)", ErrFormat)
	}
	return nil
}

// DecodeStateMeta parses snapshot bytes into the display name, the session
// meta and the session state without rebuilding the session — the serving
// tier uses this to adjust the configuration (worker clamping) before
// restoring. Version 1 snapshots decode with a zero Meta.
func DecodeStateMeta(data []byte) (name string, meta Meta, st *core.SessionState, err error) {
	if err := Verify(data); err != nil {
		return "", Meta{}, nil, err
	}
	version := binary.LittleEndian.Uint16(data[4:6])
	body := data[:len(data)-4]
	d := &decoder{b: body, off: 6}
	if version >= 2 {
		meta.MutSeq = d.uv()
		meta.Dedup = make([]DedupEntry, 0, d.count(2))
		for i := 0; i < cap(meta.Dedup) && d.err == nil; i++ {
			meta.Dedup = append(meta.Dedup, DedupEntry{ID: d.str(), Body: d.bytes()})
		}
	}
	name = d.str()
	st = &core.SessionState{}
	st.Config = d.sessionConfig()
	st.Relation = d.str()
	st.Attrs = d.strs()
	st.Dicts = make([][]string, 0, d.count(1))
	for i := 0; i < cap(st.Dicts) && d.err == nil; i++ {
		st.Dicts = append(st.Dicts, d.strs())
	}
	arity := len(st.Attrs)
	nRows := d.count(arity) // each row is at least arity bytes
	if arity == 0 && nRows > 0 {
		d.fail("rows with empty schema")
	}
	// Every row is carved from one backing array; the count check above
	// bounds it by the input's size.
	cells := make([]relation.VID, nRows*arity)
	st.Rows = make([][]relation.VID, 0, nRows)
	for i := 0; i < nRows && d.err == nil; i++ {
		row := cells[i*arity : (i+1)*arity : (i+1)*arity]
		for ai := range row {
			row[ai] = relation.VID(d.u32())
		}
		st.Rows = append(st.Rows, row)
	}
	st.Weights = d.f64s()
	st.Rules = make([]*cfd.CFD, 0, d.count(1))
	for i := 0; i < cap(st.Rules) && d.err == nil; i++ {
		st.Rules = append(st.Rules, d.rule())
	}
	st.RuleWeights = d.f64s()
	st.Possible = make([]repair.Update, 0, d.count(1))
	for i := 0; i < cap(st.Possible) && d.err == nil; i++ {
		st.Possible = append(st.Possible, repair.Update{
			Tid: d.int_(), Attr: d.str(), Value: d.str(), Score: d.f64(),
		})
	}
	st.Locked = make([]repair.LockedCell, 0, d.count(1))
	for i := 0; i < cap(st.Locked) && d.err == nil; i++ {
		st.Locked = append(st.Locked, repair.LockedCell{Tid: d.int_(), Pos: d.int_()})
	}
	st.Prevented = make([]repair.PreventedCell, 0, d.count(1))
	for i := 0; i < cap(st.Prevented) && d.err == nil; i++ {
		c := repair.PreventedCell{Tid: d.int_(), Pos: d.int_()}
		c.Values = make([]relation.VID, 0, d.count(1))
		for j := 0; j < cap(c.Values) && d.err == nil; j++ {
			c.Values = append(c.Values, relation.VID(d.u32()))
		}
		st.Prevented = append(st.Prevented, c)
	}
	st.InitialDirty = d.int_()
	st.Applied = d.int_()
	st.ForcedFixes = d.int_()
	st.Shuffles = d.uv()
	st.Models = make([]core.AttrModelState, 0, d.count(1))
	for i := 0; i < cap(st.Models) && d.err == nil; i++ {
		st.Models = append(st.Models, core.AttrModelState{Attr: d.str(), State: d.modelState()})
	}
	st.Hits = make([]core.AttrHitWindow, 0, d.count(1))
	for i := 0; i < cap(st.Hits) && d.err == nil; i++ {
		st.Hits = append(st.Hits, core.AttrHitWindow{Attr: d.str(), Window: d.bools()})
	}
	if d.err == nil && d.off != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.off)
	}
	if d.err != nil {
		return "", Meta{}, nil, d.err
	}
	return name, meta, st, nil
}

// encoder builds the body with deterministic, append-only primitives.
type encoder struct{ b []byte }

func (e *encoder) uv(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *encoder) v(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *encoder) f64(f float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(f))
}
func (e *encoder) bool_(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}
func (e *encoder) str(s string) {
	e.uv(uint64(len(s)))
	e.b = append(e.b, s...)
}
func (e *encoder) bytes(p []byte) {
	e.uv(uint64(len(p)))
	e.b = append(e.b, p...)
}
func (e *encoder) strs(ss []string) {
	e.uv(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}
func (e *encoder) f64s(fs []float64) {
	e.uv(uint64(len(fs)))
	for _, f := range fs {
		e.f64(f)
	}
}
func (e *encoder) bools(bs []bool) {
	e.uv(uint64(len(bs)))
	for _, b := range bs {
		e.bool_(b)
	}
}

func (e *encoder) forestConfig(c learn.Config) {
	e.v(int64(c.K))
	e.v(int64(c.MaxDepth))
	e.v(int64(c.MinLeaf))
	e.f64(c.SampleFrac)
	e.v(int64(c.Mtry))
	e.bool_(c.Unbalanced)
	e.v(c.Seed)
	e.v(int64(c.Workers))
}

func (e *encoder) sessionConfig(c core.Config) {
	e.forestConfig(c.Forest)
	e.v(int64(c.MinTrain))
	e.v(int64(c.MinVerify))
	e.v(int64(c.BatchSize))
	e.f64(c.MinDelegate)
	e.f64(c.MinAccuracy)
	e.v(c.Seed)
	e.v(int64(c.Workers))
}

func (e *encoder) rule(r *cfd.CFD) {
	e.str(r.ID)
	e.strs(r.LHS)
	e.str(r.RHS)
	attrs := make([]string, 0, len(r.TP))
	for a := range r.TP {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	e.uv(uint64(len(attrs)))
	for _, a := range attrs {
		e.str(a)
		e.str(r.TP[a])
	}
}

func (e *encoder) modelState(st learn.ModelState) {
	e.forestConfig(st.Cfg)
	e.v(int64(st.MinTrain))
	e.v(st.Retrains)
	e.bool_(st.Trained)
	e.uv(uint64(len(st.Examples)))
	for _, ex := range st.Examples {
		e.strs(ex.Cats)
		e.f64(ex.Sim)
		e.v(int64(ex.Label))
	}
}

// decoder consumes the body with hard bounds: every count is validated
// against the bytes actually remaining before anything is allocated, and
// the first failure latches (subsequent reads return zero values).
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s (at offset %d)", ErrFormat, fmt.Sprintf(format, args...), d.off)
	}
}

func (d *decoder) remaining() int { return len(d.b) - d.off }

func (d *decoder) uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) v() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.off += n
	return v
}

// int_ reads a varint that must fit a non-huge int (cell ids, counters).
func (d *decoder) int_() int {
	v := d.v()
	if v < math.MinInt32 || v > math.MaxInt32 {
		// Wider than any plausible tuple id or counter; long before
		// overflowing int on 32-bit platforms.
		d.fail("integer %d out of range", v)
		return 0
	}
	return int(v)
}

// u32 reads a uvarint that must fit uint32 (VIDs).
func (d *decoder) u32() uint32 {
	v := d.uv()
	if v > math.MaxUint32 {
		d.fail("value id %d out of range", v)
		return 0
	}
	return uint32(v)
}

// count reads an element count and bounds it by the remaining input: each
// element occupies at least elemMin bytes, so a corrupt count can never
// trigger an oversized allocation.
func (d *decoder) count(elemMin int) int {
	if elemMin < 1 {
		elemMin = 1
	}
	v := d.uv()
	if v > uint64(d.remaining()/elemMin) {
		d.fail("count %d exceeds remaining input", v)
		return 0
	}
	return int(v)
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

func (d *decoder) bool_() bool {
	if d.err != nil {
		return false
	}
	if d.remaining() < 1 {
		d.fail("truncated bool")
		return false
	}
	v := d.b[d.off]
	d.off++
	if v > 1 {
		d.fail("bool byte %d", v)
		return false
	}
	return v == 1
}

func (d *decoder) str() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *decoder) bytes() []byte {
	n := d.count(1)
	if d.err != nil {
		return nil
	}
	p := make([]byte, n)
	copy(p, d.b[d.off:d.off+n])
	d.off += n
	return p
}

func (d *decoder) strs() []string {
	out := make([]string, 0, d.count(1))
	for i := 0; i < cap(out) && d.err == nil; i++ {
		out = append(out, d.str())
	}
	return out
}

func (d *decoder) f64s() []float64 {
	out := make([]float64, 0, d.count(8))
	for i := 0; i < cap(out) && d.err == nil; i++ {
		out = append(out, d.f64())
	}
	return out
}

func (d *decoder) bools() []bool {
	out := make([]bool, 0, d.count(1))
	for i := 0; i < cap(out) && d.err == nil; i++ {
		out = append(out, d.bool_())
	}
	return out
}

func (d *decoder) forestConfig() learn.Config {
	return learn.Config{
		K:          d.int_(),
		MaxDepth:   d.int_(),
		MinLeaf:    d.int_(),
		SampleFrac: d.f64(),
		Mtry:       d.int_(),
		Unbalanced: d.bool_(),
		Seed:       d.v(),
		Workers:    d.int_(),
	}
}

func (d *decoder) sessionConfig() core.Config {
	return core.Config{
		Forest:      d.forestConfig(),
		MinTrain:    d.int_(),
		MinVerify:   d.int_(),
		BatchSize:   d.int_(),
		MinDelegate: d.f64(),
		MinAccuracy: d.f64(),
		Seed:        d.v(),
		Workers:     d.int_(),
	}
}

func (d *decoder) rule() *cfd.CFD {
	id := d.str()
	lhs := d.strs()
	rhs := d.str()
	n := d.count(2)
	tp := make(map[string]string, n)
	for i := 0; i < n && d.err == nil; i++ {
		a := d.str()
		v := d.str()
		if _, dup := tp[a]; dup {
			d.fail("duplicate pattern attribute %q in rule %q", a, id)
			return nil
		}
		tp[a] = v
	}
	if d.err != nil {
		return nil
	}
	r, err := cfd.New(id, lhs, rhs, tp)
	if err != nil {
		d.fail("rule %q: %v", id, err)
		return nil
	}
	return r
}

func (d *decoder) modelState() learn.ModelState {
	st := learn.ModelState{
		Cfg:      d.forestConfig(),
		MinTrain: d.int_(),
		Retrains: d.v(),
		Trained:  d.bool_(),
	}
	st.Examples = make([]learn.Example, 0, d.count(1))
	for i := 0; i < cap(st.Examples) && d.err == nil; i++ {
		st.Examples = append(st.Examples, learn.Example{
			Cats:  d.strs(),
			Sim:   d.f64(),
			Label: learn.Label(d.int_()),
		})
	}
	return st
}

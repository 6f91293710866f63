package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"testing"

	"gdr/internal/core"
	"gdr/internal/dataset"
	"gdr/internal/repair"
)

// canonicalSession builds a deterministic session with every kind of state
// populated: applied/rejected/retained feedback (so locks and prevented
// lists exist), trained committees with accuracy windows, and one consumed
// fallback shuffle.
func canonicalSession(t testing.TB) *core.Session {
	t.Helper()
	d := dataset.Hospital(dataset.Config{N: 80, Seed: 42, DirtyRate: 0.3})
	sess, err := core.NewSession(d.Dirty.Clone(), d.Rules, core.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		gs := sess.Groups(core.OrderVOI, nil)
		if len(gs) == 0 {
			break
		}
		for _, u := range sess.GroupUpdates(gs[0].Key) {
			cur, live := sess.Pending(u.Cell())
			if !live || cur.Value != u.Value {
				continue
			}
			switch tv := d.Truth.Get(u.Tid, u.Attr); {
			case u.Value == tv:
				sess.UserFeedback(cur, repair.Confirm)
			case sess.DB().Get(u.Tid, u.Attr) == tv:
				sess.UserFeedback(cur, repair.Retain)
			default:
				sess.UserFeedback(cur, repair.Reject)
			}
		}
		sess.LearnerSweep(2)
	}
	sess.Groups(core.OrderRandom, nil) // consume one fallback shuffle
	return sess
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	sess := canonicalSession(t)
	data, err := Encode("canonical", sess)
	if err != nil {
		t.Fatal(err)
	}

	// State-level round trip: decode and re-encode must reproduce the
	// exact bytes (the encoding is deterministic and canonical).
	name, st, err := DecodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	if name != "canonical" {
		t.Fatalf("name %q", name)
	}
	again, err := EncodeState(name, st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("decode→encode did not reproduce the snapshot bytes")
	}

	// Session-level round trip: the restored session observes identically.
	_, restored, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := restored.Stats(), sess.Stats(); got != want {
		t.Fatalf("stats diverge: %+v vs %+v", got, want)
	}
	var a, b bytes.Buffer
	if err := sess.DB().WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := restored.DB().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("restored export diverges")
	}

	// Snapshotting the restored session reproduces the same bytes again.
	third, err := Encode("canonical", restored)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, third) {
		t.Fatal("snapshot of the restored session diverges from the original snapshot")
	}
}

// TestMetaRoundTrip pins the v2 meta section: watermark and dedup window
// survive an encode/decode cycle and participate in byte determinism.
func TestMetaRoundTrip(t *testing.T) {
	sess := canonicalSession(t)
	meta := Meta{
		MutSeq: 17,
		Dedup: []DedupEntry{
			{ID: "req-1", Body: []byte(`{"applied_delta":3}` + "\n")},
			{ID: "req-2", Body: []byte{}},
			{ID: "", Body: []byte{0, 1, 2}},
		},
	}
	data, err := EncodeStateMeta("meta", meta, sess.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	name, got, st, err := DecodeStateMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	if name != "meta" || got.MutSeq != 17 || len(got.Dedup) != 3 {
		t.Fatalf("meta round trip: name=%q meta=%+v", name, got)
	}
	for i, ent := range got.Dedup {
		if ent.ID != meta.Dedup[i].ID || !bytes.Equal(ent.Body, meta.Dedup[i].Body) {
			t.Fatalf("dedup entry %d diverged: %+v vs %+v", i, ent, meta.Dedup[i])
		}
	}
	again, err := EncodeStateMeta(name, got, st)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("meta decode→encode did not reproduce the snapshot bytes")
	}
	if err := Verify(data); err != nil {
		t.Fatalf("Verify rejects a valid snapshot: %v", err)
	}
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0x41
	if err := Verify(mut); err == nil {
		t.Fatal("Verify accepted a corrupt snapshot")
	}
}

// TestWatermark: the watermark reader agrees with the full meta decode at
// every size of varint, reads a v1 snapshot as 0, and rejects what Verify
// rejects.
func TestWatermark(t *testing.T) {
	st := canonicalSession(t).ExportState()
	dedup := []DedupEntry{{ID: "req-1", Body: []byte("{}")}}
	for _, seq := range []uint64{0, 1, 127, 128, 1 << 40, 1<<64 - 1} {
		data, err := EncodeStateMeta("w", Meta{MutSeq: seq, Dedup: dedup}, st)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := Watermark(data); err != nil || got != seq {
			t.Fatalf("Watermark = %d, %v; want %d", got, err, seq)
		}
		corrupt := append([]byte(nil), data...)
		corrupt[len(corrupt)/2] ^= 0x41
		if _, err := Watermark(corrupt); !errors.Is(err, ErrFormat) {
			t.Fatalf("corrupt snapshot at seq %d: err %v, want ErrFormat", seq, err)
		}
	}
	v1, err := os.ReadFile("testdata/golden_v1.snap")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Watermark(v1); err != nil || got != 0 {
		t.Fatalf("v1 Watermark = %d, %v; want 0", got, err)
	}
	if _, err := Watermark([]byte("GDRS")); !errors.Is(err, ErrFormat) {
		t.Fatalf("short input: err %v, want ErrFormat", err)
	}
}

// TestCorruptSnapshotsFailCleanly: every kind of damage must surface as an
// error — never a panic, never a runaway allocation.
func TestCorruptSnapshotsFailCleanly(t *testing.T) {
	sess := canonicalSession(t)
	data, err := Encode("x", sess)
	if err != nil {
		t.Fatal(err)
	}

	// Every truncation point (sampled densely near the ends, sparsely in
	// the middle to keep the test quick).
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, len(data) - 1, len(data) - 2, len(data) - 5}
	for n := 16; n < len(data); n += len(data) / 97 {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		if n < 0 || n >= len(data) {
			continue
		}
		if _, _, err := DecodeState(data[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}

	// Every single-byte flip is caught by the CRC.
	for _, off := range []int{0, 4, 5, 6, 100, 1000, len(data) / 2, len(data) - 5, len(data) - 1} {
		if off >= len(data) {
			continue
		}
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x41
		if _, _, err := DecodeState(mut); err == nil {
			t.Fatalf("byte flip at %d decoded without error", off)
		}
	}

	// A body that passes the CRC but lies structurally: valid header and
	// trailer around garbage.
	if _, _, err := DecodeState(reseal(append(append([]byte(nil), data[:6]...), 0xff, 0xff, 0xff, 0xff, 0x0f))); err == nil {
		t.Fatal("structural garbage decoded without error")
	}

	// Wrong version.
	mut := append([]byte(nil), data...)
	mut[4] = 99
	if _, _, err := DecodeState(reseal(mut[:len(mut)-4])); err == nil {
		t.Fatal("future format version decoded without error")
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	sess := canonicalSession(t)
	data, err := Encode("x", sess)
	if err != nil {
		t.Fatal(err)
	}
	mut := append(append([]byte(nil), data[:len(data)-4]...), 0, 0, 0)
	if _, _, err := DecodeState(reseal(mut)); err == nil {
		t.Fatal("trailing bytes decoded without error")
	}
}

// reseal appends a fresh CRC trailer so structural mutations reach the body
// parser instead of being shadowed by the checksum.
func reseal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
}

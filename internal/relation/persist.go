package relation

import "fmt"

// Vals returns the dictionary's values in id order (index i is the string
// VID(i) stands for). The returned slice is a fresh copy owned by the
// caller, so a snapshot taken here stays stable while interning continues.
func (d *Dict) Vals() []string {
	return append([]string(nil), d.vals...)
}

// RestoreDict rebuilds a dictionary from a value list previously obtained
// with Vals. Ids are reassigned positionally — vals[i] gets VID(i) — so a
// restored dictionary resolves every id exactly like the one it was
// snapshotted from. Duplicate values are rejected: they cannot occur in a
// dictionary (ID interns), so their presence means the input is corrupt.
func RestoreDict(vals []string) (*Dict, error) {
	d := &Dict{vals: append([]string(nil), vals...), ids: make(map[string]VID, len(vals))}
	for i, v := range vals {
		if _, dup := d.ids[v]; dup {
			return nil, fmt.Errorf("relation: duplicate dictionary value %q at id %d", v, i)
		}
		d.ids[v] = VID(i)
	}
	return d, nil
}

// RestoreDB rebuilds an instance from snapshotted parts: per-attribute
// dictionaries (id-for-id, so every stored VID keeps its meaning), the
// dictionary-encoded rows (copied into the instance's flat storage), and
// the tuple weights (nil means all 1). The per-attribute value counts and
// domain caches are derived, not stored — they are recomputed here. Every
// row VID is validated against its dictionary so a corrupt snapshot
// surfaces as an error, never as an out-of-range panic later.
func RestoreDB(s *Schema, dicts []*Dict, rows [][]VID, weights []float64) (*DB, error) {
	n := s.Arity()
	if len(dicts) != n {
		return nil, fmt.Errorf("relation: %d dictionaries for schema %q arity %d", len(dicts), s.Relation, n)
	}
	if weights != nil && len(weights) != len(rows) {
		return nil, fmt.Errorf("relation: %d weights for %d rows", len(weights), len(rows))
	}
	db := &DB{
		Schema:     s,
		cells:      make([]VID, 0, len(rows)*n),
		arity:      n,
		weights:    make([]float64, len(rows)),
		dicts:      make([]*Dict, n),
		counts:     make([][]int, n),
		domainList: make([][]string, n),
		domainUp:   make([]bool, n),
	}
	for ai := 0; ai < n; ai++ {
		if dicts[ai] == nil {
			return nil, fmt.Errorf("relation: nil dictionary for attribute %q", s.Attrs[ai])
		}
		db.dicts[ai] = dicts[ai]
		db.counts[ai] = make([]int, dicts[ai].Len())
	}
	for tid, row := range rows {
		if len(row) != n {
			return nil, fmt.Errorf("relation: row %d arity %d, want %d", tid, len(row), n)
		}
		for ai, v := range row {
			if int(v) >= db.dicts[ai].Len() {
				return nil, fmt.Errorf("relation: row %d attribute %q: VID %d outside dictionary (len %d)",
					tid, s.Attrs[ai], v, db.dicts[ai].Len())
			}
			db.counts[ai][v]++
		}
		db.cells = append(db.cells, row...)
		if weights != nil {
			db.weights[tid] = weights[tid]
		} else {
			db.weights[tid] = 1
		}
	}
	return db, nil
}

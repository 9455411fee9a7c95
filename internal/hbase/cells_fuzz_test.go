package hbase

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzCellsMerge fuzzes the sorted-slice row machinery end to end: fuzz
// bytes become a cell-operation tape (puts, column tombstones, row
// tombstones, spread over up to three sorted parts), the parts are merged
// with mergeCellsInto, and the invariants every consumer of Cells relies
// on are checked:
//
//   - sortedness: merged cell indexes are ordered by cellLess, and every
//     materialized Cells slice is strictly ascending by qualifier;
//   - precedence/stability: on identical (qualifier, ts, type) coordinates
//     the earlier (higher-precedence) part's cell wins;
//   - last-write-wins + tombstone handling: the slice read matches the
//     reference map read under plain, snapshot, excluded-version and
//     projected options (and their combinations), and binary-search Get
//     agrees pair for pair;
//   - packed store-file rows: every part and the merged row survive a
//     pack/decode round trip cell for cell (nil values included), and a
//     region holding the parts as two packed store files under a memstore
//     row reads — by point get and by scan — exactly what the []Cell row
//     reads, under every option shape, before and after a flush and a
//     major compaction.
//
// CI runs this for a short -fuzztime as a smoke step; run it longer
// locally when touching rowdata.go or merge.go.
//
// The aliasing phase at the end deliberately scribbles over a returned
// Cells to prove reads stay independent (cellsvet:owner).
func FuzzCellsMerge(f *testing.F) {
	f.Add([]byte{0x01, 0x22, 0x43, 0x10, 0x05})
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f, 0x33, 0x9a, 0x02, 0x41})
	f.Add(bytes.Repeat([]byte{0x42, 0x13}, 40))
	f.Fuzz(func(t *testing.T, tape []byte) {
		parts := [3]*rowData{{}, {}, {}}
		var ops [3][]Cell // each part's cells in application order
		for off := 0; off+3 < len(tape); off += 4 {
			qual := fmt.Sprintf("q%d", tape[off]%8)
			ts := int64(tape[off+1]%32) + 1
			kind := CellType(tape[off+2] % 3)
			part := int(tape[off+3]) % len(parts)
			c := Cell{Qualifier: qual, TS: ts, Type: kind}
			switch kind {
			case TypePut:
				// The value encodes (part, offset) so precedence on
				// coordinate ties is observable from the winning cell.
				c.Value = []byte(fmt.Sprintf("p%d-%d", part, off))
			case TypeDeleteRow:
				c.Qualifier = "" // row tombstones live at the empty qualifier
			}
			parts[part].apply(c, 4)
			ops[part] = append(ops[part], c)
			if !sortedByCellLess(parts[part].cells) {
				t.Fatalf("part %d unsorted after apply(%+v)", part, c)
			}
		}

		m := merged(parts[0], parts[1], parts[2])
		if !sortedByCellLess(m.cells) {
			t.Fatalf("merged cells unsorted: %+v", m.cells)
		}
		total := len(parts[0].cells) + len(parts[1].cells) + len(parts[2].cells)
		if len(m.cells) != total {
			t.Fatalf("merge dropped cells: %d in, %d out", total, len(m.cells))
		}
		// Stability: among equal coordinates, part order must be preserved
		// (put values encode their part index at Value[1]).
		for i := 1; i < len(m.cells); i++ {
			a, b := m.cells[i-1], m.cells[i]
			if a.Qualifier == b.Qualifier && a.TS == b.TS && a.Type == b.Type &&
				a.Type == TypePut && a.Value[1] > b.Value[1] {
				t.Fatalf("merge not stable at %d: part %c before part %c", i, a.Value[1], b.Value[1])
			}
		}

		excluded := func(ts int64) bool { return ts%3 == 0 }
		optsList := []ReadOpts{
			{},
			{ReadTS: 9},
			{Excluded: excluded},
			{Columns: []string{"q1", "q4"}},
			{ReadTS: 20, Excluded: excluded},
			{ReadTS: 9, Columns: []string{"q0", "q2", "q7"}},
			{ReadTS: 25, Excluded: excluded, Columns: []string{"q3", "q5"}},
		}
		for oi, opts := range optsList {
			got := m.read(opts)
			if !got.sortedOK() {
				t.Fatalf("opts %d: read not strictly sorted: %v", oi, got)
			}
			want := readRefMap(m, opts)
			if len(got) != len(want) {
				t.Fatalf("opts %d: slice read %d pairs, map read %d (%v vs %v)", oi, len(got), len(want), got, want)
			}
			for _, p := range got {
				if !bytes.Equal(p.Value, want[p.Qualifier]) {
					t.Fatalf("opts %d: %s = %q, reference %q", oi, p.Qualifier, p.Value, want[p.Qualifier])
				}
				if !bytes.Equal(got.Get(p.Qualifier), p.Value) {
					t.Fatalf("opts %d: binary-search Get(%s) diverges from pair", oi, p.Qualifier)
				}
			}
			if got.Get("absent-qualifier") != nil {
				t.Fatalf("opts %d: Get of absent qualifier returned a value", oi)
			}
		}

		// Aliasing: a returned Cells is freshly materialized — clobbering
		// every pair in it (structs, not the shared Value bytes) must not
		// change what a later read or an earlier Clone observes.
		scribbled := m.read(ReadOpts{})
		snap := scribbled.Clone()
		for i := range scribbled {
			scribbled[i] = Pair{Qualifier: "zz-scribble", Value: []byte("scribble")}
		}
		fresh := m.read(ReadOpts{})
		if len(fresh) != len(snap) {
			t.Fatalf("scribbling a returned Cells changed a later read: %d vs %d pairs", len(fresh), len(snap))
		}
		for i := range fresh {
			if fresh[i].Qualifier != snap[i].Qualifier || !bytes.Equal(fresh[i].Value, snap[i].Value) {
				t.Fatalf("scribbling a returned Cells leaked into pair %d: %+v vs %+v", i, fresh[i], snap[i])
			}
		}

		checkPacked(t, parts, ops, m, optsList)

		// Compaction must preserve the sort invariant and read equivalence
		// for the plain view it is defined over (latest versions survive,
		// tombstoned data does not return).
		before := m.read(ReadOpts{})
		mc := &rowData{cells: append([]Cell(nil), m.cells...)}
		mc.compact(1)
		if !sortedByCellLess(mc.cells) {
			t.Fatalf("compacted cells unsorted: %+v", mc.cells)
		}
		after := mc.read(ReadOpts{})
		if len(before) != len(after) {
			t.Fatalf("compaction changed visible row: %v -> %v", before, after)
		}
		for i := range before {
			if before[i].Qualifier != after[i].Qualifier || !bytes.Equal(before[i].Value, after[i].Value) {
				t.Fatalf("compaction changed visible pair %d: %v -> %v", i, before[i], after[i])
			}
		}
	})
}

// checkPacked is FuzzCellsMerge's packed-form phase. parts are the fuzzed
// rows in precedence order, ops the cells that built each, m their merge.
func checkPacked(t *testing.T, parts [3]*rowData, ops [3][]Cell, m *rowData, optsList []ReadOpts) {
	t.Helper()
	dict := newQualDict()
	pk := rowPacker{dict: dict}
	for i, rd := range append(parts[:], m) {
		got := decodeRow(nil, pk.pack(rd.cells, 0), dict.load())
		if len(got) != len(rd.cells) {
			t.Fatalf("row %d: packed round trip has %d cells, want %d", i, len(got), len(rd.cells))
		}
		for j, c := range rd.cells {
			g := got[j]
			if g.Qualifier != c.Qualifier || g.TS != c.TS || g.Type != c.Type ||
				!bytes.Equal(g.Value, c.Value) || (g.Value == nil) != (c.Value == nil) {
				t.Fatalf("row %d cell %d: packed round trip %+v, want %+v", i, j, g, c)
			}
		}
	}

	// The region: the lowest-precedence part in the older store file, the
	// middle one in the newer file, the highest in the memstore.
	const key = "row"
	spec := &TableSpec{Name: "t", MaxVersions: 4}
	spec.normalize()
	r := newRegion(spec, newQualDict(), "", "")
	for p := len(ops) - 1; p >= 0; p-- {
		for _, c := range ops[p] {
			r.put(key, []Cell{c})
		}
		if p > 0 {
			r.flush()
		}
	}
	requireRegionReads := func(stage string, want *rowData, opts []ReadOpts) {
		t.Helper()
		for oi, o := range opts {
			ref := want.read(o)
			got := r.get(key, o).Cells
			requireSamePairs(t, fmt.Sprintf("%s opts %d get", stage, oi), got, ref)
			buf := &chunkBuf{}
			r.scanChunk(buf, "", 0, o, nil)
			var scanned Cells
			if len(buf.rows) > 0 {
				scanned = buf.rows[0].Cells
			}
			requireSamePairs(t, fmt.Sprintf("%s opts %d scan", stage, oi), scanned, ref)
		}
	}
	requireRegionReads("memstore+files", m, optsList)
	r.flush()
	requireRegionReads("files", m, optsList)
	r.majorCompact()
	compacted := &rowData{cells: append([]Cell(nil), m.cells...)}
	compacted.compact(4)
	requireRegionReads("compacted", compacted, optsList[:1])
	if got, want := r.sizeBytes(), compacted.sizeBytes(key); got != want {
		t.Fatalf("compacted region holds %d KeyValue bytes, the compacted row %d", got, want)
	}
}

// requireSamePairs fails unless two materialized rows are pair-for-pair
// identical.
func requireSamePairs(t *testing.T, where string, got, want Cells) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d (%v vs %v)", where, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].Qualifier != want[i].Qualifier || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("%s: pair %d = %s=%q, want %s=%q", where, i, got[i].Qualifier, got[i].Value, want[i].Qualifier, want[i].Value)
		}
	}
}

// sortedByCellLess reports whether cells are in non-decreasing cellLess
// order (ties allowed: merges keep same-coordinate duplicates adjacent).
func sortedByCellLess(cells []Cell) bool {
	for i := 1; i < len(cells); i++ {
		if cellLess(cells[i], cells[i-1]) {
			return false
		}
	}
	return true
}

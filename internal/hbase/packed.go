package hbase

import (
	"encoding/binary"
	"math/bits"
	"strings"
	"sync"
	"sync/atomic"
)

// Store-file rows are packed: every immutable row (the output of BulkLoad, a
// memstore flush, a split or a major compaction) is one pointer-free []byte
// instead of a []Cell whose every element carries a qualifier string header
// and a value slice of its own. Per cell, in the rowData sort order, the
// blob holds
//
//	uvarint  qualifier id (the table's qualDict)
//	byte     cell type; the high bit marks a nil value
//	varint   timestamp
//	uvarint  value length
//	         value bytes
//
// The garbage collector never scans the blob, and a row costs one allocation
// however many cells it holds — HBase's HFile data blocks make the same
// trade (§II-C). Only the memstore and a transaction's pending overlay keep
// the mutable []Cell form, because those are the only places cells are
// edited. Readers decode a packed row into a reusable []Cell scratch and run
// the one tombstone/version/visibility implementation (rowData.readInto,
// mergeCellsInto, rowData.compact) over it; a decoded Cell's Value is a
// capacity-clipped window into the blob, which is safe because store values
// are immutable by the Cells contract.
//
// Simulated charges and KVSize accounting see the decoded cells, so they
// are independent of the representation.

// nilValueFlag marks a cell stored with a nil (not merely empty) value, so
// a decoded cell is indistinguishable from the one that was packed.
const nilValueFlag = 0x80

// qualDict is a table's append-only qualifier dictionary. An id, once
// assigned, names the same qualifier forever, so a packed row stays valid
// across flush, split and compaction and can be carried over by pointer.
//
// Packers assign ids under mu. Readers take the published name slice
// without locking: a row's ids are published before the row is installed
// under its region's lock, so any reader that can see the row sees its
// names.
type qualDict struct {
	mu    sync.Mutex
	ids   map[string]uint64
	names atomic.Pointer[[]string]
}

func newQualDict() *qualDict {
	return &qualDict{ids: make(map[string]uint64)}
}

// load returns the current id → qualifier table.
func (d *qualDict) load() []string {
	if p := d.names.Load(); p != nil {
		return *p
	}
	return nil
}

// resolve appends the id of every cell's qualifier to ids, assigning ids
// to qualifiers seen for the first time.
func (d *qualDict) resolve(ids []uint64, cells []Cell) []uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range cells {
		q := cells[i].Qualifier
		if i > 0 && q == cells[i-1].Qualifier {
			ids = append(ids, ids[len(ids)-1]) // versions of one qualifier
			continue
		}
		id, ok := d.ids[q]
		if !ok {
			// Clone so the dictionary never pins whatever larger string
			// the qualifier was sliced from.
			q = strings.Clone(q)
			names := append(d.load(), q)
			id = uint64(len(names) - 1)
			d.ids[q] = id
			d.names.Store(&names)
		}
		ids = append(ids, id)
	}
	return ids
}

// rowPacker packs cell lists into store-file rows against one table's
// dictionary, reusing its id scratch across rows. It is not safe for
// concurrent use.
type rowPacker struct {
	dict *qualDict
	ids  []uint64
}

// pack encodes cells (already in rowData order) as one exactly-sized blob.
// Cells with a zero timestamp are stamped ts.
func (p *rowPacker) pack(cells []Cell, ts int64) []byte {
	p.ids = p.dict.resolve(p.ids[:0], cells)
	n := 0
	for i := range cells {
		c := &cells[i]
		n += uvarintLen(p.ids[i]) + 1 + uvarintLen(zigzag(stampOr(c.TS, ts))) +
			uvarintLen(uint64(len(c.Value))) + len(c.Value)
	}
	b := make([]byte, 0, n)
	for i := range cells {
		c := &cells[i]
		b = binary.AppendUvarint(b, p.ids[i])
		typ := byte(c.Type)
		if c.Value == nil {
			typ |= nilValueFlag
		}
		b = append(b, typ)
		b = binary.AppendVarint(b, stampOr(c.TS, ts))
		b = binary.AppendUvarint(b, uint64(len(c.Value)))
		b = append(b, c.Value...)
	}
	return b
}

func stampOr(cellTS, ts int64) int64 {
	if cellTS == 0 {
		return ts
	}
	return cellTS
}

// decodeRow replaces dst's contents with the cells of a packed row. Values
// are capacity-clipped windows into p; qualifiers are the dictionary's
// strings.
func decodeRow(dst []Cell, p []byte, names []string) []Cell {
	dst = dst[:0]
	for i := 0; i < len(p); {
		var qid, vlen uint64
		var ts int64
		qid, i = uvarintAt(p, i)
		typ := p[i]
		i++
		ts, i = varintAt(p, i)
		vlen, i = uvarintAt(p, i)
		end := i + int(vlen)
		var v []byte
		if typ&nilValueFlag == 0 {
			v = p[i:end:end]
		}
		i = end
		dst = append(dst, Cell{Qualifier: names[qid], Value: v, TS: ts, Type: CellType(typ &^ nilValueFlag)})
	}
	return dst
}

// uvarintAt decodes the uvarint at p[i:], returning it and the offset just
// past it. Blobs are only ever written by pack, so the encoding is trusted.
func uvarintAt(p []byte, i int) (uint64, int) {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		b := p[i]
		i++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, i
		}
	}
}

func varintAt(p []byte, i int) (int64, int) {
	u, i := uvarintAt(p, i)
	return int64(u>>1) ^ -int64(u&1), i
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// directPackable reports whether a bulk-loaded row can be packed as given:
// only unstamped puts in strictly ascending qualifier order, which is
// exactly the cell list rowData.apply would build from it.
func directPackable(cells []Cell) bool {
	for i := range cells {
		if cells[i].Type != TypePut || cells[i].TS != 0 {
			return false
		}
		if i > 0 && cells[i-1].Qualifier >= cells[i].Qualifier {
			return false
		}
	}
	return true
}

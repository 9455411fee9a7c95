package hbase

import (
	"sort"
	"sync"
)

// mergeSource is one sorted (key, *rowData) stream feeding a rowMerger:
// either a region's memstore or one immutable store file. rank orders
// sources on key ties — memstore first, then store files newest-first — so
// a merged row's parts keep the same precedence the write path established.
type mergeSource struct {
	rank int
	key  string // current key; valid while the source is on the heap
	pos  int
	rows []hrow              // store-file source (nil for a memstore source)
	keys []string            // memstore key list
	mem  map[string]*rowData // memstore rows
}

// advance moves to the next row, reporting false when the source is drained.
func (s *mergeSource) advance() bool {
	s.pos++
	if s.rows != nil {
		if s.pos >= len(s.rows) {
			return false
		}
		s.key = s.rows[s.pos].key
		return true
	}
	if s.pos >= len(s.keys) {
		return false
	}
	s.key = s.keys[s.pos]
	return true
}

func (s *mergeSource) left() int {
	if s.rows != nil {
		return len(s.rows) - s.pos
	}
	return len(s.keys) - s.pos
}

// rowMerger streams (key, parts) pairs in ascending key order from any
// number of sorted sources via a binary min-heap keyed on each source's
// current row key. It replaces the O(sources) linear min-search per row the
// scan and compaction paths used to do with O(log sources) sift operations.
//
// Mergers are pooled: every scan chunk and every compaction fold used to
// allocate a fresh heap, source set and parts scratch, which made the merger
// the read path's second allocation hot spot after row materialization.
// newRowMerger draws from the package pool and release returns the merger;
// the heap, the source backing array, the parts scratch, the per-file decode
// scratch and the multi-part cell scratch all keep their capacity across
// folds.
type rowMerger struct {
	heap    []*mergeSource
	parts   []*rowData    // scratch, reused across next calls
	packed  [][]byte      // packed form of each store-file part (nil for the memstore)
	srcs    []mergeSource // backing storage for heap entries, reused across folds
	dec     []rowData     // per-file decode scratch, indexed by file
	names   []string      // the table's qualifier dictionary
	scratch rowData       // reusable output row for multi-part cell merges
}

var mergerPool = sync.Pool{New: func() any { return new(rowMerger) }}

// newRowMerger positions every non-empty source at the first key >= start.
// mem may be nil (compaction merges store files only); names is the table's
// qualifier dictionary. The merger comes from the package pool; callers must
// release() it when the fold is done.
func newRowMerger(mem *memStore, files []*hfile, names []string, start string) *rowMerger {
	m := mergerPool.Get().(*rowMerger)
	m.names = names
	m.reserve(len(files))
	// Reserve the source backing array up front: the heap holds pointers
	// into it, so it must never reallocate while sources are being added.
	if need := len(files) + 1; cap(m.srcs) < need {
		m.srcs = make([]mergeSource, 0, need)
	}
	if cap(m.heap) < len(files)+1 {
		m.heap = make([]*mergeSource, 0, len(files)+1)
	}
	if mem != nil && mem.len() > 0 {
		keys := mem.sortedKeys()
		if i := sort.SearchStrings(keys, start); i < len(keys) {
			m.srcs = append(m.srcs, mergeSource{key: keys[i], pos: i, keys: keys, mem: mem.rows})
			m.heap = append(m.heap, &m.srcs[len(m.srcs)-1])
		}
	}
	for fi, f := range files {
		if i := f.seek(start); i < len(f.rows) {
			m.srcs = append(m.srcs, mergeSource{rank: fi + 1, key: f.rows[i].key, pos: i, rows: f.rows})
			m.heap = append(m.heap, &m.srcs[len(m.srcs)-1])
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return m
}

// reserve sizes the decode scratch for files store files. Parts point into
// it, so it must not reallocate while a row is being assembled.
func (m *rowMerger) reserve(files int) {
	if len(m.dec) < files {
		m.dec = append(m.dec, make([]rowData, files-len(m.dec))...)
	}
}

// decode unpacks file i's packed row into that file's scratch row and
// records the packed form alongside, for compaction to reuse. The row is
// valid until the next decode for the same file or release.
func (m *rowMerger) decode(i int, p []byte) *rowData {
	rd := &m.dec[i]
	rd.cells = decodeRow(rd.cells, p, m.names)
	m.packed = append(m.packed, p)
	return rd
}

// release returns the merger to the package pool for the next chunk or
// compaction fold. Every reference into region data (memstore maps, store
// file rows, part rowDatas, packed rows, the dictionary) is dropped first
// so an idle pooled merger never pins a store. The decoded and scratch rows'
// cells are NOT cleared — rows handed out via decode and foldParts are dead
// by release time (scanChunk and point reads have copied the visible pairs
// out; compaction has re-packed or carried over the packed row), and keeping
// the capacity is the point of pooling.
func (m *rowMerger) release() {
	clear(m.srcs[:cap(m.srcs)])
	m.srcs = m.srcs[:0]
	clear(m.heap[:cap(m.heap)])
	m.heap = m.heap[:0]
	clear(m.parts[:cap(m.parts)])
	m.parts = m.parts[:0]
	clear(m.packed[:cap(m.packed)])
	m.packed = m.packed[:0]
	m.names = nil
	mergerPool.Put(m)
}

// foldParts merges a multi-part row into the merger's reusable scratch row.
// The returned row is valid only until the next foldParts or release call.
func (m *rowMerger) foldParts(parts []*rowData) *rowData {
	m.scratch.cells = mergeCellsInto(m.scratch.cells, parts)
	return &m.scratch
}

// remaining upper-bounds the number of distinct keys left (sources may share
// keys), which is what result-buffer sizing needs.
func (m *rowMerger) remaining() int {
	n := 0
	for _, s := range m.heap {
		n += s.left()
	}
	return n
}

// next pops the smallest key and every source part carrying it, in rank
// order. Store-file parts are decoded into the merger's per-file scratch,
// and m.packed holds each part's packed form (nil for the memstore part).
// The returned parts, their cells and m.packed are reused by the following
// next call.
func (m *rowMerger) next() (key string, parts []*rowData, ok bool) {
	if len(m.heap) == 0 {
		return "", nil, false
	}
	key = m.heap[0].key
	m.parts = m.parts[:0]
	m.packed = m.packed[:0]
	for len(m.heap) > 0 && m.heap[0].key == key {
		src := m.heap[0]
		if src.rows != nil {
			m.parts = append(m.parts, m.decode(src.rank-1, src.rows[src.pos].packed))
		} else {
			m.parts = append(m.parts, src.mem[src.key])
			m.packed = append(m.packed, nil)
		}
		if src.advance() {
			m.siftDown(0)
		} else {
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
			m.siftDown(0)
		}
	}
	return key, m.parts, true
}

func (m *rowMerger) less(i, j int) bool {
	a, b := m.heap[i], m.heap[j]
	if a.key != b.key {
		return a.key < b.key
	}
	return a.rank < b.rank
}

func (m *rowMerger) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(m.heap) && m.less(l, small) {
			small = l
		}
		if r < len(m.heap) && m.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		m.heap[i], m.heap[small] = m.heap[small], m.heap[i]
		i = small
	}
}

// mergeCellsInto merges the sorted cell lists of parts into dst, reusing
// dst's capacity. The merge is stable across parts — on coordinate ties the
// earlier (higher-precedence) part wins — unlike the unstable sort the old
// merged() relied on.
func mergeCellsInto(dst []Cell, parts []*rowData) []Cell {
	total := 0
	for _, p := range parts {
		total += len(p.cells)
	}
	if cap(dst) < total {
		dst = make([]Cell, 0, total)
	} else {
		dst = dst[:0]
	}
	switch len(parts) {
	case 0:
		return dst
	case 1:
		return append(dst, parts[0].cells...)
	case 2:
		a, b := parts[0].cells, parts[1].cells
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			if cellLess(b[j], a[i]) {
				dst = append(dst, b[j])
				j++
			} else {
				dst = append(dst, a[i])
				i++
			}
		}
		dst = append(dst, a[i:]...)
		return append(dst, b[j:]...)
	default:
		// Store-file fan-in per row is small; a linear pick beats heap
		// overhead at this width.
		idx := make([]int, len(parts))
		for {
			min := -1
			for pi, p := range parts {
				if idx[pi] >= len(p.cells) {
					continue
				}
				if min < 0 || cellLess(p.cells[idx[pi]], parts[min].cells[idx[min]]) {
					min = pi
				}
			}
			if min < 0 {
				return dst
			}
			dst = append(dst, parts[min].cells[idx[min]])
			idx[min]++
		}
	}
}

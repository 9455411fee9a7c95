package hbase

import (
	"fmt"
	"testing"

	"synergy/internal/sim"
)

// BenchmarkScanMultiRegion compares the sequential and scatter-gather read
// paths over an 8-region table, reporting both wall-clock time and the
// deterministic simulated response time (sim-ms/op). The simulated cost
// shows the fork/join gain on any machine; the wall-clock gain additionally
// needs GOMAXPROCS >= the region count, since scatter-gather workers are
// CPU-bound (single-core runners serialize them).
func BenchmarkScanMultiRegion(b *testing.B) {
	const regions, rows = 8, 64_000
	_, c := buildScanFixture(b, rows, regions)
	for _, mode := range []struct {
		name       string
		sequential bool
	}{
		{"sequential", true},
		{"parallel", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var simTotal sim.Micros
			for i := 0; i < b.N; i++ {
				ctx := sim.NewCtx()
				sc, err := c.Scan(ctx, "t", ScanSpec{Sequential: mode.sequential})
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					if _, ok := sc.Next(ctx); !ok {
						break
					}
					n++
				}
				if n == 0 {
					b.Fatal("scan returned no rows")
				}
				simTotal += ctx.Elapsed()
			}
			b.ReportMetric(simTotal.Milliseconds()/float64(b.N), "sim-ms/op")
		})
	}
}

// BenchmarkMajorCompact exercises the heap-based k-way store-file merge.
// The store files are immutable and shared across iterations; each
// iteration compacts a fresh Region wrapper around them.
func BenchmarkMajorCompact(b *testing.B) {
	const files, rowsPerFile = 8, 4_000
	spec := &TableSpec{Name: "t", MaxVersions: 1, SplitThreshold: 1 << 30}
	built := newRegion(spec, newQualDict(), "", "")
	for f := 0; f < files; f++ {
		for i := 0; i < rowsPerFile; i++ {
			// Staggered keys so files interleave and most rows need a
			// multi-way cell merge.
			key := scanKey(i*2 + f%2)
			built.put(key, []Cell{put("v", fmt.Sprintf("f%d-%d", f, i), int64(f*rowsPerFile+i+1))})
		}
		built.flush()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := newRegion(spec, built.dict, "", "")
		r.files = append([]*hfile(nil), built.files...)
		r.majorCompact()
	}
}

// BenchmarkRowDataRead measures the per-row materialization cost that every
// scanned row pays: tombstone resolution, version filtering and result-map
// construction.
func BenchmarkRowDataRead(b *testing.B) {
	rd := &rowData{}
	for q := 0; q < 8; q++ {
		for v := 0; v < 3; v++ {
			rd.apply(put(fmt.Sprintf("q%02d", q), fmt.Sprintf("val-%d-%d", q, v), int64(v+1)), 3)
		}
	}
	rd.apply(Cell{Qualifier: "q03", TS: 2, Type: TypeDeleteCol}, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := rd.read(ReadOpts{}); len(out) == 0 {
			b.Fatal("read returned nothing")
		}
	}
}

// BenchmarkScanChunkMerge isolates the server-side chunk path: heap merge
// across store files plus per-row reads, no client or RPC accounting.
func BenchmarkScanChunkMerge(b *testing.B) {
	const rows = 8_000
	spec := &TableSpec{Name: "t", MaxVersions: 1, SplitThreshold: 1 << 30}
	r := newRegion(spec, newQualDict(), "", "")
	for f := 0; f < 4; f++ {
		for i := f; i < rows; i += 4 {
			r.put(scanKey(i), []Cell{put("v", fmt.Sprint(i), int64(i+1))})
		}
		r.flush()
	}
	buf := &chunkBuf{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.reset()
		if _, next := r.scanChunk(buf, "", 0, ReadOpts{}, nil); next != "" {
			b.Fatalf("next = %q, want exhausted", next)
		}
		if len(buf.rows) != rows {
			b.Fatalf("rows = %d, want %d", len(buf.rows), rows)
		}
	}
}

package synergy_test

import (
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"synergy/internal/synergy"
	"synergy/internal/tpcw"
)

// TestStoreFootprint pins the in-memory cost of the store: a served TPC-W
// deployment (500 customers, Synergy's views and indexes, major-compacted)
// must hold its data in at most 0.6 bytes of live Go heap per logical
// KeyValue byte (HCluster.TotalBytes). Store-file rows are packed,
// pointer-free blobs; with one []Cell per row and one allocation per value
// the same deployment took 1.37 heap bytes per KeyValue byte.
//
//	go test -run TestStoreFootprint -v ./internal/synergy/
func TestStoreFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 500-customer TPC-W deployment")
	}
	before := liveHeap()
	data := tpcw.Generate(500, 1)
	sys, err := synergy.New(tpcw.Schema(), tpcw.Roots(), tpcw.WorkloadSQL(),
		synergy.Config{Concurrency: synergy.Hierarchical, BaseIndexes: tpcw.BaseIndexes()})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(data.Tables))
	for name := range data.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := sys.LoadBase(name, data.Tables[name]); err != nil {
			t.Fatalf("loading %s: %v", name, err)
		}
	}
	if err := sys.BuildViews(); err != nil {
		t.Fatal(err)
	}

	heap := liveHeap() - before
	kv := sys.Store.TotalBytes()
	ratio := float64(heap) / float64(kv)
	t.Logf("store: %.1f MB of KeyValue bytes in %.1f MiB of live heap (%.2f heap bytes per KeyValue byte)",
		float64(kv)/1e6, float64(heap)/(1<<20), ratio)
	if ratio > 0.6 {
		t.Fatalf("live heap is %.2f bytes per KeyValue byte, want at most 0.6", ratio)
	}
	// Hand the deployment's memory back now: left to the background
	// scavenger and a heap goal sized for it, it would slow the
	// timing-sensitive concurrency tests that run after this one.
	debug.FreeOSMemory()
}

// liveHeap reports the heap bytes still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

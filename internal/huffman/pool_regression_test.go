package huffman

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestReleaseReturnsCodeWindow: a released table's code window (~0.5–1 MiB
// for escape-heavy alphabets) must cycle back through tableCodesPool, so
// the compressor, which builds and releases one table per field, does not
// produce it as garbage on every call.
//
// The check drains the pool, builds and releases tables, and asserts a
// non-empty window came back. sync.Pool is only deterministic on a single
// pinned goroutine with the GC off, so the test locks the thread and
// disables collection for its duration.
func TestReleaseReturnsCodeWindow(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	// Drain windows left behind by other tests until the pool hands out
	// fresh (zero-cap) entries.
	for {
		p := tableCodesPool.Get().(*[]Code)
		if cap(*p) == 0 {
			break
		}
	}

	// The race detector makes sync.Pool drop a quarter of all Puts, so
	// release enough tables that one surviving is a certainty.
	freqs := make([]uint64, 256)
	for i := range freqs {
		freqs[i] = uint64(i + 1)
	}
	tables := make([]*Table, 16)
	for i := range tables {
		tbl, err := BuildTable(freqs)
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = tbl
	}
	for _, tbl := range tables {
		tbl.Release()
	}

	p := tableCodesPool.Get().(*[]Code)
	if cap(*p) == 0 {
		t.Fatal("Release did not return the table's code window to the pool")
	}
}

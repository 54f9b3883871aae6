package sz

import (
	"sync"

	"ocelot/internal/ans"
	"ocelot/internal/huffman"
)

// arena is the pooled per-run scratch of the compression hot path: the
// compact quantization-code stream, the entropy coder's tables, the
// reconstruction buffer the predictor traversal works in, the literal and
// coefficient accumulators, the interp kernels' scratch, and the coded
// section. A campaign
// compresses thousands of fields with identical shapes; recycling these
// buffers through a sync.Pool turns the steady state from
// O(points) allocations per field into zero, which is where the GC time
// the profiler attributed to Compress/Decompress went.
//
// Zeroing discipline: recon is deliberately NOT cleared on reuse. Every predictor stores recon[i] for a point before any later
// prediction can read index i, and never reads an index it has not yet
// written: Lorenzo guards every neighbor load with coordinate checks,
// regression predicts from fitted coefficients alone, and an interp pass
// only loads lattice points refined at a coarser level or an earlier axis
// pass of the same level (with a boundary fallback to the already-written
// left neighbor) — never a point of the pass itself, which is also what
// lets the kernels in interp.go walk a pass in cache order rather than
// stream order. Compression output therefore cannot depend on recon's
// initial contents — the property TestCompressUnaffectedByDirtyArena pins
// by poisoning pooled buffers with NaN and asserting byte-identical
// streams across every predictor and dimensionality.
type arena struct {
	syms     huffman.SymbolStream
	coder    ans.Coder
	recon    []float64
	literals []float64
	coeffs   []float64
	enc      []byte
	interp   interpScratch
}

var arenaPool = sync.Pool{New: func() interface{} { return &arena{} }}

func getArena() *arena { return arenaPool.Get().(*arena) }

// release returns the arena to the pool. Callers must be done with every
// slice handed out by the scratch methods — in particular, Compress copies
// the coded section into the marshaled stream before releasing.
func (a *arena) release() { arenaPool.Put(a) }

// reconScratch returns a length-n reconstruction buffer. Contents are
// arbitrary — see the type comment for why the traversals never observe
// them.
func (a *arena) reconScratch(n int) []float64 {
	if cap(a.recon) < n {
		a.recon = make([]float64, n)
	}
	return a.recon[:n]
}

// symsScratch returns the arena's symbol stream, reset, with the packed
// lane pre-sized for hint symbols.
func (a *arena) symsScratch(hint int) *huffman.SymbolStream {
	a.syms.Reset()
	if cap(a.syms.Packed) < hint {
		a.syms.Packed = make([]uint16, 0, hint)
	}
	return &a.syms
}

// literalsScratch returns the emptied literal accumulator; the caller
// recaptures the appended slice via keepLiterals so growth is retained.
func (a *arena) literalsScratch() []float64 { return a.literals[:0] }

// coeffsScratch returns the emptied coefficient accumulator.
func (a *arena) coeffsScratch() []float64 { return a.coeffs[:0] }

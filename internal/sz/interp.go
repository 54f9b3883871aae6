package sz

import (
	"math"
	"slices"

	"ocelot/internal/huffman"
	"ocelot/internal/quant"
	"ocelot/internal/simd"
)

// The SZ3-interp multilevel traversal. Values on a coarse lattice are
// refined level by level: at the level with spacing `stride`, one pass per
// axis d predicts the midpoints along d (coordinate ≡ h = stride/2 mod
// stride) by 1-D interpolation from already-reconstructed lattice
// neighbours at distance h and 3h along d. The pass over axis d covers the
// points p with p[d] ≡ h (mod stride), p[a<d] ≡ 0 (mod h) and p[a>d] ≡ 0
// (mod stride), so every point is visited exactly once: a point whose
// smallest 2-adic coordinate valuation is v belongs to level h = 2^v, on
// the last axis that attains v.
//
// Two properties of that scheme carry the kernels below.
//
// Pass independence. A point of the (stride, d) pass reads only
// neighbours whose coordinate along d is a multiple of stride — points of
// a coarser level or of an earlier axis pass of this level — never a point
// of its own pass. The points of one pass can therefore be computed in any
// order without changing a single prediction.
//
// Stream order. The format fixes where each point's code sits in the
// symbol stream: passes in (level, axis) order after the seed point, and
// inside a pass axis d fastest, then the remaining axes from last to first.
// With cnt[a] lattice points along axis a in the pass and k[a] a point's
// ordinal along it, that is
//
//	pos = base + Σ_a k[a]·w[a],  w[d] = 1,  w[a≠d] = cnt[d] · Π cnt[b] over b > a, b ≠ d
//
// where base is the number of points of all earlier passes, plus the seed.
//
// The kernels use the first property to walk every pass with the last
// axis innermost — along rows of the array, whatever d is — and to
// interleave the passes of a level slab by slab, and the second to store
// each code where the format wants it. The literal and wide-symbol
// side lanes are ordered by stream position too, so encode collects them
// with their positions and sorts, and decode finds an escape's literal by
// the rank of its position among the escapes.

// interpTraverse walks every pass after the seed point and hands the
// caller its points a run at a time: a piece of one row along the last
// axis, predicted with one stencil. recon must hold the reconstruction of
// every run already handed out. Encode and decode share this function, and
// through simd's kernels and simd.Predict the exact arithmetic of every
// prediction.
//
// Within a level the passes are interleaved slab by slab along the first
// axis: a pass over a later axis reads nothing outside its own slab, and
// the pass over the first axis reads other slabs only at points of coarser
// levels, so each slab can go through all of the level's passes while it
// is still in cache instead of the whole field being swept once per axis.
func interpTraverse(dims []int, cubic bool, run func(r simd.Run)) {
	// Axes sit right-aligned in four slots so one loop nest serves every
	// rank; the absent leading axes have extent 1 and stride 0.
	const last = 3
	var dim, axStride [4]int
	first := 4 - len(dims)
	maxDim, s := 0, 1
	for a := 0; a < first; a++ {
		dim[a] = 1
	}
	for a := len(dims) - 1; a >= 0; a-- {
		dim[first+a], axStride[first+a] = dims[a], s
		s *= dims[a]
		if dims[a] > maxDim {
			maxDim = dims[a]
		}
	}
	top := 1
	for top < maxDim {
		top <<= 1
	}

	// pass is the geometry of one (level, axis) pass: lattice points,
	// flat-index step and stream-position weight per axis, the position of
	// its first point, the neighbour distance along its axis, and how many
	// of its points along that axis have a +h and a +3h neighbour.
	type pass struct {
		cnt, istep, w      [4]int
		base, near         int
		nRight, nFar, size int
	}

	// The seed, the origin, sits at stream position 0.
	base := 1
	for stride := top; stride >= 2; stride >>= 1 {
		h := stride / 2
		var passes [4]pass
		for d := first; d < 4; d++ {
			if h >= dim[d] {
				continue
			}
			ps := &passes[d]
			for a := range ps.cnt {
				step := stride
				if a < d {
					step = h
				}
				ps.cnt[a] = (dim[a] + step - 1) / step
				ps.istep[a] = step * axStride[a]
			}
			ps.cnt[d] = (dim[d] - h + stride - 1) / stride
			ps.w[d] = 1
			ps.size = ps.cnt[d]
			for a := last; a >= 0; a-- {
				if a != d {
					ps.w[a] = ps.size
					ps.size *= ps.cnt[a]
				}
			}
			ps.base, ps.near = base, h*axStride[d]
			ps.nRight = reach(dim[d], h, h)
			if cubic {
				ps.nFar = reach(dim[d], h, 3*h)
			}
			base += ps.size
		}
		// A 1-D field has one pass per level and nothing to interleave.
		slabs := 1
		if first < last {
			slabs = (dim[first] + h - 1) / h
		}
		for slab := 0; slab < slabs; slab++ {
			for d := first; d < 4; d++ {
				ps := &passes[d]
				if ps.size == 0 {
					continue
				}
				// The slab's ordinal along the first axis in this pass:
				// every slab for a later axis, the odd ones for the
				// first axis itself.
				lo, hi := [3]int{}, [3]int{ps.cnt[0], ps.cnt[1], ps.cnt[2]}
				if first < last {
					k := slab
					if d == first {
						if slab%2 == 0 {
							continue
						}
						k = slab / 2
					}
					lo[first], hi[first] = k, k+1
				}
				// emit hands on points [j0, j1) of the row starting at
				// (idx, pos), with stencil st.
				emit := func(idx, pos, j0, j1 int, st simd.Stencil) {
					if j0 < j1 {
						run(simd.Run{I: idx + j0*stride, Stride: stride, Near: ps.near, St: st,
							Pos: pos + j0*ps.w[last], PStep: ps.w[last], N: j1 - j0})
					}
				}
				var k [3]int
				for k[0] = lo[0]; k[0] < hi[0]; k[0]++ {
					for k[1] = lo[1]; k[1] < hi[1]; k[1]++ {
						for k[2] = lo[2]; k[2] < hi[2]; k[2]++ {
							idx := ps.near + k[0]*ps.istep[0] + k[1]*ps.istep[1] + k[2]*ps.istep[2]
							pos := ps.base + k[0]*ps.w[0] + k[1]*ps.w[1] + k[2]*ps.w[2]
							if d == last {
								// Along the pass axis itself the stencil
								// changes, but only at the row's ends:
								// point 0 has no −3h neighbour, and the
								// points whose +3h or +h neighbour falls
								// outside the extent form a suffix.
								lin := 0
								if ps.nFar > 1 {
									emit(idx, pos, 0, 1, simd.Linear)
									emit(idx, pos, 1, ps.nFar, simd.Cubic)
									lin = ps.nFar
								}
								emit(idx, pos, lin, ps.nRight, simd.Linear)
								emit(idx, pos, ps.nRight, ps.cnt[last], simd.Left)
								continue
							}
							// The whole row shares one coordinate along d,
							// hence one stencil.
							st := simd.Left
							if k[d] < ps.nRight {
								st = simd.Linear
								if k[d] >= 1 && k[d] < ps.nFar {
									st = simd.Cubic
								}
							}
							emit(idx, pos, 0, ps.cnt[last], st)
						}
					}
				}
			}
		}
	}
}

// reach counts the pass points x = h, 3h, 5h, … of an extent-dim axis
// with x + r < dim.
func reach(dim, h, r int) int {
	if dim <= h+r {
		return 0
	}
	return (dim - h - r + 2*h - 1) / (2 * h)
}

// sideEntry is one symbol of a stream-ordered side lane — a literal (its
// float64 bits) or a wide code — captured with its stream position while
// the encoder visits points out of stream order.
type sideEntry struct {
	pos  int
	bits uint64
}

// byPos returns entries sorted by stream position. Only a 1-D field's
// arrive already sorted; anything else interleaves passes.
func byPos(entries []sideEntry) []sideEntry {
	cmp := func(a, b sideEntry) int { return a.pos - b.pos }
	if !slices.IsSortedFunc(entries, cmp) {
		slices.SortFunc(entries, cmp)
	}
	return entries
}

// interpEncode runs the encode kernels over c.data: codes into c.syms by
// stream position, the reconstruction into c.recon, and the two side
// lanes in stream order.
func interpEncode(c *traversal, dims []int, mode InterpMode) {
	n := len(c.data)
	if cap(c.syms.Packed) < n {
		c.syms.Packed = make([]uint16, n)
	}
	c.syms.Packed = c.syms.Packed[:n]
	sc := c.sc
	sc.lits, sc.wides = sc.lits[:0], sc.wides[:0]
	k := simd.NewInterp(c.syms.Packed, c.recon, c.data, c.q.ErrorBound(), c.q.Radius())
	c.encodeAt(0, 0, 0)
	interpTraverse(dims, mode == InterpCubic, func(r simd.Run) { c.encodeRun(&k, r) })
	for _, e := range byPos(sc.lits) {
		c.literals = append(c.literals, math.Float64frombits(e.bits))
	}
	for _, e := range byPos(sc.wides) {
		c.syms.Wide = append(c.syms.Wide, int32(e.bits))
	}
}

// encodeRun codes one run: k takes the plain codes, and encodeAt each
// point it stops at — an escape or a wide code — and the points of a
// run too short for a group of four.
func (c *traversal) encodeRun(k *simd.Interp, r simd.Run) {
	for r.N > 0 {
		if r.N >= 4 {
			if r = r.Skip(k.Encode(r)); r.N == 0 {
				return
			}
		}
		c.encodeAt(simd.Predict(c.recon, r.I, r.Near, r.St), r.I, r.Pos)
		r = r.Skip(1)
	}
}

// encodeAt quantizes the point at idx against pred with quant.Quantize
// and stores its code at stream position pos, an escape's literal and a
// wide code in their side lanes.
func (c *traversal) encodeAt(pred float64, idx, pos int) {
	v, sc := c.data[idx], c.sc
	code, rec, ok := c.q.Quantize(v, pred)
	switch {
	case !ok:
		c.syms.Packed[pos] = quant.EscapeCode
		sc.lits = append(sc.lits, sideEntry{pos, math.Float64bits(v)})
	case code >= huffman.WideEscape:
		c.syms.Packed[pos] = huffman.WideEscape
		sc.wides = append(sc.wides, sideEntry{pos, uint64(code)})
	default:
		c.syms.Packed[pos] = uint16(code)
	}
	c.recon[idx] = rec
}

// posIndex ranks stream positions within a sorted list of marked ones: the
// positions of the escape codes, whose rank is the index of their literal,
// or of the wide markers. A run in stream order hits the cursor after its
// first lookup; a run of a reordered pass binary-searches every time.
type posIndex struct {
	pos  []int
	next int
}

// mark rebuilds the index over the positions of marker in packed.
func (x *posIndex) mark(packed []uint16, marker uint16) {
	x.pos, x.next = x.pos[:0], 0
	for i, p := range packed {
		if p == marker {
			x.pos = append(x.pos, i)
		}
	}
}

// rank returns the index of p, which must be a marked position.
func (x *posIndex) rank(p int) int {
	if x.next >= len(x.pos) || x.pos[x.next] != p {
		x.next, _ = slices.BinarySearch(x.pos, p)
	}
	x.next++
	return x.next - 1
}

// interpDecode rebuilds c.recon from c.syms and c.literals. The caller has
// checked that the stream holds one code per point and one literal per
// escape code, and both entropy decoders pair every wide marker with a
// wide symbol. Ranks are taken among the positions actually marked, so no
// arrangement of codes can index past either lane.
func interpDecode(c *traversal, dims []int, mode InterpMode) {
	sc := c.sc
	if len(c.literals) > 0 {
		sc.esc.mark(c.syms.Packed, quant.EscapeCode)
	}
	if len(c.syms.Wide) > 0 {
		sc.wide.mark(c.syms.Packed, huffman.WideEscape)
	}
	k := simd.NewInterp(c.syms.Packed, c.recon, nil, c.q.ErrorBound(), c.q.Radius())
	c.decodeAt(0, 0, 0)
	interpTraverse(dims, mode == InterpCubic, func(r simd.Run) { c.decodeRun(&k, r) })
}

// decodeRun recovers one run: k takes the plain codes, and decodeAt each
// point it stops at — an escape or a wide marker — and the
// points of a run too short for a group of four.
func (c *traversal) decodeRun(k *simd.Interp, r simd.Run) {
	for r.N > 0 {
		if r.N >= 4 {
			if r = r.Skip(k.Decode(r)); r.N == 0 {
				return
			}
		}
		c.decodeAt(simd.Predict(c.recon, r.I, r.Near, r.St), r.I, r.Pos)
		r = r.Skip(1)
	}
}

// decodeAt recovers the point at idx from pred and the code at stream
// position pos: an escape from its literal, a wide marker from its wide
// code, any other code as quant.Recover does.
func (c *traversal) decodeAt(pred float64, idx, pos int) {
	sc := c.sc
	switch code := int(c.syms.Packed[pos]); code {
	case quant.EscapeCode:
		c.recon[idx] = c.literals[sc.esc.rank(pos)]
	case huffman.WideEscape:
		c.recon[idx] = c.q.Recover(pred, int(c.syms.Wide[sc.wide.rank(pos)]))
	default:
		c.recon[idx] = c.q.Recover(pred, code)
	}
}

// interpScratch is what the interp kernels need beyond the traversal
// state, kept in the arena so steady-state runs allocate none of it: the
// side-lane entries encode collects with their stream positions, and the
// escape / wide-marker positions decode ranks against.
type interpScratch struct {
	lits, wides []sideEntry
	esc, wide   posIndex
}

// Package a is alloccap golden data: each function is one positive or
// negative case, with // want comments marking expected diagnostics.
package a

import "encoding/binary"

// --- positive cases: the minimized PR 4 crasher shapes ---

// CrasherHeaderCount is the original fuzz crasher shape: a 16-byte stream
// whose header claims terabytes of symbols.
func CrasherHeaderCount(stream []byte) []uint16 {
	n := int(binary.LittleEndian.Uint64(stream))
	out := make([]uint16, n) // want `make size 'n' derives from stream-parsed bytes`
	return out
}

// CrasherCapReuse hides the unbounded make behind a capacity-reuse check:
// cap(buf) < n does not bound n, it is the branch that allocates.
func CrasherCapReuse(stream []byte, buf []uint16) []uint16 {
	n := int(binary.LittleEndian.Uint64(stream))
	if cap(buf) < n {
		buf = make([]uint16, n) // want `make size 'n' derives from stream-parsed bytes`
	}
	return buf[:n]
}

// CrasherAppendLoop grows output until a stream-parsed count is satisfied.
func CrasherAppendLoop(stream []byte) []float64 {
	n := int(binary.LittleEndian.Uint64(stream))
	var out []float64
	for len(out) < n { // want `append loop bounded by a stream-parsed count`
		out = append(out, 0)
	}
	return out
}

// CrasherOverflowGuardOnly checks only the 1<<40 overflow guard, which
// stops integer wrap but still admits terabyte allocations.
func CrasherOverflowGuardOnly(stream []byte) []byte {
	n := int(binary.LittleEndian.Uint64(stream))
	if n > 1<<40 {
		return nil
	}
	return make([]byte, n) // want `make size 'n' derives from stream-parsed bytes`
}

// CrasherWideElemCap caps the count with a constant that is honest for
// bytes but not for its 32-byte entries: 1<<24 of them is half a gigabyte
// (the grouping archive header shape).
func CrasherWideElemCap(stream []byte) []entry {
	n := int(binary.LittleEndian.Uint32(stream))
	if n > 1<<24 {
		return nil
	}
	return make([]entry, 0, n) // want `make size 'n' derives from stream-parsed bytes`
}

type entry struct {
	name         string
	offset, size uint64
}

// CrasherLowerBoundOnly rejects only non-positive counts: past the if the
// count is bounded below, not above.
func CrasherLowerBoundOnly(stream []byte) []byte {
	n := int(binary.LittleEndian.Uint32(stream))
	if n <= 0 {
		return nil
	}
	return make([]byte, n) // want `make size 'n' derives from stream-parsed bytes`
}

// CrasherClosureRead reads the count through a local reader closure, the
// parser idiom sz's inner payload uses.
func CrasherClosureRead(stream []byte) []uint32 {
	off := 0
	readU64 := func() uint64 {
		v := binary.LittleEndian.Uint64(stream[off:])
		off += 8
		return v
	}
	n := int(readU64())
	return make([]uint32, n) // want `make size 'n' derives from stream-parsed bytes`
}

// CrasherDimsProduct multiplies stream-parsed dimensions, the szx header
// shape.
func CrasherDimsProduct(stream []byte) []float64 {
	nd := int(stream[0])
	if nd == 0 || nd > 4 {
		return nil
	}
	dims := make([]int, nd)
	for i := range dims {
		dims[i] = int(binary.LittleEndian.Uint32(stream[1+4*i:]))
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	return make([]float64, n) // want `make size 'n' derives from stream-parsed bytes`
}

// CrasherHelper passes the unchecked count into an unexported helper; the
// allocation inside is still attacker-sized.
func CrasherHelper(stream []byte) []byte {
	size := int(binary.LittleEndian.Uint32(stream))
	return expand(stream[4:], size)
}

func expand(body []byte, n int) []byte {
	out := make([]byte, n) // want `make size 'n' derives from stream-parsed bytes`
	copy(out, body)
	return out
}

// --- negative cases: every sanctioned way to bound an allocation ---

// OKPayloadBound rejects counts the payload cannot back.
func OKPayloadBound(stream []byte) []uint16 {
	n := int(binary.LittleEndian.Uint64(stream))
	if n > len(stream)*8 {
		return nil
	}
	return make([]uint16, n)
}

// OKInBranch allocates only inside the branch where the bound holds.
func OKInBranch(stream []byte) []byte {
	n := int(binary.LittleEndian.Uint32(stream))
	if n < len(stream) {
		return make([]byte, n)
	}
	return nil
}

// OKConstCap rejects counts beyond an honest constant ceiling.
func OKConstCap(stream []byte) [][]byte {
	n := int(binary.LittleEndian.Uint64(stream))
	if n > 1<<20 {
		return nil
	}
	return make([][]byte, 0, n)
}

// OKClamp clamps the pre-allocation instead of rejecting, szx-style.
func OKClamp(stream []byte) []float64 {
	n := int(binary.LittleEndian.Uint64(stream))
	capHint := n
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	out := make([]float64, 0, capHint)
	return out
}

// OKLenSized sizes by the input's actual length — memory truth, no taint.
func OKLenSized(stream []byte) []byte {
	out := make([]byte, len(stream))
	copy(out, stream)
	return out
}

// OKIteratorLoop appends under an honest len bound; the tainted value is
// the advancing cursor, not the loop's upper bound.
func OKIteratorLoop(data []byte) []byte {
	var out []byte
	i := 0
	for i < len(data) {
		step := int(data[i]%7) + 1
		out = append(out, data[i])
		i += step
	}
	return out
}

// OKCheckedHelper sanitizes before handing the count to the helper, so
// the helper's allocation is caller-validated (the lzss pattern).
func OKCheckedHelper(stream []byte) []byte {
	size := int(binary.LittleEndian.Uint32(stream))
	if size > 4096*len(stream) {
		return nil
	}
	return expandOK(stream[4:], size)
}

func expandOK(body []byte, n int) []byte {
	out := make([]byte, n)
	copy(out, body)
	return out
}

// OKMethodLen bounds the count against a container's Len() accessor, the
// sz symbol-stream pattern.
type stream struct{ n int }

func (s *stream) Len() int { return s.n }

func OKMethodLen(payload []byte, s *stream) []float64 {
	n := int(binary.LittleEndian.Uint64(payload))
	if s.Len() != n {
		return nil
	}
	return make([]float64, n)
}

// OKSuppressed carries a reviewed waiver; the directive must silence the
// diagnostic (and only for this analyzer).
func OKSuppressed(stream []byte) []byte {
	n := int(binary.LittleEndian.Uint64(stream))
	//ocelotvet:ok alloccap golden-test waiver: exercised by the suppression test
	return make([]byte, n)
}

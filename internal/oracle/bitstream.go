package oracle

// The bit-granular writer and reader the two byte-compatibility oracles
// are written against: ReferenceEncode/ReferenceDecode (huffman.go) and
// szx's pre-rewrite block kernels (szx/oracle_test.go). Bits are packed
// MSB-first into bytes, the layout the shipping Huffman and szx kernels
// reproduce with their own inline 64-bit accumulators.

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrUnexpectedEOF is returned when a read requests more bits than remain.
var ErrUnexpectedEOF = errors.New("bitstream: unexpected end of stream")

// Writer accumulates bits MSB-first into an internal byte buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  uint64 // bits not yet flushed, left-aligned within nbits
	nbit uint   // number of valid bits in cur (0..63)
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBits appends the low `width` bits of v to the stream, MSB first.
// width must be in [0, 64].
func (w *Writer) WriteBits(v uint64, width uint) {
	if width == 0 {
		return
	}
	if width < 64 {
		v &= (1 << width) - 1
	}
	// Fast path: the whole value fits into the pending word.
	if free := 64 - w.nbit; width <= free {
		w.cur = w.cur<<width | v
		w.nbit += width
		if w.nbit == 64 {
			w.flushWord()
		}
		return
	}
	// Split across the word boundary: top part fills cur, rest seeds it.
	take := 64 - w.nbit
	w.cur = w.cur<<take | v>>(width-take)
	w.nbit = 64
	w.flushWord()
	rem := width - take
	w.cur = v & (1<<rem - 1)
	w.nbit = rem
}

func (w *Writer) flushWord() {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], w.cur)
	w.buf = append(w.buf, b[:]...)
	w.cur = 0
	w.nbit = 0
}

// Bytes finalizes the stream, padding the final partial byte with zero bits,
// and returns the underlying buffer. The Writer may continue to be used; the
// padding bits become part of the stream.
func (w *Writer) Bytes() []byte {
	if w.nbit > 0 {
		pad := (8 - w.nbit%8) % 8
		if pad > 0 {
			w.cur <<= pad
			w.nbit += pad
		}
		for w.nbit > 0 {
			w.buf = append(w.buf, byte(w.cur>>(w.nbit-8)))
			w.nbit -= 8
		}
		w.cur = 0
	}
	return w.buf
}

// Reset clears the writer for reuse, retaining the allocated buffer.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.cur = 0
	w.nbit = 0
}

// Reader consumes bits MSB-first from a byte slice.
//
// Internally it maintains a left-aligned 64-bit accumulator: the next
// unread bit is always the accumulator's MSB, and only the top nacc bits
// are meaningful (the rest are zero). refill loads eight source bytes per
// iteration whenever at least eight bits of accumulator space are free.
type Reader struct {
	buf  []byte
	pos  int    // next source byte to load into acc
	acc  uint64 // unread bits, left-aligned; bits below nacc are zero
	nacc uint   // number of valid bits in acc (0..64)
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// refill tops the accumulator up from the source buffer: a single 64-bit
// load when eight bytes remain, byte-at-a-time near the end of the stream.
func (r *Reader) refill() {
	if r.nacc <= 0 && r.pos+8 <= len(r.buf) {
		// Empty accumulator and a full word available: one load.
		r.acc = binary.BigEndian.Uint64(r.buf[r.pos:])
		r.nacc = 64
		r.pos += 8
		return
	}
	for r.nacc <= 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << (56 - r.nacc)
		r.nacc += 8
		r.pos++
	}
}

// ReadBits reads `width` bits (MSB-first) and returns them right-aligned.
// width must be in [0, 64].
func (r *Reader) ReadBits(width uint) (uint64, error) {
	if width > 64 {
		return 0, fmt.Errorf("bitstream: width %d out of range", width)
	}
	if width <= r.nacc {
		// Fast path: entirely inside the accumulator.
		v := r.acc >> (64 - width)
		r.acc <<= width
		r.nacc -= width
		return v, nil
	}
	var v uint64
	for width > 0 {
		if r.nacc == 0 {
			r.refill()
			if r.nacc == 0 {
				return 0, ErrUnexpectedEOF
			}
		}
		take := width
		if take > r.nacc {
			take = r.nacc
		}
		v = v<<take | r.acc>>(64-take)
		r.acc <<= take
		r.nacc -= take
		width -= take
	}
	return v, nil
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.nacc == 0 {
		r.refill()
		if r.nacc == 0 {
			return 0, ErrUnexpectedEOF
		}
	}
	b := uint(r.acc >> 63)
	r.acc <<= 1
	r.nacc--
	return b, nil
}

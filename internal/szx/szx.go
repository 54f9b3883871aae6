// Package szx implements an SZx-style ultra-fast error-bounded lossy
// compressor (Yu et al., "SZx: an Ultra-fast Error-Bounded Lossy
// Compressor for Scientific Datasets"). Where the SZ3-style pipeline in
// internal/sz spends its time on prediction, Huffman coding, and a
// lossless backend to maximize ratio, szx makes one cheap pass over
// fixed-size blocks of the linearized field:
//
//   - constant blocks (value spread ≤ 2×eb) store a single midpoint;
//   - linear blocks (a first→last ramp predicts every value within eb)
//     store two coefficients;
//   - everything else packs per-value offsets from the block minimum,
//     quantized to the error bound, at the minimum bit width the block
//     needs — no entropy coding, no lossless stage;
//   - blocks with non-finite values or extreme dynamic range escape to
//     verbatim float64 storage, so the bound holds unconditionally.
//
// The result is GB/s-class throughput at a lower compression ratio — the
// other end of the speed/ratio spectrum the codec-aware planner trades
// across: szx wins end-to-end on fast links where compression time
// dominates, sz3 on slow links where every byte moved is expensive.
package szx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"ocelot/internal/codec"
	"ocelot/internal/quant"
	"ocelot/internal/simd"
)

// Name is the codec's registry key.
const Name = "szx"

// Magic identifies an Ocelot-SZX stream ("OCSX", little-endian).
const Magic = 0x5853434F

// streamVersion is bumped on incompatible layout changes.
const streamVersion = 1

// DefaultBlockSize is the number of values per block. 256 keeps block
// headers under 5% of payload even at 1-bit packing while the per-block
// min/max scan stays in cache.
const DefaultBlockSize = 256

// MaxBlockSize bounds the per-block value count on both the compress and
// decompress paths. It caps the worst-case expansion of a decoded stream
// at MaxBlockSize/9 values per input byte, so a crafted header cannot
// turn a kilobyte of input into gigabytes of output.
const MaxBlockSize = 4096

// maxPackedBits caps the per-value bit width of a packed block; a block
// whose offset range needs more than this escapes to raw storage (packing
// 40-bit offsets already beats raw float64 by 37%, and wider offsets mean
// the bound is tiny relative to the block's spread — raw is the honest
// fallback there).
const maxPackedBits = 40

// Block tags, one byte ahead of every block payload.
const (
	tagConstant = 0x00 // one float64 midpoint reconstructs every value
	tagLinear   = 0x01 // float64 intercept + slope ramp
	tagPacked   = 0x02 // float64 base + bit width + packed offsets
	tagRaw      = 0x03 // verbatim float64 values (lossless escape)
)

// ErrCorrupt indicates a malformed szx stream.
var ErrCorrupt = errors.New("szx: corrupt stream")

// header layout: magic u32 | version u8 | blockSize u32 | absEB f64 |
// ndims u8 | dims u64 each.
const headerFixed = 4 + 1 + 4 + 8 + 1

// Compress encodes a row-major field (dims[0] slowest) under the absolute
// error bound absEB with the default block size.
func Compress(data []float64, dims []int, absEB float64) ([]byte, error) {
	return CompressBlocked(data, dims, absEB, DefaultBlockSize)
}

// CompressBlocked is Compress with an explicit block size (values per
// block; ≤ 0 selects DefaultBlockSize).
func CompressBlocked(data []float64, dims []int, absEB float64, blockSize int) ([]byte, error) {
	e := encoderPool.Get().(*encoder)
	defer encoderPool.Put(e)
	stream, err := e.compress(data, dims, absEB, blockSize)
	if err != nil {
		return nil, err
	}
	return bytes.Clone(stream), nil
}

// encoder is the pooled scratch of one compression: buf holds the stream
// under construction, ext and widths the per-block extremes and packed
// widths of a relative-bound compression's first pass, and codes a packed
// block's offsets.
// CompressBlocked hands its caller an exact-length copy of the stream; the
// codec's codec.Pooled methods lend buf itself until the caller releases
// it. A warm pool allocates nothing a field.
type encoder struct {
	buf    []byte
	ext    []float64
	widths []byte
	codes  []uint64
}

var encoderPool = sync.Pool{New: func() any { return new(encoder) }}

// checkBound refuses an absolute bound the stream cannot carry.
func checkBound(absEB float64) error {
	if absEB <= 0 || math.IsNaN(absEB) || math.IsInf(absEB, 0) {
		return fmt.Errorf("szx: error bound must be positive and finite (got %g)", absEB)
	}
	return nil
}

// checkField refuses a shape that does not describe data, or no data.
func checkField(data []float64, dims []int) error {
	if err := codec.ValidateDims(len(data), dims); err != nil {
		return fmt.Errorf("szx: %w", err)
	}
	if len(data) == 0 {
		return errors.New("szx: empty input")
	}
	return nil
}

// compress encodes data into e.buf under absEB, scanning each block as it
// encodes it, and returns the stream, which aliases e.buf.
func (e *encoder) compress(data []float64, dims []int, absEB float64, blockSize int) ([]byte, error) {
	if err := checkBound(absEB); err != nil {
		return nil, err
	}
	if err := checkField(data, dims); err != nil {
		return nil, err
	}
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return e.encode(data, dims, absEB, min(blockSize, MaxBlockSize), nil, nil), nil
}

// compressRelative is compress at DefaultBlockSize under relEB × data's
// value range. Its first pass records every block's extremes (scanBlocks)
// and the field's range from them, then each block's packed width and the
// stream's bound from those, which it reserves once (streamBound); the
// second encodes each block from its records. It returns the stream, which
// aliases e.buf, and the absolute bound.
func (e *encoder) compressRelative(data []float64, dims []int, relEB float64) ([]byte, float64, error) {
	if err := checkBound(relEB); err != nil {
		return nil, 0, err
	}
	if err := checkField(data, dims); err != nil {
		return nil, 0, err
	}
	absEB := codec.RelativeBound(relEB, e.scanBlocks(data, DefaultBlockSize))
	if err := checkBound(absEB); err != nil {
		return nil, 0, err
	}
	nblocks := len(e.ext) / 2
	if cap(e.widths) < nblocks {
		e.widths = make([]byte, nblocks)
	}
	e.widths = e.widths[:nblocks]
	e.room(0, headerFixed+8*len(dims)+streamBound(e.widths, e.ext, len(data), DefaultBlockSize, absEB))
	return e.encode(data, dims, absEB, DefaultBlockSize, e.ext, e.widths), absEB, nil
}

// encode writes the stream into e.buf and returns it. ext and widths, when
// not nil, hold every block's simd.Extremes, lo then hi, and packedWidth;
// otherwise each block is scanned as it is encoded.
func (e *encoder) encode(data []float64, dims []int, absEB float64, blockSize int, ext []float64, widths []byte) []byte {
	p := len(marshalHeader(e.room(0, headerFixed+8*len(dims))[:0], absEB, blockSize, dims))
	if cap(e.codes) < blockSize {
		e.codes = make([]uint64, blockSize)
	}
	for b, start := 0, 0; start < len(data); b, start = b+1, start+blockSize {
		block := data[start:min(start+blockSize, len(data))]
		var lo, hi float64
		var nb byte
		if ext != nil {
			lo, hi, nb = ext[2*b], ext[2*b+1], widths[b]
		} else {
			lo, hi = simd.Extremes(block)
			nb = packedWidth(lo, hi, absEB)
		}
		p = e.encodeBlock(p, block, lo, hi, nb, absEB)
	}
	return e.buf[:p]
}

// streamBound records in widths each block's packedWidth at bound eb, from
// the extremes ext holds, and returns the most body bytes the blocks can
// take, plus putBits' 8 bytes of slack: a block is raw (tag + 8 bytes a
// value) when it is non-finite or wider than maxPackedBits, and otherwise
// at most packed at its width (tag, base, width, then the offsets) or
// linear (tag + 16 bytes), whichever is larger; a constant block is
// smaller than either. Only a packed block
// that fails its post-check and goes raw can outgrow its share, and room
// grows the stream for it then.
func streamBound(widths []byte, ext []float64, n, blockSize int, eb float64) int {
	total := 8
	for b := 0; b*blockSize < n; b++ {
		size := min(blockSize, n-b*blockSize)
		nb := packedWidth(ext[2*b], ext[2*b+1], eb)
		widths[b] = nb
		if nb == 0 {
			total += 1 + 8*size
		} else {
			total += max(1+16, 1+9+(int(nb)*size+7)/8)
		}
	}
	return total
}

// room returns the scratch stream with at least n bytes free from p on,
// doubling it — and keeping buf[:p] — when they are not, so blocks write
// by index without checking capacity.
func (e *encoder) room(p, n int) []byte {
	if p+n > len(e.buf) {
		grown := make([]byte, max(2*len(e.buf), p+n, 64<<10))
		copy(grown, e.buf[:p])
		e.buf = grown
	}
	return e.buf
}

// scanBlocks is the first pass of a relative-bound compression: it records
// each block's simd.Extremes in e.ext, lo then hi, and returns the
// field's value range — max − min over its non-NaN values, exactly
// metrics.ValueRange(data) (the two can differ only in the sign of a zero
// range, which codec.RelativeBound treats alike). A block with a non-finite
// value, which goes raw, has its extremes taken again with NaN skipped and
// ±Inf counted.
func (e *encoder) scanBlocks(data []float64, blockSize int) float64 {
	n := (len(data) + blockSize - 1) / blockSize
	if cap(e.ext) < 2*n {
		e.ext = make([]float64, 2*n)
	}
	ext := e.ext[:2*n]
	lo, hi := math.Inf(1), math.Inf(-1)
	for b := range n {
		block := data[b*blockSize : min((b+1)*blockSize, len(data))]
		blo, bhi := simd.Extremes(block)
		ext[2*b], ext[2*b+1] = blo, bhi
		if blo != blo {
			blo, bhi = nonNaNExtremes(block)
		}
		if blo < lo {
			lo = blo
		}
		if bhi > hi {
			hi = bhi
		}
	}
	if lo > hi {
		return 0
	}
	return hi - lo
}

// nonNaNExtremes is the least and greatest non-NaN value of block, or +Inf
// and −Inf when every value is NaN.
func nonNaNExtremes(block []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range block {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// encodeBlock writes one block, whose simd.Extremes are lo and hi and
// whose packedWidth is nb, at e.buf[p:] and returns the offset past it. A
// packed block's offsets are quantized into e.codes first; if any fails
// its post-check (rounding pushed its decoded value past the bound,
// rarely) the block goes raw.
// The stream grows, if it must, once the block's size is known.
func (e *encoder) encodeBlock(p int, block []float64, lo, hi float64, nb byte, eb float64) int {
	tag, mid, slope, nbits := classifyBlock(block, lo, hi, nb, eb)
	codes := e.codes[:len(block)]
	if tag == tagPacked && !simd.Quantize(codes, block, mid, 2*eb, eb) {
		tag = tagRaw
	}
	size := 1 + 8*len(block) // raw
	switch tag {
	case tagConstant:
		size = 1 + 8
	case tagLinear:
		size = 1 + 16
	case tagPacked:
		size = 1 + 9 + (int(nbits)*len(block)+7)/8
	}
	buf := e.room(p, size+8) // the packer's last word store needs 8 bytes of slack
	buf[p] = tag
	p++
	switch tag {
	case tagConstant:
		p = putF64(buf, p, mid)
	case tagLinear:
		p = putF64(buf, putF64(buf, p, mid), slope) // intercept, slope
	case tagPacked:
		buf[putF64(buf, p, mid)] = nbits // base, width
		p = packBlock(buf, p+9, codes, uint(nbits))
	case tagRaw:
		for _, v := range block {
			p = putF64(buf, p, v)
		}
	}
	return p
}

func putF64(buf []byte, p int, v float64) int {
	binary.LittleEndian.PutUint64(buf[p:], math.Float64bits(v))
	return p + 8
}

func getF64(buf []byte, p int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[p:]))
}

// classifyBlock picks the cheapest representation that preserves the
// bound, given the block's simd.Extremes (NaN: it goes raw) and its
// packedWidth nb (0: it cannot be packed). For tagConstant mid is the
// stored midpoint; for tagLinear mid is the intercept and slope the
// per-index step; for tagPacked mid is the base and nbits the per-value
// width, and a value rounding pushes past the bound may still turn the
// block raw.
func classifyBlock(block []float64, lo, hi float64, nb byte, eb float64) (tag byte, mid, slope float64, nbits byte) {
	if lo != lo {
		return tagRaw, 0, 0, 0
	}

	// Constant: one midpoint covers the whole spread. The explicit
	// endpoint checks (not just hi−lo ≤ 2eb) keep the guarantee exact
	// under floating-point rounding of the midpoint.
	// Each float64(·) below rounds before the next operation, as on
	// amd64: unconverted, gc fuses them on arm64 (make nofma).
	m := float64((lo + hi) / 2)
	if math.Abs(m-lo) <= eb && math.Abs(m-hi) <= eb {
		return tagConstant, m, 0, 0
	}

	// Linear: first→last ramp. Decode replays the identical float64
	// arithmetic, so checking the encoder's prediction checks the bound.
	if n := len(block); n >= 2 {
		a := block[0]
		s := (block[n-1] - block[0]) / float64(n-1)
		ok := true
		for i, v := range block {
			if math.Abs(v-(a+float64(s*float64(i)))) > eb {
				ok = false
				break
			}
		}
		if ok {
			return tagLinear, a, s, 0
		}
	}

	// Packed: offsets from the block minimum in 2eb steps.
	if nb > 0 {
		return tagPacked, lo, 0, nb
	}
	return tagRaw, 0, 0, 0
}

// packedWidth is the bit width of a block with extremes lo and hi packed
// at bound eb, or 0 when such a block goes raw: it holds a non-finite
// value (lo is NaN), or its offsets need more than maxPackedBits.
// (v−lo)/step never decreases with v, so hi's offset is the widest of the
// block.
func packedWidth(lo, hi, eb float64) byte {
	step := 2 * eb
	if lo != lo || (hi-lo)/step > 1<<maxPackedBits {
		return 0
	}
	var khi [1]uint64
	simd.Quantize(khi[:], []float64{hi}, lo, step, eb)
	if nb := max(1, bits.Len64(khi[0])); nb <= maxPackedBits {
		return byte(nb)
	}
	return 0
}

// packBlock writes a block's offsets MSB-first at nb bits each from buf[p]
// on, four or two to a putBits call (its shift-store-retire cycle is the
// critical path), and returns the end of the zero-padded last byte.
func packBlock(buf []byte, p int, codes []uint64, nb uint) int {
	var acc uint64
	var n uint
	i := 0
	if 4*nb <= 56 {
		for ; i+4 <= len(codes); i += 4 {
			q := codes[i : i+4 : i+4]
			p, acc, n = putBits(buf, p, acc, n, ((q[0]<<(nb&63)|q[1])<<(nb&63)|q[2])<<(nb&63)|q[3], 4*nb)
		}
	}
	if 2*nb <= 56 {
		for ; i+2 <= len(codes); i += 2 {
			p, acc, n = putBits(buf, p, acc, n, codes[i]<<(nb&63)|codes[i+1], 2*nb)
		}
	}
	for _, k := range codes[i:] {
		p, acc, n = putBits(buf, p, acc, n, k, nb)
	}
	if n > 0 {
		p++
	}
	return p
}

// putBits appends the low w bits of c (w ≤ 56) to a stream whose pending
// n < 8 bits sit left-aligned in acc and whose next byte is buf[p]. The
// accumulator is stored as a whole big-endian word every time, then its
// whole bytes are retired and the partial one carried, so n + w never
// overflows the word. The store covers buf[p:p+8], so buf needs up to 8
// bytes of slack past the stream's end.
func putBits(buf []byte, p int, acc uint64, n uint, c uint64, w uint) (int, uint64, uint) {
	acc |= c << ((64 - w - n) & 63)
	n += w
	binary.BigEndian.PutUint64(buf[p:], acc)
	return p + int(n>>3), acc << ((n &^ 7) & 63), n & 7
}

// Decompress decodes a stream produced by Compress, returning the
// reconstruction and its shape.
func Decompress(stream []byte) ([]float64, []int, error) {
	d, err := openStream(stream)
	if err != nil {
		return nil, nil, err
	}
	// The header is attacker-controlled until the body actually decodes,
	// so cap the reservation: past the cap the reconstruction grows block
	// by block, only as fast as the body delivers values.
	capHint := d.n
	if capHint > 1<<24 {
		capHint = 1 << 24
	}
	out := make([]float64, 0, capHint)
	off := 0
	for start := 0; start < d.n; start = len(out) {
		bn := min(d.blockSize, d.n-start)
		out = slices.Grow(out, bn)[:start+bn]
		if off, err = d.decodeBlocks(out[start:], start, off); err != nil {
			return nil, nil, err
		}
	}
	if err := d.finish(off); err != nil {
		return nil, nil, err
	}
	return out, d.dims, nil
}

// DecodeTiles decodes a stream produced by Compress without materialising
// the field: it fills tile with whole blocks, hands each filled tile to
// visit (codec.Visit), and reuses it for the next. It accepts and rejects
// exactly the streams Decompress does, with the same errors, and returns
// the same shape. A tile shorter than the stream's block size is replaced
// by one of MaxBlockSize values.
func DecodeTiles(stream []byte, tile []float64, visit codec.Visit) ([]int, error) {
	d, err := openStream(stream)
	if err != nil {
		return nil, err
	}
	if len(tile) < d.blockSize {
		tile = make([]float64, MaxBlockSize)
	}
	per := len(tile) - len(tile)%d.blockSize
	off := 0
	for start := 0; start < d.n; start += per {
		t := tile[:min(per, d.n-start)]
		if off, err = d.decodeBlocks(t, start, off); err != nil {
			return nil, err
		}
		if err := visit(start, t); err != nil {
			return nil, err
		}
	}
	if err := d.finish(off); err != nil {
		return nil, err
	}
	return d.dims, nil
}

// decoder is one stream opened for decoding: the parsed header, the point
// count its dims describe, and the block body.
type decoder struct {
	dims      []int
	n         int
	blockSize int
	step      float64 // 2 × the error bound: the packed-offset unit
	body      []byte
}

// openStream parses the header and rejects a body too short for the point
// count it claims: every block costs at least 9 body bytes (tag + one
// float64), so such a stream is corrupt before anything is reserved for it.
func openStream(stream []byte) (decoder, error) {
	absEB, blockSize, dims, body, err := parseHeader(stream)
	if err != nil {
		return decoder{}, err
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	nBlocks := (n + blockSize - 1) / blockSize
	if len(body) < 9*nBlocks {
		return decoder{}, fmt.Errorf("szx: body %d bytes cannot hold %d blocks: %w", len(body), nBlocks, ErrCorrupt)
	}
	return decoder{dims: dims, n: n, blockSize: blockSize, step: 2 * absEB, body: body}, nil
}

// decodeBlocks decodes the blocks covering points [start, start+len(dst))
// into dst — start is block-aligned — beginning at body offset off, and
// returns the offset past them.
func (d *decoder) decodeBlocks(dst []float64, start, off int) (int, error) {
	for b := 0; b < len(dst); b += d.blockSize {
		if off >= len(d.body) {
			return 0, fmt.Errorf("szx: truncated body at %d of %d points: %w", start+b, d.n, ErrCorrupt)
		}
		var err error
		if off, err = decodeBlock(dst[b:min(b+d.blockSize, len(dst))], d.body, off, d.step); err != nil {
			return 0, err
		}
	}
	return off, nil
}

// finish checks that decoding every point consumed the whole body.
func (d *decoder) finish(off int) error {
	if off != len(d.body) {
		return fmt.Errorf("szx: %d trailing bytes: %w", len(d.body)-off, ErrCorrupt)
	}
	return nil
}

// decodeBlock decodes the block at body[off] into dst, writing every
// value by index, and returns the offset past the block. A packed block's
// codes go to simd.Unpack with the rest of the body after them: its AVX2
// kernel reads up to 16 bytes past a group of codes, into the next
// block's bytes, and decodes only the groups whose reads end inside the
// body, so a crafted stream cannot make it read past the body.
func decodeBlock(dst []float64, body []byte, off int, step float64) (int, error) {
	tag := body[off]
	off++
	switch tag {
	case tagConstant:
		if off+8 > len(body) {
			return 0, ErrCorrupt
		}
		v := getF64(body, off)
		for i := range dst {
			dst[i] = v
		}
		return off + 8, nil
	case tagLinear:
		if off+16 > len(body) {
			return 0, ErrCorrupt
		}
		a, s := getF64(body, off), getF64(body, off+8)
		for i := range dst {
			dst[i] = a + float64(s*float64(i))
		}
		return off + 16, nil
	case tagPacked:
		if off+9 > len(body) {
			return 0, ErrCorrupt
		}
		base, nbits := getF64(body, off), body[off+8]
		off += 9
		if nbits == 0 || nbits > maxPackedBits {
			return 0, fmt.Errorf("szx: packed width %d: %w", nbits, ErrCorrupt)
		}
		end := off + (len(dst)*int(nbits)+7)/8
		if end > len(body) {
			return 0, ErrCorrupt
		}
		simd.Unpack(dst, body[off:], uint(nbits), base, step)
		return end, nil
	case tagRaw:
		end := off + 8*len(dst)
		if end > len(body) {
			return 0, ErrCorrupt
		}
		for i := range dst {
			dst[i] = getF64(body, off+8*i)
		}
		return end, nil
	}
	return 0, fmt.Errorf("szx: unknown block tag %#x: %w", tag, ErrCorrupt)
}

// StreamDims parses just the header and returns the field shape.
func StreamDims(stream []byte) ([]int, error) {
	_, _, dims, _, err := parseHeader(stream)
	return dims, err
}

func marshalHeader(out []byte, absEB float64, blockSize int, dims []int) []byte {
	out = binary.LittleEndian.AppendUint32(out, Magic)
	out = append(out, streamVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(blockSize))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(absEB))
	out = append(out, byte(len(dims)))
	for _, d := range dims {
		out = binary.LittleEndian.AppendUint64(out, uint64(d))
	}
	return out
}

func parseHeader(stream []byte) (absEB float64, blockSize int, dims []int, body []byte, err error) {
	if len(stream) < headerFixed {
		return 0, 0, nil, nil, ErrCorrupt
	}
	if binary.LittleEndian.Uint32(stream[:4]) != Magic {
		return 0, 0, nil, nil, fmt.Errorf("szx: bad magic: %w", ErrCorrupt)
	}
	if stream[4] != streamVersion {
		return 0, 0, nil, nil, fmt.Errorf("szx: unsupported version %d: %w", stream[4], ErrCorrupt)
	}
	blockSize = int(binary.LittleEndian.Uint32(stream[5:9]))
	if blockSize <= 0 || blockSize > MaxBlockSize {
		return 0, 0, nil, nil, fmt.Errorf("szx: block size %d: %w", blockSize, ErrCorrupt)
	}
	absEB = math.Float64frombits(binary.LittleEndian.Uint64(stream[9:17]))
	if absEB <= 0 || math.IsNaN(absEB) || math.IsInf(absEB, 0) {
		return 0, 0, nil, nil, fmt.Errorf("szx: bad error bound: %w", ErrCorrupt)
	}
	nd := int(stream[17])
	if nd == 0 || nd > codec.MaxDims {
		return 0, 0, nil, nil, ErrCorrupt
	}
	need := headerFixed + 8*nd
	if len(stream) < need {
		return 0, 0, nil, nil, ErrCorrupt
	}
	dims = make([]int, nd)
	total := uint64(1)
	for i := 0; i < nd; i++ {
		d := binary.LittleEndian.Uint64(stream[headerFixed+8*i : headerFixed+8*i+8])
		if d == 0 || d > 1<<32 {
			return 0, 0, nil, nil, ErrCorrupt
		}
		// Check before multiplying: the product must stay ≤ 2^40 without
		// ever wrapping, or a crafted header reaches downstream
		// allocations with a negative point count.
		if total > (1<<40)/d {
			return 0, 0, nil, nil, ErrCorrupt
		}
		total *= d
		dims[i] = int(d)
	}
	return absEB, blockSize, dims, stream[need:], nil
}

// Probe runs the cheap sampling pass the quality predictor's
// compressor-based features need: every stride-th point is quantized
// against its block's first value — the base a packed block would offset
// from — on the shared quantizer alphabet (escape = 0, zero bin =
// radius). Constant-block-heavy fields therefore show a high p0 exactly
// as a real szx run would spend almost no bits on them.
func Probe(data []float64, dims []int, absEB float64, stride int) ([]int, error) {
	if absEB <= 0 || math.IsNaN(absEB) || math.IsInf(absEB, 0) {
		return nil, fmt.Errorf("szx: error bound must be positive and finite (got %g)", absEB)
	}
	if err := codec.ValidateDims(len(data), dims); err != nil {
		return nil, fmt.Errorf("szx: %w", err)
	}
	if stride < 1 {
		stride = 1
	}
	q := quant.New(absEB, 0)
	codes := make([]int, 0, len(data)/stride+1)
	for idx := 0; idx < len(data); idx += stride {
		base := data[idx-idx%DefaultBlockSize]
		code, _, ok := q.Quantize(data[idx], base)
		if !ok {
			code = quant.EscapeCode
		}
		codes = append(codes, code)
	}
	if len(codes) == 0 {
		return nil, errors.New("szx: sampling produced no points")
	}
	return codes, nil
}

package szx

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"ocelot/internal/codec"
	"ocelot/internal/oracle"
)

// The bitstream-based kernels the word-at-a-time ones replaced, kept
// verbatim (renamed) as the differential oracle: the shipping kernels must
// produce these bytes from any input and decode any stream to these bit
// patterns, accepting and rejecting exactly the same streams.

func oracleCompressBlocked(data []float64, dims []int, absEB float64, blockSize int) ([]byte, error) {
	if absEB <= 0 || math.IsNaN(absEB) || math.IsInf(absEB, 0) {
		return nil, fmt.Errorf("szx: error bound must be positive and finite (got %g)", absEB)
	}
	if err := codec.ValidateDims(len(data), dims); err != nil {
		return nil, fmt.Errorf("szx: %w", err)
	}
	if len(data) == 0 {
		return nil, errors.New("szx: empty input")
	}
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if blockSize > MaxBlockSize {
		blockSize = MaxBlockSize
	}

	out := make([]byte, 0, headerFixed+8*len(dims)+len(data)/2)
	out = marshalHeader(out, absEB, blockSize, dims)

	w := oracle.NewWriter(blockSize * 2)
	var b8 [8]byte
	putF64 := func(v float64) {
		binary.LittleEndian.PutUint64(b8[:], math.Float64bits(v))
		out = append(out, b8[:]...)
	}
	ks := make([]uint64, blockSize)

	for start := 0; start < len(data); start += blockSize {
		end := start + blockSize
		if end > len(data) {
			end = len(data)
		}
		block := data[start:end]

		tag, mid, slope, nbits := oracleClassifyBlock(block, absEB, ks)
		out = append(out, tag)
		switch tag {
		case tagConstant:
			putF64(mid)
		case tagLinear:
			putF64(mid) // intercept
			putF64(slope)
		case tagPacked:
			putF64(mid) // base
			out = append(out, nbits)
			w.Reset()
			for _, k := range ks[:len(block)] {
				w.WriteBits(k, uint(nbits))
			}
			out = append(out, w.Bytes()...)
		case tagRaw:
			for _, v := range block {
				putF64(v)
			}
		}
	}
	return out, nil
}

func oracleClassifyBlock(block []float64, eb float64, ks []uint64) (tag byte, mid, slope float64, nbits byte) {
	lo, hi := block[0], block[0]
	finite := true
	for _, v := range block {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			finite = false
			break
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if !finite {
		return tagRaw, 0, 0, 0
	}

	m := (lo + hi) / 2
	if math.Abs(m-lo) <= eb && math.Abs(m-hi) <= eb {
		return tagConstant, m, 0, 0
	}

	if n := len(block); n >= 2 {
		a := block[0]
		s := (block[n-1] - block[0]) / float64(n-1)
		ok := true
		for i, v := range block {
			if math.Abs(v-(a+s*float64(i))) > eb {
				ok = false
				break
			}
		}
		if ok {
			return tagLinear, a, s, 0
		}
	}

	step := 2 * eb
	var maxK uint64
	for i, v := range block {
		d := (v - lo) / step
		if d > float64(uint64(1)<<maxPackedBits) {
			return tagRaw, 0, 0, 0
		}
		k := uint64(d + 0.5)
		if math.Abs(lo+float64(k)*step-v) > eb {
			return tagRaw, 0, 0, 0
		}
		ks[i] = k
		if k > maxK {
			maxK = k
		}
	}
	nb := byte(1)
	for maxK>>nb != 0 {
		nb++
	}
	if nb > maxPackedBits {
		return tagRaw, 0, 0, 0
	}
	return tagPacked, lo, 0, nb
}

func oracleDecompress(stream []byte) ([]float64, []int, error) {
	absEB, blockSize, dims, body, err := parseHeader(stream)
	if err != nil {
		return nil, nil, err
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	nBlocks := (n + blockSize - 1) / blockSize
	if len(body) < 9*nBlocks {
		return nil, nil, fmt.Errorf("szx: body %d bytes cannot hold %d blocks: %w", len(body), nBlocks, ErrCorrupt)
	}
	capHint := n
	if capHint > 1<<24 {
		capHint = 1 << 24
	}
	out := make([]float64, 0, capHint)
	step := 2 * absEB
	off := 0
	readF64 := func() (float64, bool) {
		if off+8 > len(body) {
			return 0, false
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(body[off : off+8]))
		off += 8
		return v, true
	}
	for len(out) < n {
		if off >= len(body) {
			return nil, nil, fmt.Errorf("szx: truncated body at %d of %d points: %w", len(out), n, ErrCorrupt)
		}
		bn := blockSize
		if rem := n - len(out); rem < bn {
			bn = rem
		}
		tag := body[off]
		off++
		switch tag {
		case tagConstant:
			v, ok := readF64()
			if !ok {
				return nil, nil, ErrCorrupt
			}
			for i := 0; i < bn; i++ {
				out = append(out, v)
			}
		case tagLinear:
			a, ok := readF64()
			s, ok2 := readF64()
			if !ok || !ok2 {
				return nil, nil, ErrCorrupt
			}
			for i := 0; i < bn; i++ {
				out = append(out, a+s*float64(i))
			}
		case tagPacked:
			base, ok := readF64()
			if !ok || off >= len(body) {
				return nil, nil, ErrCorrupt
			}
			nbits := body[off]
			off++
			if nbits == 0 || nbits > maxPackedBits {
				return nil, nil, fmt.Errorf("szx: packed width %d: %w", nbits, ErrCorrupt)
			}
			nbytes := (bn*int(nbits) + 7) / 8
			if off+nbytes > len(body) {
				return nil, nil, ErrCorrupt
			}
			r := oracle.NewReader(body[off : off+nbytes])
			off += nbytes
			for i := 0; i < bn; i++ {
				k, err := r.ReadBits(uint(nbits))
				if err != nil {
					return nil, nil, fmt.Errorf("szx: %w", ErrCorrupt)
				}
				out = append(out, base+float64(k)*step)
			}
		case tagRaw:
			if off+8*bn > len(body) {
				return nil, nil, ErrCorrupt
			}
			for i := 0; i < bn; i++ {
				v, _ := readF64()
				out = append(out, v)
			}
		default:
			return nil, nil, fmt.Errorf("szx: unknown block tag %#x: %w", tag, ErrCorrupt)
		}
	}
	if off != len(body) {
		return nil, nil, fmt.Errorf("szx: %d trailing bytes: %w", len(body)-off, ErrCorrupt)
	}
	outDims := make([]int, len(dims))
	copy(outDims, dims)
	return out, outDims, nil
}

// sameDecode fails t unless Decompress and the oracle agree on stream:
// both reject it, or both accept it with the same dims and the same bit
// pattern at every point.
func sameDecode(t *testing.T, stream []byte) {
	t.Helper()
	got, gDims, gErr := Decompress(stream)
	want, wDims, wErr := oracleDecompress(stream)
	if (gErr == nil) != (wErr == nil) {
		t.Fatalf("decode accept/reject differs: kernel err %v, oracle err %v", gErr, wErr)
	}
	if gErr != nil {
		if !errors.Is(gErr, ErrCorrupt) {
			t.Fatalf("kernel rejected with %v, which does not wrap ErrCorrupt", gErr)
		}
		return
	}
	if fmt.Sprint(gDims) != fmt.Sprint(wDims) || len(got) != len(want) {
		t.Fatalf("decoded %d points %v, oracle %d points %v", len(got), gDims, len(want), wDims)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("point %d: kernel %#x, oracle %#x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// sameCompress fails t unless CompressBlocked and the oracle agree on
// data: both reject it, or both emit the same bytes.
func sameCompress(t *testing.T, data []float64, dims []int, eb float64, blockSize int) []byte {
	t.Helper()
	got, gErr := CompressBlocked(data, dims, eb, blockSize)
	want, wErr := oracleCompressBlocked(data, dims, eb, blockSize)
	if (gErr == nil) != (wErr == nil) {
		t.Fatalf("compress accept/reject differs: kernel err %v, oracle err %v", gErr, wErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("eb %g block %d: kernel stream (%d bytes, fnv %#x) differs from the oracle's (%d bytes, fnv %#x)",
			eb, blockSize, len(got), fnvBytes(got), len(want), fnvBytes(want))
	}
	return got
}

// wideTail is 300 values whose last block (at the default block size) is
// packed at the maximum width: its codes run to the end of the stream, so
// the decoder reads them through its byte-wise tail.
func wideTail() []float64 {
	return append(goldenField(fieldNoise)[:256:256], goldenField(fieldWidths)[39*256:39*256+44]...)
}

// TestKernelsMatchOracle compares the decoders on every truncation of a
// short stream per golden variant and of wideTail's, so the rejection
// paths — including a cut inside the last codes' byte-wise tail — agree
// too. (TestStreamDigests already pins both directions on whole streams.)
func TestKernelsMatchOracle(t *testing.T) {
	for _, data := range [][]float64{
		goldenField(fieldNoise)[:700], goldenField(fieldBlocks)[:700],
		goldenField(fieldEscapes)[:700], goldenField(fieldWidths)[:700], wideTail(),
	} {
		stream := sameCompress(t, data, []int{len(data)}, 1e-3, DefaultBlockSize)
		for cut := 0; cut <= len(stream); cut++ {
			sameDecode(t, stream[:cut])
		}
	}
	tags, widths := blockCensus(t, sameCompress(t, wideTail(), []int{300}, 1e-3, DefaultBlockSize))
	if tags[tagPacked] != 2 || widths[maxPackedBits] != 1 {
		t.Fatalf("wideTail census: tags %v, widths %v; want two packed blocks, one %d bits wide", tags, widths, maxPackedBits)
	}
}

// fuzzField turns fuzz bytes into a field: mode 0 reads them as raw
// float64 bit patterns (NaN, ±Inf, subnormals, 1e±300 all appear); mode 1
// as a random walk of int8 steps, which lands in packed and linear blocks.
func fuzzField(raw []byte, mode uint8) []float64 {
	if mode%2 == 0 {
		data := make([]float64, len(raw)/8)
		for i := range data {
			data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		return data
	}
	data := make([]float64, len(raw))
	acc := 0.0
	for i, b := range raw {
		acc += float64(int8(b)) * 0.37
		data[i] = acc
	}
	return data
}

// FuzzSZXMatchesOracle holds the word-at-a-time kernels to the oracle on
// arbitrary input: compressing any field at any bound and block size gives
// the oracle's bytes, and decoding any byte string — the fuzz input itself,
// the fresh stream, and that stream cut short — gives the oracle's
// accept/reject and bit patterns.
func FuzzSZXMatchesOracle(f *testing.F) {
	for _, variant := range goldenVariants {
		data := goldenField(variant)[:600]
		stream, err := CompressBlocked(data, []int{len(data)}, 1e-3, 256)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(stream, uint8(0), uint8(3), uint16(256))
		f.Add(stream, uint8(1), uint8(6), uint16(7))
	}
	wide, err := CompressBlocked(wideTail(), []int{300}, 1e-3, DefaultBlockSize)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wide, uint8(0), uint8(3), uint16(DefaultBlockSize))
	f.Add(wide[:len(wide)-3], uint8(1), uint8(3), uint16(40))
	f.Add([]byte{}, uint8(1), uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, raw []byte, mode, ebExp uint8, blockSize uint16) {
		sameDecode(t, raw)
		data := fuzzField(raw, mode)
		eb := math.Pow(10, -float64(ebExp%13)) * (1 + float64(mode>>1)/7)
		stream := sameCompress(t, data, []int{len(data)}, eb, int(blockSize))
		if stream == nil {
			return
		}
		sameDecode(t, stream)
		sameDecode(t, stream[:len(stream)-1-int(blockSize)%len(stream)])
	})
}

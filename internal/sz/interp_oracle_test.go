package sz

import (
	"math"
	"testing"

	"ocelot/internal/huffman"
	"ocelot/internal/lossless"
	"ocelot/internal/quant"
)

// This file keeps the generic point-at-a-time interp traversal the row
// kernels in interp.go replaced — the odometer over one (level, axis)
// pass with axis d innermost, a prediction per point from coordinate
// tests, the out-of-line quantizer with math.Round, and an append per
// symbol — as the differential oracle for them. It defines the stream
// order: whatever order the kernels iterate in, their symbol stream, side
// lanes and reconstruction must equal what this code produces.

// oracleRun is the state of one oracle traversal. data != nil encodes;
// data == nil decodes syms/literals into recon.
type oracleRun struct {
	eb, eb2, radF float64
	radius        int
	data          []float64
	recon         []float64
	syms          huffman.SymbolStream
	literals      []float64
	codeIdx       int
	wideIdx       int
	litIdx        int
}

func newOracleRun(eb float64, radius, n int) *oracleRun {
	if radius <= 0 {
		radius = quant.DefaultRadius
	}
	return &oracleRun{eb: eb, eb2: 2 * eb, radF: float64(radius), radius: radius, recon: make([]float64, n)}
}

// quantize is quant.Quantize as it stood at commit f87b989.
func (c *oracleRun) quantize(value, pred float64) (int, float64, bool) {
	diff := value - pred
	if math.IsNaN(diff) || math.IsInf(diff, 0) {
		return quant.EscapeCode, value, false
	}
	d := diff / c.eb2
	if d >= c.radF || d <= -c.radF {
		return quant.EscapeCode, value, false
	}
	bin := int(math.Round(d))
	if bin >= c.radius || bin <= -c.radius {
		return quant.EscapeCode, value, false
	}
	rec := pred + float64(bin)*c.eb2
	if math.Abs(rec-value) > c.eb {
		return quant.EscapeCode, value, false
	}
	code := bin + c.radius
	if code == quant.EscapeCode {
		return quant.EscapeCode, value, false
	}
	return code, rec, true
}

func (c *oracleRun) process(i int, pred float64) {
	if c.data != nil {
		code, rec, ok := c.quantize(c.data[i], pred)
		if !ok {
			c.syms.Packed = append(c.syms.Packed, quant.EscapeCode)
			c.literals = append(c.literals, c.data[i])
			c.recon[i] = c.data[i]
			return
		}
		c.syms.Append(code)
		c.recon[i] = rec
		return
	}
	code := int(c.syms.Packed[c.codeIdx])
	c.codeIdx++
	if code == huffman.WideEscape {
		code = int(c.syms.Wide[c.wideIdx])
		c.wideIdx++
	}
	if code == quant.EscapeCode {
		c.recon[i] = c.literals[c.litIdx]
		c.litIdx++
		return
	}
	c.recon[i] = pred + float64(code-c.radius)*c.eb2
}

func oracleInterpTraverse(c *oracleRun, dims []int, mode InterpMode) {
	nd := len(dims)
	strides := rowMajorStrides(dims)
	maxDim := 0
	for _, d := range dims {
		if d > maxDim {
			maxDim = d
		}
	}
	c.process(0, 0)
	if maxDim == 1 {
		return
	}
	top := 1
	for top < maxDim {
		top <<= 1
	}
	for stride := top; stride >= 2; stride >>= 1 {
		h := stride / 2
		for d := 0; d < nd; d++ {
			oracleInterpAxis(c, dims, strides, d, stride, h, mode)
		}
	}
}

// oracleInterpAxis predicts all points p with p[d] ≡ h (mod stride),
// p[a<d] ≡ 0 (mod h), p[a>d] ≡ 0 (mod stride): axis d fastest, then the
// other axes from last to first.
func oracleInterpAxis(c *oracleRun, dims, strides []int, d, stride, h int, mode InterpMode) {
	nd := len(dims)
	steps := make([]int, nd)
	for a := 0; a < nd; a++ {
		if a < d {
			steps[a] = h
		} else {
			steps[a] = stride
		}
	}
	coords := make([]int, nd)
	coords[d] = h
	if coords[d] >= dims[d] {
		return
	}
	for {
		idx := 0
		for a := 0; a < nd; a++ {
			idx += coords[a] * strides[a]
		}
		c.process(idx, oracleInterpPredict(c.recon, coords[d], dims[d], strides[d], idx, h, mode))
		if coords[d]+steps[d] < dims[d] {
			coords[d] += steps[d]
			continue
		}
		coords[d] = h
		advanced := false
		for a := nd - 1; a >= 0 && !advanced; a-- {
			if a == d {
				continue
			}
			coords[a] += steps[a]
			if coords[a] < dims[a] {
				advanced = true
			} else {
				coords[a] = 0
			}
		}
		if !advanced {
			return
		}
	}
}

func oracleInterpPredict(recon []float64, x, dimLen, axisStride, idx, h int, mode InterpMode) float64 {
	left := recon[idx-h*axisStride]
	if x+h >= dimLen {
		return left
	}
	right := recon[idx+h*axisStride]
	if mode == InterpCubic && x-3*h >= 0 && x+3*h < dimLen {
		l3 := recon[idx-3*h*axisStride]
		r3 := recon[idx+3*h*axisStride]
		return (-l3 + 9*left + 9*right - r3) / 16
	}
	return (left + right) / 2
}

// assembleStream builds the sz3 stream for a symbol stream and literal
// lane exactly as Compress does after its traversal: Huffman over the
// counted symbols, the inner payload, the lossless backend, the header.
// Tests use it to turn oracle traversals — and deliberately damaged symbol
// streams — into bytes Decompress will accept or must reject.
func assembleStream(tb testing.TB, h *header, syms *huffman.SymbolStream, literals []float64, backend lossless.Backend) []byte {
	tb.Helper()
	alphabet := 2 * h.radius
	freqs := make([]uint64, alphabet)
	for _, s := range syms.Ints() {
		freqs[s]++
	}
	huff, _, err := encodeCodesTo(nil, syms, freqs, alphabet)
	if err != nil {
		tb.Fatal(err)
	}
	inner := &innerPayload{literals: literals, huffman: huff}
	body, err := lossless.Compress(inner.marshal(), backend)
	if err != nil {
		tb.Fatal(err)
	}
	return append(h.marshal(), body...)
}

// oracleCompress is Compress for the interp predictor with the oracle
// traversal in place of the kernels.
func oracleCompress(tb testing.TB, data []float64, dims []int, cfg Config) ([]byte, *oracleRun) {
	tb.Helper()
	cfg, err := cfg.withDefaults()
	if err != nil {
		tb.Fatal(err)
	}
	absEB := cfg.AbsoluteBound(data)
	run := newOracleRun(absEB, cfg.Radius, len(data))
	run.data = data
	oracleInterpTraverse(run, dims, cfg.Interp)
	h := &header{predictor: PredictorInterp, interp: cfg.Interp, boundMode: cfg.BoundMode,
		radius: run.radius, absEB: absEB, dims: dims}
	return assembleStream(tb, h, &run.syms, run.literals, cfg.Backend), run
}

// oracleDecompress decodes an interp stream with the oracle traversal. The
// stream must be well formed: the oracle, like the code it preserves,
// trusts the escape and literal counts to agree.
func oracleDecompress(tb testing.TB, stream []byte) []float64 {
	tb.Helper()
	h, body, err := parseHeader(stream)
	if err != nil {
		tb.Fatal(err)
	}
	innerBytes, err := lossless.Decompress(body)
	if err != nil {
		tb.Fatal(err)
	}
	inner, err := parseInnerPayload(innerBytes)
	if err != nil {
		tb.Fatal(err)
	}
	n := 1
	for _, d := range h.dims {
		n *= d
	}
	run := newOracleRun(h.absEB, h.radius, n)
	if err := huffman.DecodeInto(&run.syms, inner.huffman); err != nil {
		tb.Fatal(err)
	}
	run.literals = inner.literals
	oracleInterpTraverse(run, h.dims, h.interp)
	return run.recon
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

package sz

import (
	"fmt"
	"math"

	"ocelot/internal/huffman"
	"ocelot/internal/lossless"
	"ocelot/internal/metrics"
	"ocelot/internal/quant"
)

// Stats reports measurable properties of a compression run. They feed the
// compressor-based features of the quality predictor (paper Section VI).
type Stats struct {
	// NumPoints is the number of data values compressed.
	NumPoints int
	// CompressedBytes is the size of the final stream.
	CompressedBytes int
	// NumEscapes counts values stored as literals (unpredictable points).
	NumEscapes int
	// P0Quant is the fraction of quantization codes equal to the zero bin
	// (the paper's p0 feature).
	P0Quant float64
	// HuffP0 is the share of the Huffman payload bits spent on the zero bin
	// (the paper's P0 feature).
	HuffP0 float64
	// QuantEntropy is the Shannon entropy (bits/symbol) of the quantization
	// codes (the paper's quantization-entropy feature).
	QuantEntropy float64
	// HuffmanBits is the size of the Huffman payload before the lossless
	// backend.
	HuffmanBits int
}

// traversal is the state of one predictor run, in either direction:
// encode quantizes data against predictions made from recon and records
// codes, literals and coefficients; decode consumes them to rebuild recon.
// Lorenzo and regression visit points in stream order through
// encodePoint/decodePoint; the interp kernels (interp.go) work a run of
// points at a time on the same state.
//
// Quantization codes travel in the compact huffman.SymbolStream
// representation (two bytes per symbol; codes ≥ huffman.WideEscape ride
// the wide-escape side lane), and the encoders count symbol frequencies
// into freqs as they go — the entropy stage pays no second pass over the
// code stream.
type traversal struct {
	q        *quant.Quantizer
	data     []float64 // original values (encode only)
	recon    []float64
	syms     *huffman.SymbolStream
	freqs    []uint64 // per-symbol counts (encode only)
	literals []float64
	coeffs   []float64
	codeIdx  int
	wideIdx  int
	litIdx   int
	coefIdx  int
	sc       *interpScratch // interp kernels only
}

// encodePoint quantizes point i against pred and appends its code.
func (c *traversal) encodePoint(i int, pred float64) {
	code, rec, ok := c.q.Quantize(c.data[i], pred)
	if !ok {
		c.literals = append(c.literals, c.data[i])
	}
	c.syms.Append(code)
	c.freqs[code]++
	c.recon[i] = rec
}

// decodePoint rebuilds point i from the next code and pred.
func (c *traversal) decodePoint(i int, pred float64) {
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
	c.recon[i] = c.q.Recover(pred, code)
}

// pushCoeffs records regression coefficients during compression (rounded to
// float32 so encode and decode predict identically).
func (c *traversal) pushCoeffs(coefs []float64) []float64 {
	start := len(c.coeffs)
	for _, v := range coefs {
		c.coeffs = append(c.coeffs, float64(float32(v)))
	}
	return c.coeffs[start:]
}

// nextCoeffs consumes coefficients during decompression.
func (c *traversal) nextCoeffs(n int) ([]float64, error) {
	if c.coefIdx+n > len(c.coeffs) {
		return nil, ErrCorrupt
	}
	out := c.coeffs[c.coefIdx : c.coefIdx+n]
	c.coefIdx += n
	return out, nil
}

// Compress encodes data (row-major, dims[0] slowest) under cfg and returns
// the stream plus run statistics. Scratch buffers (code stream, frequency
// table, reconstruction, Huffman output) come from a sync.Pool-backed
// arena, so steady-state campaign runs allocate only the returned stream.
func Compress(data []float64, dims []int, cfg Config) ([]byte, *Stats, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if err := validateDims(len(data), dims); err != nil {
		return nil, nil, err
	}
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("sz: empty input")
	}
	absEB := cfg.AbsoluteBound(data)
	q := quant.New(absEB, cfg.Radius)
	a := getArena()
	defer a.release()
	c := &traversal{
		q:        q,
		data:     data,
		recon:    a.reconScratch(len(data)),
		syms:     a.symsScratch(len(data)),
		freqs:    a.freqsScratch(q.AlphabetSize()),
		literals: a.literalsScratch(),
		coeffs:   a.coeffsScratch(),
		sc:       &a.interp,
	}
	if err := c.encode(dims, cfg); err != nil {
		return nil, nil, err
	}
	// Recapture accumulators the traversal may have regrown, so the arena
	// keeps the larger buffers for the next run.
	a.literals = c.literals
	a.coeffs = c.coeffs

	huffBytes, huffStats, err := encodeCodesTo(a.enc[:0], c.syms, c.freqs, q.AlphabetSize())
	if err != nil {
		return nil, nil, err
	}
	a.enc = huffBytes
	a.freqsCleanLen = len(c.freqs) // encodeCodesTo zeroed every used slot
	inner := &innerPayload{literals: c.literals, coeffs: c.coeffs, huffman: huffBytes}
	a.inner = inner.marshalTo(a.inner[:0])
	body, err := lossless.Compress(a.inner, cfg.Backend)
	if err != nil {
		return nil, nil, err
	}
	h := &header{
		predictor: cfg.Predictor,
		interp:    cfg.Interp,
		boundMode: cfg.BoundMode,
		radius:    q.Radius(),
		absEB:     absEB,
		dims:      dims,
	}
	stream := append(h.marshal(), body...)

	st := &Stats{
		NumPoints:       len(data),
		CompressedBytes: len(stream),
		NumEscapes:      len(c.literals),
		P0Quant:         huffStats.p0,
		HuffP0:          huffStats.bitShare0,
		QuantEntropy:    huffStats.entropy,
		HuffmanBits:     huffStats.totalBits,
	}
	return stream, st, nil
}

// Decompress decodes a stream produced by Compress — or a chunked
// container produced by AssembleChunks/CompressChunked, which it detects by
// magic and routes through DecompressChunked — returning the reconstructed
// values and their shape. The decoded code stream lives in pooled arena
// scratch; only the returned reconstruction is allocated.
func Decompress(stream []byte) ([]float64, []int, error) {
	if IsChunked(stream) {
		return DecompressChunked(stream)
	}
	h, body, err := parseHeader(stream)
	if err != nil {
		return nil, nil, err
	}
	innerBytes, err := lossless.Decompress(body)
	if err != nil {
		return nil, nil, fmt.Errorf("sz: body: %w", err)
	}
	inner, err := parseInnerPayload(innerBytes)
	if err != nil {
		return nil, nil, err
	}
	a := getArena()
	defer a.release()
	syms := a.symsScratch(0)
	if err := huffman.DecodeInto(syms, inner.huffman); err != nil {
		return nil, nil, fmt.Errorf("sz: codes: %w", err)
	}
	n := 1
	for _, d := range h.dims {
		n *= d
	}
	if syms.Len() != n {
		return nil, nil, fmt.Errorf("sz: code count %d != points %d: %w", syms.Len(), n, ErrCorrupt)
	}
	// The traversal consumes one literal per escape code; a crafted stream
	// whose escape count exceeds its literal count would index past the
	// literals slice mid-traversal, so validate the invariant up front.
	// (Wide-lane symbols are ≥ huffman.WideEscape, never the escape bin.)
	escapes := 0
	for _, p := range syms.Packed {
		if p == quant.EscapeCode {
			escapes++
		}
	}
	if escapes != len(inner.literals) {
		return nil, nil, fmt.Errorf("sz: %d escape codes for %d literals: %w", escapes, len(inner.literals), ErrCorrupt)
	}
	c := &traversal{
		q:        quant.New(h.absEB, h.radius),
		recon:    make([]float64, n),
		syms:     syms,
		literals: inner.literals,
		coeffs:   inner.coeffs,
		sc:       &a.interp,
	}
	if err := c.decode(h); err != nil {
		return nil, nil, err
	}
	dims := make([]int, len(h.dims))
	copy(dims, h.dims)
	return c.recon, dims, nil
}

// encode runs the configured predictor over c.data.
func (c *traversal) encode(dims []int, cfg Config) error {
	switch cfg.Predictor {
	case PredictorLorenzo:
		lorenzoTraverse(c.recon, dims, c.encodePoint)
		return nil
	case PredictorInterp:
		interpEncode(c, dims, cfg.Interp)
		return nil
	case PredictorRegression:
		return regressionTraverse(dims, c.encodePoint,
			func(strides, lo, hi []int) ([]float64, error) {
				return c.pushCoeffs(fitBlock(c.data, strides, lo, hi)), nil
			})
	default:
		return fmt.Errorf("sz: invalid predictor %v", cfg.Predictor)
	}
}

// decode rebuilds c.recon with the predictor the stream header names.
func (c *traversal) decode(h *header) error {
	// Only regression stores coefficients, and it must read every one.
	if h.predictor != PredictorRegression && len(c.coeffs) != 0 {
		return fmt.Errorf("sz: %d coefficients in a %v stream: %w", len(c.coeffs), h.predictor, ErrCorrupt)
	}
	switch h.predictor {
	case PredictorInterp:
		interpDecode(c, h.dims, h.interp)
		return nil
	case PredictorLorenzo:
		lorenzoTraverse(c.recon, h.dims, c.decodePoint)
	case PredictorRegression:
		err := regressionTraverse(h.dims, c.decodePoint,
			func(_, lo, _ []int) ([]float64, error) { return c.nextCoeffs(len(lo) + 1) })
		if err != nil {
			return err
		}
		if c.coefIdx != len(c.coeffs) {
			return fmt.Errorf("sz: %d coefficients unconsumed: %w", len(c.coeffs)-c.coefIdx, ErrCorrupt)
		}
	default:
		return fmt.Errorf("sz: invalid predictor %v", h.predictor)
	}
	if c.litIdx != len(c.literals) {
		return fmt.Errorf("sz: %d literals unconsumed: %w", len(c.literals)-c.litIdx, ErrCorrupt)
	}
	return nil
}

type huffRunStats struct {
	p0        float64
	bitShare0 float64
	entropy   float64
	totalBits int
}

// encodeCodesTo Huffman-encodes the quantization bins into dst and derives
// the compressor-level features of the run. freqs is the symbol frequency
// table the traversal counted in its fused pass — the function performs no
// walk over the code stream beyond the encode itself, and the output is
// sized exactly via the table's EncodedBits so dense streams never regrow.
func encodeCodesTo(dst []byte, syms *huffman.SymbolStream, freqs []uint64, alphabet int) ([]byte, huffRunStats, error) {
	var st huffRunStats
	n := syms.Len()
	zero := alphabet / 2 // quantizer zero bin
	zeroFreq := freqs[zero]
	if n > 0 {
		st.p0 = float64(zeroFreq) / float64(n)
		st.entropy = metrics.SymbolEntropyFromCounts(freqs, uint64(n))
	}
	if n == 0 {
		freqs[0] = 1
	}
	table, err := huffman.BuildTable(freqs)
	if err != nil {
		return nil, st, err
	}
	defer table.Release()
	// One pass both sums the exact payload bit count and zeroes the used
	// frequency slots, handing the arena back a clean table — the alphabet
	// is 64K entries, so folding the clear into a walk we already pay
	// beats a separate 512 KiB memclr on every compression.
	totalBits := 0
	for sym, f := range freqs {
		if f > 0 {
			totalBits += int(f) * int(table.CodeFor(sym).Len)
			freqs[sym] = 0
		}
	}
	if n == 0 {
		totalBits = 0
	}
	st.totalBits = totalBits
	if totalBits > 0 {
		st.bitShare0 = float64(uint64(table.CodeFor(zero).Len)*zeroFreq) / float64(totalBits)
	}
	// totalBits (Σ freq × code length over the fused frequency table) is
	// exactly the payload bit count, so the encoder skips its own counting
	// pass over the symbol stream.
	enc, err := huffman.EncodeToSized(dst, syms, table, totalBits)
	if err != nil {
		return nil, st, err
	}
	return enc, st, nil
}

// MaxAbsError returns the largest absolute difference between two equally
// sized slices. It is the invariant checked by the error-bound tests.
func MaxAbsError(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	var m float64
	for i := 0; i < n; i++ {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

package sz

import (
	"fmt"
	"slices"

	"ocelot/internal/ans"
	"ocelot/internal/codec"
	"ocelot/internal/huffman"
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
	// HuffP0 is the zero bin's share of the coded section's bits (the
	// paper's P0 feature, which it measured on Huffman bits): each code
	// costs −log2 of its probability in its context's table.
	HuffP0 float64
	// QuantEntropy is the Shannon entropy (bits/symbol) of the quantization
	// codes (the paper's quantization-entropy feature).
	QuantEntropy float64
	// HuffmanBits is the size of the coded section, in bits: the
	// entropy-coded quantization codes, tables included.
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
// the wide-escape side lane).
type traversal struct {
	q        *quant.Quantizer
	data     []float64 // original values (encode only)
	recon    []float64
	syms     *huffman.SymbolStream
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
// the stream plus run statistics. Scratch buffers (code stream, entropy
// coder tables, reconstruction, coded section) come from a
// sync.Pool-backed arena, so steady-state campaign runs allocate only the
// returned stream.
func Compress(data []float64, dims []int, cfg Config) ([]byte, *Stats, error) {
	return compress(data, dims, cfg, ans.V3)
}

// compress is Compress with the coded section in layout version, ans.V2
// or ans.V3 (which falls back to ans.V2 where its fit needs it); the
// stream's version is the section's.
func compress(data []float64, dims []int, cfg Config, version int) ([]byte, *Stats, error) {
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

	codes, sum, version, err := a.coder.Encode(a.enc[:0], c.syms, q.Radius(), version)
	if err != nil {
		return nil, nil, err
	}
	a.enc = codes
	h := &header{
		version:   uint8(version),
		predictor: cfg.Predictor,
		interp:    cfg.Interp,
		boundMode: cfg.BoundMode,
		radius:    q.Radius(),
		absEB:     absEB,
		dims:      dims,
	}
	inner := &innerPayload{literals: c.literals, coeffs: c.coeffs, codes: codes}
	stream := inner.marshalTo(h.marshal())

	st := &Stats{
		NumPoints:       len(data),
		CompressedBytes: len(stream),
		NumEscapes:      len(c.literals),
		P0Quant:         float64(sum.Zero) / float64(len(data)),
		HuffP0:          sum.ZeroShare,
		QuantEntropy:    sum.Entropy,
		HuffmanBits:     8 * len(codes),
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
	a := getArena()
	defer a.release()
	h, recon, err := a.decodeField(stream, false)
	if err != nil {
		return nil, nil, err
	}
	return recon, slices.Clone(h.dims), nil
}

// DecodeTiles is Decompress in codec.DecodeTiles form. It rebuilds the
// field in the pooled arena's reconstruction buffer instead of a fresh
// one and hands it to visit whole, so a destination that audits and
// digests each member allocates no reconstruction; a chunked container
// goes through DecodeChunkedTiles. It accepts and rejects exactly the
// streams Decompress does. tile is not used: the interp passes reach
// across the whole field.
func DecodeTiles(stream []byte, tile []float64, visit codec.Visit) ([]int, error) {
	if IsChunked(stream) {
		return DecodeChunkedTiles(stream, tile, visit)
	}
	a := getArena()
	defer a.release()
	h, recon, err := a.decodeField(stream, true)
	if err != nil {
		return nil, err
	}
	if err := visit(0, recon); err != nil {
		return nil, err
	}
	return slices.Clone(h.dims), nil
}

// decodeField decodes a stream's codes into the arena and rebuilds its
// field: in the arena's reconstruction buffer when pooled is set, whose
// write-before-read discipline (see arena) holds for decoding as it does
// for encoding, or else in a fresh slice the caller may keep.
func (a *arena) decodeField(stream []byte, pooled bool) (*header, []float64, error) {
	h, inner, err := a.decodeCodes(stream)
	if err != nil {
		return nil, nil, err
	}
	n := len(a.syms.Packed)
	var recon []float64
	if pooled {
		recon = a.reconScratch(n)
	} else {
		recon = make([]float64, n)
	}
	c := &traversal{
		q:        quant.New(h.absEB, h.radius),
		recon:    recon,
		syms:     &a.syms,
		literals: inner.literals,
		coeffs:   inner.coeffs,
		sc:       &a.interp,
	}
	if err := c.decode(h); err != nil {
		return nil, nil, err
	}
	return h, recon, nil
}

// decodeCodes parses a stream's header and body and decodes its
// quantization codes into a.syms: one code per point, one literal per
// escape code — or ErrCorrupt. The body is the literals, the coefficients
// and an internal/ans section in the stream version's layout.
func (a *arena) decodeCodes(stream []byte) (*header, *innerPayload, error) {
	h, body, err := parseHeader(stream)
	if err != nil {
		return nil, nil, err
	}
	inner, err := parseInnerPayload(body)
	if err != nil {
		return nil, nil, err
	}
	n := 1
	for _, d := range h.dims {
		n *= d
	}
	syms := a.symsScratch(0)
	escapes, err := a.coder.Decode(syms, inner.codes, n, h.radius, int(h.version))
	if err != nil {
		return nil, nil, fmt.Errorf("sz: codes: %w: %w", err, ErrCorrupt)
	}
	// The traversal consumes one literal per escape code; a crafted stream
	// whose escape count exceeds its literal count would index past the
	// literals slice mid-traversal, so the invariant is checked up front.
	if escapes != len(inner.literals) {
		return nil, nil, fmt.Errorf("sz: %d escape codes for %d literals: %w", escapes, len(inner.literals), ErrCorrupt)
	}
	return h, inner, nil
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

package sz

import (
	"fmt"
	"math"

	"ocelot/internal/huffman"
	"ocelot/internal/lossless"
	"ocelot/internal/quant"
)

// This file keeps the version 1 stream writer, in the pre-overhaul form of
// its entropy stage, as an executable oracle: quantization codes
// materialized as []int (eight bytes per symbol), a separate
// frequency-count pass, the regrow-prone ReferenceEncode, DEFLATE over
// the whole body, the bit-by-bit ReferenceDecode, and fresh allocations
// for every buffer. The predictor traversal itself is shared with the
// production path, so a version 1 stream from here and a version 2
// stream from Compress differ only in how the codes are entropy-coded:
// TestEntropyStageOnlyChange (hotpath_test.go) asserts both decode to the
// same code stream and the same reconstruction bits.

// CompressReference writes the version 1 stream of data: Huffman-coded
// quantization codes and a DEFLATE pass over the body, with the
// pre-overhaul allocation profile. Retained as the oracle Compress's
// version 2 streams are checked against; new code should call Compress.
func CompressReference(data []float64, dims []int, cfg Config) ([]byte, *Stats, error) {
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
	c := &traversal{
		q:     q,
		data:  data,
		recon: make([]float64, len(data)),
		syms:  &huffman.SymbolStream{Packed: make([]uint16, 0, len(data))},
		sc:    &interpScratch{},
	}
	if err := c.encode(dims, cfg); err != nil {
		return nil, nil, err
	}
	codes := c.syms.Ints() // the old []int materialization

	huffBytes, huffStats, err := encodeCodesReference(codes, q.AlphabetSize())
	if err != nil {
		return nil, nil, err
	}
	inner := &innerPayload{literals: c.literals, coeffs: c.coeffs, codes: huffBytes}
	body, err := lossless.ReferenceCompress(inner.marshal(), lossless.Deflate)
	if err != nil {
		return nil, nil, err
	}
	h := &header{
		version:   1,
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

// DecompressReference is the pre-overhaul Decompress of a version 1
// stream: the bit-by-bit bucket decoder into []int codes, fresh buffers
// throughout. (Chunked containers are not routed — it exists to benchmark
// the single-stream path.)
func DecompressReference(stream []byte) ([]float64, []int, error) {
	h, body, err := parseHeader(stream)
	if err != nil {
		return nil, nil, err
	}
	if h.version != 1 {
		return nil, nil, fmt.Errorf("sz: the reference decoder reads version 1 streams, not %d", h.version)
	}
	innerBytes, err := lossless.ReferenceDecompress(body)
	if err != nil {
		return nil, nil, fmt.Errorf("sz: body: %w", err)
	}
	inner, err := parseInnerPayload(innerBytes)
	if err != nil {
		return nil, nil, err
	}
	codes, err := huffman.ReferenceDecode(inner.codes)
	if err != nil {
		return nil, nil, fmt.Errorf("sz: codes: %w", err)
	}
	n := 1
	for _, d := range h.dims {
		n *= d
	}
	if len(codes) != n {
		return nil, nil, fmt.Errorf("sz: code count %d != points %d: %w", len(codes), n, ErrCorrupt)
	}
	escapes := 0
	for _, code := range codes {
		if code == quant.EscapeCode {
			escapes++
		}
	}
	if escapes != len(inner.literals) {
		return nil, nil, fmt.Errorf("sz: %d escape codes for %d literals: %w", escapes, len(inner.literals), ErrCorrupt)
	}
	var syms huffman.SymbolStream
	syms.Packed = make([]uint16, 0, len(codes))
	syms.AppendInts(codes)
	c := &traversal{
		q:        quant.New(h.absEB, h.radius),
		recon:    make([]float64, n),
		syms:     &syms,
		literals: inner.literals,
		coeffs:   inner.coeffs,
		sc:       &interpScratch{},
	}
	if err := c.decode(h); err != nil {
		return nil, nil, err
	}
	dims := make([]int, len(h.dims))
	copy(dims, h.dims)
	return c.recon, dims, nil
}

// huffRunStats are the run statistics of a version 1 entropy stage.
type huffRunStats struct {
	p0        float64
	bitShare0 float64
	entropy   float64
	totalBits int
}

// encodeCodesReference is the pre-overhaul encodeCodes: a dedicated
// frequency pass over the []int codes, the regrow-prone encoder, and a
// locally duplicated entropy loop.
func encodeCodesReference(codes []int, alphabet int) ([]byte, huffRunStats, error) {
	var st huffRunStats
	freqs := make([]uint64, alphabet)
	for _, s := range codes {
		freqs[s]++
	}
	zero := alphabet / 2 // quantizer zero bin
	if len(codes) > 0 {
		st.p0 = float64(freqs[zero]) / float64(len(codes))
		st.entropy = refSymbolEntropy(freqs, len(codes))
	}
	if len(codes) == 0 {
		freqs[0] = 1
	}
	table, err := huffman.ReferenceBuildTable(freqs)
	if err != nil {
		return nil, st, err
	}
	totalBits := 0
	for sym, f := range freqs {
		if f > 0 {
			c := table.CodeFor(sym)
			totalBits += int(f) * int(c.Len)
		}
	}
	if len(codes) == 0 {
		totalBits = 0
	}
	st.totalBits = totalBits
	if totalBits > 0 {
		st.bitShare0 = float64(uint64(table.CodeFor(zero).Len)*freqs[zero]) / float64(totalBits)
	}
	enc, err := huffman.ReferenceEncode(codes, table)
	if err != nil {
		return nil, st, err
	}
	return enc, st, nil
}

// refSymbolEntropy is the entropy loop exactly as the pre-overhaul
// compressor carried it.
func refSymbolEntropy(freqs []uint64, total int) float64 {
	if total == 0 {
		return 0
	}
	var h float64
	ft := float64(total)
	for _, f := range freqs {
		if f == 0 {
			continue
		}
		p := float64(f) / ft
		h -= p * math.Log2(p)
	}
	return h
}

package sz

import (
	"fmt"
	"math"
	"slices"

	"ocelot/internal/huffman"
	"ocelot/internal/lossless"
	"ocelot/internal/oracle"
	"ocelot/internal/quant"
)

// This file keeps the version 1 stream writer, in the pre-overhaul form of
// its entropy stage, and the version 1 readers, which shipping code no
// longer carries, as an executable oracle: quantization codes
// materialized as []int (eight bytes per symbol), a separate
// frequency-count pass, the regrow-prone ReferenceEncode, DEFLATE over
// the whole body, the bit-by-bit ReferenceDecode, and fresh allocations
// for every buffer. The predictor traversal itself is shared with the
// production path, so a version 1 stream from here and the stream
// Compress writes differ only in how the codes are entropy-coded:
// TestEntropyStageOnlyChange (hotpath_test.go) asserts both decode to the
// same code stream and the same reconstruction bits.

// CompressReference writes the version 1 stream of data: Huffman-coded
// quantization codes and a DEFLATE pass over the body, with the
// pre-overhaul allocation profile. Retained as the oracle Compress's
// streams are checked against; new code should call Compress.
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
	body, err := oracle.ReferenceCompress(inner.marshal(), lossless.Deflate)
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

// parseHeaderV1 parses the header of a version 1 stream, which
// parseHeader refuses: its fields are laid out as in every later version.
func parseHeaderV1(stream []byte) (*header, []byte, error) {
	if len(stream) < 5 || stream[4] != 1 {
		return nil, nil, fmt.Errorf("sz: not a version 1 stream: %w", ErrCorrupt)
	}
	patched := slices.Clone(stream)
	patched[4] = streamVersion
	h, body, err := parseHeader(patched)
	if err != nil {
		return nil, nil, err
	}
	h.version = 1
	return h, body, nil
}

// decodeCodesV1 is the version 1 reader the shipping decoder carried: the
// body inflates, and its Huffman payload decodes into a.syms, one code per
// point and one literal per escape code — or ErrCorrupt.
func decodeCodesV1(a *arena, stream []byte) (*header, *innerPayload, error) {
	h, body, err := parseHeaderV1(stream)
	if err != nil {
		return nil, nil, err
	}
	if body, err = lossless.Decompress(body); err != nil {
		return nil, nil, fmt.Errorf("sz: body: %w", err)
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
	if err := huffman.DecodeInto(syms, inner.codes); err != nil {
		return nil, nil, fmt.Errorf("sz: codes: %w", err)
	}
	if syms.Len() != n {
		return nil, nil, fmt.Errorf("sz: code count %d != points %d: %w", syms.Len(), n, ErrCorrupt)
	}
	// Wide-lane symbols are ≥ huffman.WideEscape, never the escape bin.
	escapes := 0
	for _, p := range syms.Packed {
		if p == quant.EscapeCode {
			escapes++
		}
	}
	if escapes != len(inner.literals) {
		return nil, nil, fmt.Errorf("sz: %d escape codes for %d literals: %w", escapes, len(inner.literals), ErrCorrupt)
	}
	return h, inner, nil
}

// decompressV1 decodes a version 1 stream, or a chunked container of
// them, through decodeCodesV1 and the shipping traversal.
func decompressV1(stream []byte) ([]float64, []int, error) {
	if IsChunked(stream) {
		chunks, err := SplitChunked(stream)
		if err != nil {
			return nil, nil, err
		}
		var recon []float64
		var dims []int
		for i, chunk := range chunks {
			part, sub, err := decompressV1(chunk)
			if err != nil {
				return nil, nil, err
			}
			if dims, err = joinChunkDims(dims, sub, i); err != nil {
				return nil, nil, err
			}
			recon = append(recon, part...)
		}
		return recon, dims, nil
	}
	a := &arena{}
	h, inner, err := decodeCodesV1(a, stream)
	if err != nil {
		return nil, nil, err
	}
	c := &traversal{
		q:        quant.New(h.absEB, h.radius),
		recon:    make([]float64, a.syms.Len()),
		syms:     &a.syms,
		literals: inner.literals,
		coeffs:   inner.coeffs,
		sc:       &a.interp,
	}
	if err := c.decode(h); err != nil {
		return nil, nil, err
	}
	return c.recon, slices.Clone(h.dims), nil
}

// DecompressReference is the pre-overhaul Decompress of a version 1
// stream: the bit-by-bit bucket decoder into []int codes, fresh buffers
// throughout. (Chunked containers are not routed — it exists to benchmark
// the single-stream path.)
func DecompressReference(stream []byte) ([]float64, []int, error) {
	h, body, err := parseHeaderV1(stream)
	if err != nil {
		return nil, nil, err
	}
	innerBytes, err := oracle.ReferenceDecompress(body)
	if err != nil {
		return nil, nil, fmt.Errorf("sz: body: %w", err)
	}
	inner, err := parseInnerPayload(innerBytes)
	if err != nil {
		return nil, nil, err
	}
	codes, err := oracle.ReferenceDecode(inner.codes)
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
	table, err := oracle.ReferenceBuildTable(freqs)
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
	enc, err := oracle.ReferenceEncode(codes, table)
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

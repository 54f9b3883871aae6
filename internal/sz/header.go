package sz

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// streamMagic identifies an Ocelot-SZ compressed stream.
const streamMagic = 0x4F43535A // "OCSZ"

// streamVersion is bumped on incompatible layout changes, and is the
// version Compress writes. Versions 2 and 3 code the quantization codes
// with the context-modelled rANS coder of internal/ans and have no
// lossless pass; the stream version is the layout version of the coded
// section (ans.V2, ans.V3). Version 3 codes it in 16 lanes that the AVX2
// kernels of internal/simd run; Compress writes version 2 only for a
// stream whose fit needs a table log past 16. Both decode. Version 1,
// which coded the codes with Huffman and then DEFLATEd the whole body, is
// refused with a *VersionError.
const streamVersion = 3

// ErrCorrupt indicates a malformed compressed stream.
var ErrCorrupt = errors.New("sz: corrupt stream")

// VersionError is the error a stream of a version this package does not
// read fails with. It is an ErrCorrupt: no stream this package writes
// carries it.
type VersionError struct{ Version int }

// Error names the version.
func (e *VersionError) Error() string {
	return fmt.Sprintf("sz: stream version %d is not read (versions 2 and %d are)", e.Version, streamVersion)
}

// Unwrap makes a VersionError an ErrCorrupt.
func (e *VersionError) Unwrap() error { return ErrCorrupt }

// header is the fixed, uncompressed prefix of every stream. It carries
// everything needed to re-run the predictor traversal on decompression.
type header struct {
	version   uint8 // 0 writes streamVersion
	predictor Predictor
	interp    InterpMode
	boundMode BoundMode
	radius    int
	absEB     float64 // resolved absolute error bound
	dims      []int
}

func (h *header) marshal() []byte {
	out := make([]byte, 0, 32+8*len(h.dims))
	var b4 [4]byte
	var b8 [8]byte
	binary.LittleEndian.PutUint32(b4[:], streamMagic)
	out = append(out, b4[:]...)
	version := h.version
	if version == 0 {
		version = streamVersion
	}
	out = append(out, version, byte(h.predictor), byte(h.interp), byte(h.boundMode))
	binary.LittleEndian.PutUint32(b4[:], uint32(h.radius))
	out = append(out, b4[:]...)
	binary.LittleEndian.PutUint64(b8[:], math.Float64bits(h.absEB))
	out = append(out, b8[:]...)
	out = append(out, byte(len(h.dims)))
	for _, d := range h.dims {
		binary.LittleEndian.PutUint64(b8[:], uint64(d))
		out = append(out, b8[:]...)
	}
	return out
}

func parseHeader(stream []byte) (*header, []byte, error) {
	if len(stream) < 21 {
		return nil, nil, ErrCorrupt
	}
	if binary.LittleEndian.Uint32(stream[:4]) != streamMagic {
		return nil, nil, fmt.Errorf("sz: bad magic: %w", ErrCorrupt)
	}
	if stream[4] < 2 || stream[4] > streamVersion {
		return nil, nil, &VersionError{int(stream[4])}
	}
	h := &header{
		version:   stream[4],
		predictor: Predictor(stream[5]),
		interp:    InterpMode(stream[6]),
		boundMode: BoundMode(stream[7]),
		radius:    int(binary.LittleEndian.Uint32(stream[8:12])),
		absEB:     math.Float64frombits(binary.LittleEndian.Uint64(stream[12:20])),
	}
	nd := int(stream[20])
	if nd == 0 || nd > 4 {
		return nil, nil, ErrCorrupt
	}
	need := 21 + 8*nd
	if len(stream) < need {
		return nil, nil, ErrCorrupt
	}
	h.dims = make([]int, nd)
	total := uint64(1)
	for i := 0; i < nd; i++ {
		d := binary.LittleEndian.Uint64(stream[21+8*i : 29+8*i])
		if d == 0 || d > 1<<32 {
			return nil, nil, ErrCorrupt
		}
		// Check before multiplying: the product must stay ≤ 2^40 without
		// ever wrapping, or crafted dims reach downstream consumers (e.g.
		// the chunked container's size pass) as a negative point count.
		if total > (1<<40)/d {
			return nil, nil, ErrCorrupt
		}
		total *= d
		h.dims[i] = int(d)
	}
	if h.absEB <= 0 || math.IsNaN(h.absEB) || math.IsInf(h.absEB, 0) {
		return nil, nil, ErrCorrupt
	}
	if h.radius <= 0 || h.radius > 1<<23 {
		return nil, nil, ErrCorrupt
	}
	switch h.predictor {
	case PredictorLorenzo, PredictorInterp, PredictorRegression:
	default:
		return nil, nil, ErrCorrupt
	}
	return h, stream[need:], nil
}

// innerPayload is the body: literals, regression coefficients, and the
// entropy-coded quantization codes, an internal/ans section.
type innerPayload struct {
	literals []float64
	coeffs   []float64 // stored with float32 precision
	codes    []byte
}

func (p *innerPayload) marshal() []byte {
	return p.marshalTo(nil)
}

// marshalTo appends the payload to dst (growing it at most once), so the
// hot path can reuse a pooled buffer for the marshaled body.
func (p *innerPayload) marshalTo(dst []byte) []byte {
	need := len(dst) + 24 + 8*len(p.literals) + 4*len(p.coeffs) + len(p.codes)
	var out []byte
	if cap(dst) < need {
		out = make([]byte, len(dst), need)
		copy(out, dst)
	} else {
		out = dst
	}
	var b8 [8]byte
	var b4 [4]byte
	binary.LittleEndian.PutUint64(b8[:], uint64(len(p.literals)))
	out = append(out, b8[:]...)
	for _, v := range p.literals {
		binary.LittleEndian.PutUint64(b8[:], math.Float64bits(v))
		out = append(out, b8[:]...)
	}
	binary.LittleEndian.PutUint64(b8[:], uint64(len(p.coeffs)))
	out = append(out, b8[:]...)
	for _, v := range p.coeffs {
		binary.LittleEndian.PutUint32(b4[:], math.Float32bits(float32(v)))
		out = append(out, b4[:]...)
	}
	binary.LittleEndian.PutUint64(b8[:], uint64(len(p.codes)))
	out = append(out, b8[:]...)
	out = append(out, p.codes...)
	return out
}

func parseInnerPayload(body []byte) (*innerPayload, error) {
	p := &innerPayload{}
	off := 0
	readU64 := func() (uint64, bool) {
		if off+8 > len(body) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(body[off : off+8])
		off += 8
		return v, true
	}
	nLit, ok := readU64()
	if !ok || nLit > 1<<36 {
		return nil, ErrCorrupt
	}
	if off+int(nLit)*8 > len(body) {
		return nil, ErrCorrupt
	}
	p.literals = make([]float64, nLit)
	for i := range p.literals {
		p.literals[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[off : off+8]))
		off += 8
	}
	nCoef, ok := readU64()
	if !ok || nCoef > 1<<36 {
		return nil, ErrCorrupt
	}
	if off+int(nCoef)*4 > len(body) {
		return nil, ErrCorrupt
	}
	p.coeffs = make([]float64, nCoef)
	for i := range p.coeffs {
		p.coeffs[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(body[off : off+4])))
		off += 4
	}
	// Compare against the remaining bytes without converting to int: a
	// crafted 64-bit length must not wrap negative past the bounds check.
	nCodes, ok := readU64()
	if !ok || nCodes > uint64(len(body)-off) {
		return nil, ErrCorrupt
	}
	p.codes = body[off : off+int(nCodes)]
	return p, nil
}

// Package codec defines the pluggable compressor abstraction of the
// pipeline: a Codec interface every error-bounded lossy compressor
// implements, plus a process-wide registry keyed by name that dispatches
// decompression on each stream's 4-byte magic. The campaign engine, the
// quality predictor, and the planner all speak to compressors through this
// package, so adding a codec (register it in an init function, as
// internal/sz and internal/szx do) automatically extends the candidate
// grid, the CLI's -codec flag, and transparent decode of mixed-codec
// archives. DecodeTiles is the streaming form of Decompress: the
// destination audits and digests each cache-sized tile as it is decoded.
package codec

import (
	"fmt"
	"math"
	"strings"
)

// Params is the codec-neutral compression request handed to every codec.
type Params struct {
	// AbsErrorBound is the resolved absolute error tolerance; must be > 0.
	// Every reconstructed value is guaranteed within this distance of the
	// original.
	AbsErrorBound float64
	// PredictorHint names a decorrelation pipeline for codecs that expose
	// one ("lorenzo" | "interp" | "regression"). Codecs whose Caps report
	// no predictor stage ignore it. Empty selects the codec's default.
	PredictorHint string
}

// Validate checks the request.
func (p Params) Validate() error {
	if p.AbsErrorBound <= 0 {
		return fmt.Errorf("codec: error bound must be positive (got %g)", p.AbsErrorBound)
	}
	return nil
}

// RelativeBound is the one relative-to-absolute error-bound resolution:
// relEB × valueRange, the range being max − min over a field's non-NaN
// values (metrics.ValueRange). A range that is zero (a constant, empty or
// all-NaN field), negative, NaN or infinite falls back to 1, so a
// degenerate field still gets a usable bound. sz.Config.AbsoluteBound and
// szx's relative entry both resolve through it, so the two codecs cannot
// disagree on the fallback.
func RelativeBound(relEB, valueRange float64) float64 {
	if valueRange <= 0 || math.IsNaN(valueRange) || math.IsInf(valueRange, 0) {
		valueRange = 1
	}
	return relEB * valueRange
}

// Caps describes what a codec can do, so planners and CLIs can adapt the
// knobs they expose without type-switching on implementations.
type Caps struct {
	// Predictors reports whether the codec honours Params.PredictorHint
	// (the sz3 family does; szx has a fixed block pipeline).
	Predictors bool
}

// Codec is one error-bounded lossy compressor behind the registry. All
// implementations must be safe for concurrent use: campaign stages call
// Compress and Decompress from many goroutines at once.
type Codec interface {
	// Name is the registry key ("sz3", "szx").
	Name() string
	// Magic is the little-endian 4-byte prefix identifying this codec's
	// streams; Decompress dispatches on it.
	Magic() uint32
	// Compress encodes a row-major field (dims[0] slowest) under p. Every
	// reconstructed value differs from the original by at most
	// p.AbsErrorBound.
	Compress(data []float64, dims []int, p Params) ([]byte, error)
	// Decompress decodes a stream carrying this codec's magic, returning
	// the reconstruction and its shape. Malformed streams must error (never
	// panic).
	Decompress(stream []byte) ([]float64, []int, error)
	// StreamDims parses only the stream header and returns the field shape
	// — the cheap probe container framing uses to validate chunk geometry
	// without decoding payloads.
	StreamDims(stream []byte) ([]int, error)
	// Probe runs the codec's cheap sampling pass: every stride-th point is
	// quantized the way a real compression run would bin it, returning
	// quantization codes on the shared alphabet (escape = 0, zero-residual
	// bin = radius) that feed the quality predictor's compressor features.
	Probe(data []float64, dims []int, p Params, stride int) ([]int, error)
	// Caps describes the codec's capabilities.
	Caps() Caps
}

// Pooled is implemented by codecs that can lend a caller their own pooled
// scratch instead of an exact-length copy of the stream — for a caller,
// like the campaign's pack stage, that copies each stream once into an
// archive and then drops it. Each method returns the stream with a release
// func: the stream stays valid until release is called, and the caller
// calls release once, after its last read of the stream. A stream from
// Codec.Compress is never pooled: it stays its caller's.
type Pooled interface {
	// CompressPooled is Compress into the codec's scratch: the same bytes
	// under the same bound.
	CompressPooled(data []float64, dims []int, p Params) (stream []byte, release func(), err error)
	// CompressRelative is CompressPooled under a relative bound that the
	// codec resolves from its own scan of data: relEB × the value range of
	// data, through RelativeBound. It returns the absolute bound it used,
	// which is exactly RelativeBound(relEB, metrics.ValueRange(data)), and
	// the stream is byte for byte CompressPooled's under that bound. It
	// reads p for everything but the bound.
	CompressRelative(data []float64, dims []int, relEB float64, p Params) (stream []byte, absEB float64, release func(), err error)
}

// TileLen is the tile, in values, that DecodeTiles callers decode into:
// 32 KB of float64, small enough to stay in a core's cache while the caller
// reads it back, and large enough to hold a block of any szx stream
// (szx.MaxBlockSize).
const TileLen = 4096

// Visit receives one tile of a reconstruction: the values at indices
// [start, start+len(vals)) of the field, in row-major order. Tiles arrive
// in index order, each starting where the previous one ended. vals is only
// valid during the call — the decoder reuses it for the next tile.
type Visit func(start int, vals []float64) error

// TileDecoder is implemented by codecs that can decode a stream without
// allocating the field (see DecodeTiles): szx decodes into the caller's
// tile block by block, sz3 rebuilds the field in pooled scratch of its own.
type TileDecoder interface {
	// DecodeTiles decodes stream and hands its values to visit in index
	// order: in tile, a whole number of the codec's blocks at a time, or,
	// for a codec whose prediction reaches across the field, all at once
	// from its own scratch. It accepts and rejects exactly the streams
	// Decompress does and returns the same shape; a visit error aborts the
	// decode and is returned as is.
	DecodeTiles(stream []byte, tile []float64, visit Visit) ([]int, error)
}

// UnknownName builds the canonical unknown-name error used by every
// name-keyed lookup (codec names here, predictor names in internal/sz):
// it names the kind, quotes the offending value, and lists the valid
// names, so CLI errors are self-documenting.
func UnknownName(kind, got string, valid []string) error {
	return fmt.Errorf("unknown %s %q (valid: %s)", kind, got, strings.Join(valid, ", "))
}

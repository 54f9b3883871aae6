// Package sz implements a prediction-based error-bounded lossy compressor in
// the style of SZ2/SZ3 (Liang et al., "SZ3: A modular framework for composing
// prediction-based error-bounded lossy compressors"). The pipeline is
//
//	predict → linear-scale quantize → context-modelled rANS (internal/ans)
//
// with three interchangeable predictors: multidimensional Lorenzo,
// multilevel spline interpolation (the SZ3-interp default), and per-block
// linear regression (the SZ2 style). Compression guarantees that every
// reconstructed value differs from the original by at most the requested
// absolute error bound. Streams of version 1, whose entropy stage was
// Huffman followed by DEFLATE, still decode; only the package's tests
// still write them (CompressReference, the pre-overhaul oracle).
package sz

import (
	"errors"
	"fmt"
	"math"

	"ocelot/internal/codec"
	"ocelot/internal/metrics"
)

// Predictor selects the decorrelation stage of the pipeline.
type Predictor uint8

const (
	// PredictorLorenzo uses the n-dimensional Lorenzo predictor.
	PredictorLorenzo Predictor = iota + 1
	// PredictorInterp uses multilevel spline interpolation (SZ3 default).
	PredictorInterp
	// PredictorRegression uses per-block linear regression (SZ2 style).
	PredictorRegression
)

// String implements fmt.Stringer.
func (p Predictor) String() string {
	switch p {
	case PredictorLorenzo:
		return "lorenzo"
	case PredictorInterp:
		return "interp"
	case PredictorRegression:
		return "regression"
	default:
		return fmt.Sprintf("predictor(%d)", uint8(p))
	}
}

// Hint renders p as a codec.Params.PredictorHint: empty for the zero value
// (the codec's default pipeline), the canonical name otherwise.
func (p Predictor) Hint() string {
	if p == 0 {
		return ""
	}
	return p.String()
}

// PredictorNames lists the canonical predictor names ParsePredictor
// accepts, in the order error messages cite them.
func PredictorNames() []string {
	return []string{"lorenzo", "interp", "regression"}
}

// ParsePredictor converts a string name into a Predictor ("" selects the
// interp default, as "" selects the default codec and engine). Unknown
// names error with the valid list, using the same consolidated format as
// the codec registry's name lookup (codec.UnknownName).
func ParsePredictor(s string) (Predictor, error) {
	switch s {
	case "lorenzo":
		return PredictorLorenzo, nil
	case "", "interp", "interpolation", "sz-interp":
		return PredictorInterp, nil
	case "regression", "reg":
		return PredictorRegression, nil
	default:
		return 0, fmt.Errorf("sz: %w", codec.UnknownName("predictor", s, PredictorNames()))
	}
}

// InterpMode selects the interpolation basis for PredictorInterp.
type InterpMode uint8

const (
	// InterpLinear interpolates between the two nearest lattice neighbors.
	InterpLinear InterpMode = iota + 1
	// InterpCubic uses a 4-point cubic spline where available.
	InterpCubic
)

// String implements fmt.Stringer.
func (m InterpMode) String() string {
	switch m {
	case InterpLinear:
		return "linear"
	case InterpCubic:
		return "cubic"
	default:
		return fmt.Sprintf("interp(%d)", uint8(m))
	}
}

// BoundMode selects how the error bound is interpreted.
type BoundMode uint8

const (
	// BoundAbsolute uses ErrorBound directly.
	BoundAbsolute BoundMode = iota + 1
	// BoundRelative scales ErrorBound by the dataset's value range.
	BoundRelative
)

// String implements fmt.Stringer.
func (m BoundMode) String() string {
	switch m {
	case BoundAbsolute:
		return "abs"
	case BoundRelative:
		return "rel"
	default:
		return fmt.Sprintf("bound(%d)", uint8(m))
	}
}

// Config controls a compression run.
type Config struct {
	// ErrorBound is the absolute (or, with BoundRelative, range-relative)
	// error tolerance. Must be > 0.
	ErrorBound float64
	// BoundMode defaults to BoundAbsolute.
	BoundMode BoundMode
	// Predictor defaults to PredictorInterp.
	Predictor Predictor
	// Interp defaults to InterpCubic and only applies to PredictorInterp.
	Interp InterpMode
	// Radius is the quantizer radius; ≤ 0 selects quant.DefaultRadius.
	Radius int
}

// DefaultConfig returns the SZ3-interp default pipeline at the given
// absolute error bound.
func DefaultConfig(eb float64) Config {
	return Config{
		ErrorBound: eb,
		BoundMode:  BoundAbsolute,
		Predictor:  PredictorInterp,
		Interp:     InterpCubic,
	}
}

// AbsoluteBound resolves the configured error bound against data: with
// BoundAbsolute it is ErrorBound itself; with BoundRelative it is
// ErrorBound × the value range of data's non-NaN values
// (metrics.ValueRange), falling back to a range of 1 for constant, empty,
// all-NaN, or non-finite-range data (codec.RelativeBound, the resolution
// szx's relative entry shares). Compress and SampledCodes both
// resolve through this helper, so the predictor's cheap feature pass
// quantizes at exactly the bound the real compression run uses — including
// on degenerate fields. A NaN anywhere, first value included, is skipped
// rather than poisoning the range.
func (c Config) AbsoluteBound(data []float64) float64 {
	if c.BoundMode != BoundRelative || len(data) == 0 {
		return c.ErrorBound
	}
	return codec.RelativeBound(c.ErrorBound, metrics.ValueRange(data))
}

// withDefaults fills zero fields with defaults and validates.
func (c Config) withDefaults() (Config, error) {
	if c.ErrorBound <= 0 || math.IsNaN(c.ErrorBound) || math.IsInf(c.ErrorBound, 0) {
		return c, errors.New("sz: error bound must be positive and finite")
	}
	if c.BoundMode == 0 {
		c.BoundMode = BoundAbsolute
	}
	if c.Predictor == 0 {
		c.Predictor = PredictorInterp
	}
	if c.Interp == 0 {
		c.Interp = InterpCubic
	}
	if c.Radius <= 0 {
		c.Radius = 0 // quant.New substitutes its default
	}
	switch c.Predictor {
	case PredictorLorenzo, PredictorInterp, PredictorRegression:
	default:
		return c, fmt.Errorf("sz: invalid predictor %v", c.Predictor)
	}
	return c, nil
}

// validateDims checks the shape argument.
func validateDims(n int, dims []int) error {
	if len(dims) == 0 || len(dims) > 4 {
		return fmt.Errorf("sz: unsupported dimensionality %d", len(dims))
	}
	total := 1
	for _, d := range dims {
		if d <= 0 {
			return fmt.Errorf("sz: non-positive dimension %d", d)
		}
		total *= d
	}
	if total != n {
		return fmt.Errorf("sz: dims product %d != data length %d", total, n)
	}
	return nil
}

// Package quant implements the linear-scale quantizer used by
// prediction-based error-bounded lossy compressors (SZ2/SZ3 style).
//
// Given a prediction for a data point, the difference between the true value
// and the prediction is mapped to an integer bin of width 2×eb. Recovering
// the value as prediction + bin×2×eb guarantees |recovered − original| ≤ eb.
// Differences that fall outside the bin range escape to a literal (code 0).
package quant

import "math"

// EscapeCode marks a value that could not be quantized within the bin range;
// such values are stored verbatim as literals.
const EscapeCode = 0

// DefaultRadius gives a 16-bit bin alphabet matching SZ's default capacity.
const DefaultRadius = 32768

// Quantizer maps prediction residuals to integer codes under an absolute
// error bound. The zero-residual bin is at code == Radius; code 0 is the
// literal escape. The total alphabet size is 2×Radius.
//
// At the DefaultRadius the full alphabet fits a 16-bit symbol, which is
// what lets the SZ entropy stage carry quantization codes in the compact
// huffman.SymbolStream representation (two bytes per code instead of
// eight); larger radii ride that stream's wide-symbol escape extension.
type Quantizer struct {
	eb     float64
	eb2    float64 // 2×eb, precomputed: bin width, hot in Quantize/Recover
	radius int
	radF   float64 // float64(radius), precomputed for the range check
}

// New returns a Quantizer with the given absolute error bound and radius.
// radius ≤ 0 selects DefaultRadius.
func New(eb float64, radius int) *Quantizer {
	if radius <= 0 {
		radius = DefaultRadius
	}
	// 2×eb is an exact binary scaling, so precomputing it (and using
	// b×(2·eb) in place of (b×2)×eb) yields bit-identical results to the
	// original per-call expressions: both round the exact product 2·b·eb
	// once. Streams stay byte-frozen.
	return &Quantizer{eb: eb, eb2: 2 * eb, radius: radius, radF: float64(radius)}
}

// ErrorBound returns the absolute error bound.
func (q *Quantizer) ErrorBound() float64 { return q.eb }

// Radius returns the quantizer radius (alphabet size is 2×Radius).
func (q *Quantizer) Radius() int { return q.radius }

// AlphabetSize returns the number of distinct codes including the escape.
func (q *Quantizer) AlphabetSize() int { return 2 * q.radius }

// ZeroCode returns the code of the zero-residual bin.
func (q *Quantizer) ZeroCode() int { return q.radius }

// Round returns d rounded to the nearest integer, halves away from zero —
// int(math.Round(d)) for every |d| < 2^52 — without a data-dependent
// branch, which on residuals is a coin flip the predictor loses half the
// time. Every step is exact: int(d) truncates; r = d − trunc(d) is the
// fractional part, which needs no more mantissa bits than d has; and 2r,
// in (−2, 2), truncates to +1 on [0.5, 1), −1 on (−1, −0.5] and 0 between.
func Round(d float64) int {
	t := int(d)
	r := d - float64(t)
	return t + int(r+r)
}

// Quantize maps (value, prediction) to a code and the value recovered from
// that code. ok is false when the residual cannot be represented within the
// error bound, in which case the caller must store the value as a literal
// and use the original value as the reconstruction.
func (q *Quantizer) Quantize(value, pred float64) (code int, recovered float64, ok bool) {
	// Residual in bins of width 2eb. A NaN or ±Inf residual makes d NaN or
	// ±Inf, which fails the range test like any out-of-range bin does.
	d := (value - pred) / q.eb2
	if !(d > -q.radF && d < q.radF) {
		return EscapeCode, value, false
	}
	bin := Round(d)
	// Rounding can land on ±radius; −radius would be code 0, the escape.
	if bin >= q.radius || bin <= -q.radius {
		return EscapeCode, value, false
	}
	// float64(·) rounds the product before the sum: unconverted, gc fuses
	// the two into one multiply-add on arm64 (make nofma).
	rec := pred + float64(float64(bin)*q.eb2)
	// Floating-point rounding can push the recovered value past the bound;
	// escape in that (rare) case to preserve the guarantee.
	if math.Abs(rec-value) > q.eb {
		return EscapeCode, value, false
	}
	return bin + q.radius, rec, true
}

// Recover reconstructs a value from a prediction and a non-escape code.
func (q *Quantizer) Recover(pred float64, code int) float64 {
	return pred + float64(float64(code-q.radius)*q.eb2)
}

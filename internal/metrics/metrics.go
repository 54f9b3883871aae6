// Package metrics provides the data-quality and data-characterization
// metrics used throughout the paper: PSNR (the distortion metric of
// Section VI-C), RMSE, byte-level Shannon entropy (the "chaos level"
// data feature), and basic range statistics (Table I).
package metrics

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"ocelot/internal/simd"
)

// ErrLengthMismatch indicates two slices of different lengths were compared.
var ErrLengthMismatch = errors.New("metrics: length mismatch")

// RangeStats summarizes a field's value distribution (paper Table I).
type RangeStats struct {
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Range float64 `json:"range"`
	Mean  float64 `json:"mean"`
	Std   float64 `json:"std"`
}

// ComputeRange scans data once and returns its range statistics.
// NaN values are skipped; an all-NaN or empty input yields zeros.
func ComputeRange(data []float64) RangeStats {
	var st RangeStats
	n := 0
	var sum, sumSq float64
	for _, v := range data {
		if math.IsNaN(v) {
			continue
		}
		if n == 0 {
			st.Min, st.Max = v, v
		} else {
			if v < st.Min {
				st.Min = v
			}
			if v > st.Max {
				st.Max = v
			}
		}
		sum += v
		sumSq += v * v
		n++
	}
	if n == 0 {
		return RangeStats{}
	}
	st.Range = st.Max - st.Min
	st.Mean = sum / float64(n)
	variance := sumSq/float64(n) - st.Mean*st.Mean
	if variance > 0 {
		st.Std = math.Sqrt(variance)
	}
	return st
}

// ValueRange returns max − min over the non-NaN values of data — the Range
// ComputeRange reports, bit for bit — without the mean and variance sums,
// for callers on a hot path: sz.Config.AbsoluteBound resolves every
// relative error bound through it, and PSNR takes its peak from it. NaN
// fails both comparisons and is skipped; an all-NaN or empty input yields
// 0.
//
// It is simd.Range: on CPUs with AVX2 the scan runs four values an
// instruction, which measured 22.6 GB/s on 32 Ki in-cache values against
// 4.3 GB/s for the scalar loop, and 6.7 against 3.8 GB/s on 4 Mi values
// from DRAM (BenchmarkKernels, 2-vCPU VM).
func ValueRange(data []float64) float64 {
	return simd.Range(data)
}

// MSE returns the mean squared error between original and reconstructed.
func MSE(original, reconstructed []float64) (float64, error) {
	if len(original) != len(reconstructed) {
		return 0, ErrLengthMismatch
	}
	return meanOf(sumSquaredError(0, original, reconstructed), len(original)), nil
}

// sumSquaredError adds Σ (o[i] − r[i])² to s in index order; r is at least
// as long as o.
func sumSquaredError(s float64, o, r []float64) float64 {
	r = r[:len(o)]
	for i, v := range o {
		d := v - r[i]
		s += d * d
	}
	return s
}

// meanOf divides a sum over n points by n; an empty field has mean 0.
func meanOf(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// RMSE returns the root mean squared error.
func RMSE(original, reconstructed []float64) (float64, error) {
	m, err := MSE(original, reconstructed)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(m), nil
}

// PSNR computes the peak signal-to-noise ratio in dB exactly as Z-checker
// does for scientific data: PSNR = 20·log10(range) − 10·log10(MSE), where
// range is the original data's value range. A perfect reconstruction
// returns +Inf.
func PSNR(original, reconstructed []float64) (float64, error) {
	m, err := MSE(original, reconstructed)
	if err != nil {
		return 0, err
	}
	return psnrOf(m, original), nil
}

// psnrOf scores a mean squared error against the original's value range.
func psnrOf(mse float64, original []float64) float64 {
	if mse == 0 {
		return math.Inf(1)
	}
	r := ValueRange(original)
	if r == 0 {
		return math.Inf(1)
	}
	return 20*math.Log10(r) - 10*math.Log10(mse)
}

// MaxAbsError returns the L∞ distance between the slices.
func MaxAbsError(original, reconstructed []float64) (float64, error) {
	if len(original) != len(reconstructed) {
		return 0, ErrLengthMismatch
	}
	return simd.MaxAbsDiff(0, original, reconstructed), nil
}

// MaxAbsErrorSampled is MaxAbsError over every stride-th point (plus the
// final point, so the tail is never unaudited); stride ≤ 1 audits every
// point, as a campaign's post-decompress bound audit always does.
func MaxAbsErrorSampled(original, reconstructed []float64, stride int) (float64, error) {
	if len(original) != len(reconstructed) {
		return 0, ErrLengthMismatch
	}
	a := NewAudit(original, stride, false)
	if err := a.Add(0, reconstructed); err != nil {
		return 0, err
	}
	return a.MaxAbsError()
}

// Audit computes MaxAbsErrorSampled — and, when asked, PSNR — of a
// reconstruction that arrives a tile at a time in index order, so the
// field is never held whole. The results are bit-identical to those
// functions over the assembled reconstruction: the maximum is
// order-independent, and the squared errors are summed in index order.
type Audit struct {
	orig   []float64
	stride int
	psnr   bool // also sum the squared errors
	next   int  // index the next tile must start at
	max    float64
	sse    float64
}

// NewAudit starts an audit of a reconstruction of original, sampling every
// stride-th point (plus the final one) as MaxAbsErrorSampled does; withPSNR
// adds the squared-error sum PSNR needs over every point.
func NewAudit(original []float64, stride int, withPSNR bool) Audit {
	return Audit{orig: original, stride: stride, psnr: withPSNR}
}

// Add audits the tile holding reconstructed points [start,
// start+len(recon)). Tiles must arrive in order, each starting where the
// previous one ended; a tile that does not, or that runs past the original,
// is rejected with ErrLengthMismatch and leaves the audit unchanged.
func (a *Audit) Add(start int, recon []float64) error {
	if start != a.next || len(recon) > len(a.orig)-start {
		return fmt.Errorf("metrics: tile [%d, %d) of a %d-point field, next point %d: %w",
			start, start+len(recon), len(a.orig), a.next, ErrLengthMismatch)
	}
	o := a.orig[start : start+len(recon)]
	a.next += len(recon)
	if a.stride <= 1 {
		a.max = simd.MaxAbsDiff(a.max, o, recon)
	} else {
		for i := (a.stride - start%a.stride) % a.stride; i < len(o); i += a.stride {
			if d := math.Abs(o[i] - recon[i]); d > a.max {
				a.max = d
			}
		}
		if last := len(o) - 1; a.next == len(a.orig) && last >= 0 {
			if d := math.Abs(o[last] - recon[last]); d > a.max {
				a.max = d
			}
		}
	}
	if a.psnr {
		a.sse = sumSquaredError(a.sse, o, recon)
	}
	return nil
}

// complete reports ErrLengthMismatch unless the tiles covered every point.
func (a *Audit) complete() error {
	if a.next != len(a.orig) {
		return fmt.Errorf("metrics: reconstruction holds %d of %d points: %w", a.next, len(a.orig), ErrLengthMismatch)
	}
	return nil
}

// MaxAbsError returns what MaxAbsErrorSampled returns for the whole
// reconstruction, once the tiles have covered every point.
func (a *Audit) MaxAbsError() (float64, error) {
	if err := a.complete(); err != nil {
		return 0, err
	}
	return a.max, nil
}

// PSNR returns what PSNR returns for the whole reconstruction, once the
// tiles have covered every point. The audit must have been started
// withPSNR.
func (a *Audit) PSNR() (float64, error) {
	if err := a.complete(); err != nil {
		return 0, err
	}
	if !a.psnr {
		return 0, errors.New("metrics: audit was started without PSNR")
	}
	return psnrOf(meanOf(a.sse, len(a.orig)), a.orig), nil
}

// ByteEntropy computes the Shannon entropy (bits/byte) of the IEEE-754
// little-endian byte representation of data, matching the paper's byte-level
// information entropy feature. elementSize must be 4 (float32 views) or 8.
func ByteEntropy(data []float64, elementSize int) float64 {
	var counts [256]int
	total := 0
	var buf [8]byte
	for _, v := range data {
		switch elementSize {
		case 4:
			binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(float32(v)))
			for _, b := range buf[:4] {
				counts[b]++
			}
			total += 4
		default:
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			for _, b := range buf[:] {
				counts[b]++
			}
			total += 8
		}
	}
	if total == 0 {
		return 0
	}
	var h float64
	ft := float64(total)
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / ft
		h -= p * math.Log2(p)
	}
	return h
}

// symbolEntropyFromCounts computes Shannon entropy (bits/symbol) from an
// occurrence-count table, accumulating in index order. Accumulation order
// is the caller-supplied index order: floating-point summation order must
// be deterministic, because downstream decision-tree training amplifies
// ULP-level feature differences into different split structures.
func symbolEntropyFromCounts(counts []uint64, total uint64) float64 {
	if total == 0 {
		return 0
	}
	var h float64
	ft := float64(total)
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / ft
		h -= p * math.Log2(p)
	}
	return h
}

// SymbolEntropy computes the Shannon entropy (bits/symbol) of an integer
// symbol stream, used for the quantization-entropy feature. Counting goes
// through a map (symbols may be sparse and unbounded) and the counts are
// then accumulated in sorted-symbol order via symbolEntropyFromCounts,
// preserving the deterministic summation order identical inputs require
// (a map-ordered sum made identical inputs train different models).
func SymbolEntropy(symbols []int) float64 {
	if len(symbols) == 0 {
		return 0
	}
	counts := make(map[int]int, 256)
	for _, s := range symbols {
		counts[s]++
	}
	syms := make([]int, 0, len(counts))
	for s := range counts {
		syms = append(syms, s)
	}
	sort.Ints(syms)
	ordered := make([]uint64, len(syms))
	for i, s := range syms {
		ordered[i] = uint64(counts[s])
	}
	return symbolEntropyFromCounts(ordered, uint64(len(symbols)))
}

// CompressionRatio returns originalBytes / compressedBytes.
func CompressionRatio(originalBytes, compressedBytes int) float64 {
	if compressedBytes <= 0 {
		return 0
	}
	return float64(originalBytes) / float64(compressedBytes)
}

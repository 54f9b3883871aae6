// Package features extracts the compression-quality prediction features of
// the paper's Section VI (Fig 3), grouped into three families:
//
//   - config-based: error bound and compressor pipeline
//   - data-based: min, max, value range, byte-level entropy, average
//     Lorenzo prediction error
//   - compressor-based: p0 (zero-bin fraction), P0 (zero-bin share of the
//     Huffman payload), quantization-bin entropy, and the run-length
//     estimator Rrle = 1 / ((1−p0)·P0 + (1−P0))
//
// Extraction runs on a subsample of the data (the paper uses 1 point in
// 100) so its cost stays below a few percent of the real compression time.
package features

import (
	"fmt"
	"math"

	"ocelot/internal/codec"
	"ocelot/internal/huffman"
	"ocelot/internal/metrics"
	"ocelot/internal/quant"
	"ocelot/internal/sz"
)

// Names lists the feature vector components in order.
var Names = []string{
	"log10_eb",      // config
	"compressor",    // config: predictor enum as float
	"min",           // data
	"max",           // data
	"value_range",   // data
	"byte_entropy",  // data
	"lorenzo_error", // data: average Lorenzo error (log10-compressed)
	"p0",            // compressor
	"P0",            // compressor
	"quant_entropy", // compressor
	"rle_estimator", // compressor
}

// NumFeatures is the length of every feature vector.
var NumFeatures = len(Names)

// Vector is one extracted feature vector.
type Vector struct {
	Log10EB      float64 `json:"log10Eb"`
	Compressor   float64 `json:"compressor"`
	Min          float64 `json:"min"`
	Max          float64 `json:"max"`
	ValueRange   float64 `json:"valueRange"`
	ByteEntropy  float64 `json:"byteEntropy"`
	LorenzoError float64 `json:"lorenzoError"`
	P0Quant      float64 `json:"p0"`
	HuffP0       float64 `json:"P0"`
	QuantEntropy float64 `json:"quantEntropy"`
	Rrle         float64 `json:"rleEstimator"`
}

// Slice returns the vector in Names order, ready for the decision tree.
func (v *Vector) Slice() []float64 {
	return []float64{
		v.Log10EB, v.Compressor, v.Min, v.Max, v.ValueRange,
		v.ByteEntropy, v.LorenzoError, v.P0Quant, v.HuffP0,
		v.QuantEntropy, v.Rrle,
	}
}

// Options tunes extraction cost.
type Options struct {
	// SampleStride takes one point every SampleStride points (paper: 100);
	// ≤ 0 selects 100.
	SampleStride int
	// EntropySampleCap bounds how many values feed the byte-entropy
	// estimate; ≤ 0 selects 1<<16.
	EntropySampleCap int
	// Codec selects whose sampling probe produces the compressor-based
	// features ("" = the default sz3 codec). The quality predictor trains
	// one tree set per codec, so features must come from the probe of the
	// codec whose outcome they predict.
	Codec string
}

func (o Options) withDefaults() Options {
	if o.SampleStride <= 0 {
		o.SampleStride = 100
	}
	if o.EntropySampleCap <= 0 {
		o.EntropySampleCap = 1 << 16
	}
	return o
}

// AdaptiveStride picks a sampling stride for an n-point field: the paper's
// 1-in-100 assumes multi-megapoint files, so small (test-scale) fields get
// a denser stride that keeps ~2000 sampled points and the compressor
// features statistically sound.
func AdaptiveStride(n int) int { return min(max(n/2000, 1), 100) }

// Extract computes the feature vector for compressing data (shape dims)
// with cfg. Only cfg's bound and predictor are consulted. Only a subsample
// of the data is touched.
func Extract(data []float64, dims []int, cfg sz.Config, opts Options) (*Vector, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("features: empty data")
	}
	opts = opts.withDefaults()
	v := &Vector{}

	// Config-based.
	if cfg.ErrorBound <= 0 {
		return nil, fmt.Errorf("features: error bound must be positive")
	}
	v.Log10EB = math.Log10(cfg.ErrorBound)
	pred := cfg.Predictor
	if pred == 0 {
		pred = sz.PredictorInterp
	}
	v.Compressor = float64(pred)

	// Data-based.
	st := metrics.ComputeRange(data)
	v.Min, v.Max, v.ValueRange = st.Min, st.Max, st.Range

	entropyStride := len(data)/opts.EntropySampleCap + 1
	sampled := data
	if entropyStride > 1 {
		sampled = make([]float64, 0, len(data)/entropyStride+1)
		for i := 0; i < len(data); i += entropyStride {
			sampled = append(sampled, data[i])
		}
	}
	v.ByteEntropy = metrics.ByteEntropy(sampled, 4)

	le, err := sz.AvgLorenzoError(data, dims, opts.SampleStride)
	if err != nil {
		return nil, err
	}
	// Compress the dynamic range so the tree sees comparable magnitudes
	// across applications whose scales differ by orders of magnitude.
	v.LorenzoError = math.Log10(le + 1e-18)

	// Compressor-based: quantize the subsample with the target codec's own
	// probe, then derive p0 / P0 / quantization entropy / Rrle from the
	// sampled bin distribution.
	cdc, err := codec.Lookup(opts.Codec)
	if err != nil {
		return nil, fmt.Errorf("features: %w", err)
	}
	codes, err := cdc.Probe(data, dims, codec.Params{
		AbsErrorBound: cfg.AbsoluteBound(data),
		PredictorHint: cfg.Predictor.Hint(),
	}, opts.SampleStride)
	if err != nil {
		return nil, err
	}
	comp, err := FromCodes(codes, quant.DefaultRadius)
	if err != nil {
		return nil, err
	}
	v.P0Quant = comp.P0Quant
	v.HuffP0 = comp.HuffP0
	v.QuantEntropy = comp.QuantEntropy
	v.Rrle = comp.Rrle
	return v, nil
}

// CompressorFeatures holds just the compressor-based family, reusable from
// either a sampling pass or a full compression run's stats.
type CompressorFeatures struct {
	P0Quant      float64
	HuffP0       float64
	QuantEntropy float64
	Rrle         float64
}

// FromCodes derives compressor-based features from quantization codes with
// the given quantizer radius (zero bin = radius).
func FromCodes(codes []int, radius int) (*CompressorFeatures, error) {
	if len(codes) == 0 {
		return nil, fmt.Errorf("features: no quantization codes")
	}
	maxSym := 0
	for _, c := range codes {
		if c < 0 {
			return nil, fmt.Errorf("features: negative code %d", c)
		}
		if c > maxSym {
			maxSym = c
		}
	}
	alphabet := maxSym + 1
	if alphabet < 2*radius {
		alphabet = 2 * radius
	}
	freqs := make([]uint64, alphabet)
	for _, c := range codes {
		freqs[c]++
	}
	zero := radius
	out := &CompressorFeatures{}
	out.P0Quant = float64(freqs[zero]) / float64(len(codes))
	out.QuantEntropy = metrics.SymbolEntropy(codes)

	table, err := huffman.BuildTable(freqs)
	if err != nil {
		return nil, err
	}
	defer table.Release()
	totalBits := 0
	for sym, f := range freqs {
		if f > 0 {
			totalBits += int(f) * int(table.CodeFor(sym).Len)
		}
	}
	if totalBits > 0 {
		out.HuffP0 = float64(uint64(table.CodeFor(zero).Len)*freqs[zero]) / float64(totalBits)
	}
	out.Rrle = Rrle(out.P0Quant, out.HuffP0)
	return out, nil
}

// Rrle computes the paper's run-length estimator feature:
// Rrle = 1 / ((1 − p0)·P0 + (1 − P0)). Unlike the prior work's ad-hoc C1
// formula, it carries no tuned constant; the tree learns its weight.
func Rrle(p0, hp0 float64) float64 {
	den := (1-p0)*hp0 + (1 - hp0)
	if den <= 1e-9 {
		den = 1e-9
	}
	return 1 / den
}

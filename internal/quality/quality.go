// Package quality implements the paper's compression-quality prediction
// workflow (Section VI): collect (features → measured quality) samples by
// compressing datasets at many error bounds, train decision-tree regressors
// for compression ratio and PSNR, pool the measured compression speed into
// one throughput per codec, and estimate the quality of unseen (dataset,
// config) pairs from a cheap sampling pass.
package quality

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"ocelot/internal/codec"
	"ocelot/internal/datagen"
	"ocelot/internal/dtree"
	"ocelot/internal/features"
	"ocelot/internal/metrics"
	"ocelot/internal/sz"
)

// DefaultErrorBounds are the 11 log-spaced bounds from 1e-6 to 1e-1 used by
// the paper's training sweep.
func DefaultErrorBounds() []float64 {
	out := make([]float64, 11)
	for i := range out {
		out[i] = math.Pow(10, -6+float64(i)*0.5)
	}
	return out
}

// Sample is one training observation: the extracted features plus the
// measured ground truth of an actual compression run.
type Sample struct {
	App      string    `json:"app"`
	Field    string    `json:"field"`
	EB       float64   `json:"eb"`
	Feats    []float64 `json:"features"`
	Ratio    float64   `json:"ratio"`        // raw bytes / compressed bytes
	SecPerMP float64   `json:"secPerMegapt"` // compression seconds per 1e6 points
	PSNR     float64   `json:"psnr"`         // dB; capped for perfect recon
	Points   int       `json:"points"`
}

// CollectOptions configures ground-truth collection.
type CollectOptions struct {
	// ErrorBounds to sweep; nil selects DefaultErrorBounds.
	ErrorBounds []float64
	// Predictor for the compression pipeline; 0 selects interp. Only
	// meaningful for codecs whose Caps report predictor support (sz3).
	Predictor sz.Predictor
	// Codec names the registered codec whose ground truth is collected
	// ("" = sz3). Features are extracted with the same codec's probe, so
	// the trained model predicts that codec's ratio/time/PSNR.
	Codec string
	// SampleStride for feature extraction; ≤ 0 selects
	// features.AdaptiveStride of each field's size.
	SampleStride int
	// WithPSNR also decompresses to measure distortion (2× slower).
	WithPSNR bool
}

// psnrCap replaces +Inf PSNR (perfect reconstruction) so the tree can
// regress on finite targets.
const psnrCap = 200.0

// Collect compresses every field at every error bound and returns the
// feature/ground-truth samples.
func Collect(fields []*datagen.Field, opts CollectOptions) ([]Sample, error) {
	if len(fields) == 0 {
		return nil, errors.New("quality: no fields")
	}
	ebs := opts.ErrorBounds
	if ebs == nil {
		ebs = DefaultErrorBounds()
	}
	cdc, err := codec.Lookup(opts.Codec)
	if err != nil {
		return nil, fmt.Errorf("quality: %w", err)
	}
	samples := make([]Sample, 0, len(fields)*len(ebs))
	for _, f := range fields {
		stride := opts.SampleStride
		if stride <= 0 {
			stride = features.AdaptiveStride(f.NumPoints())
		}
		for _, eb := range ebs {
			// The paper applies value-range-relative bounds per field so that a
			// "1e-3" setting is comparable across fields with wildly different
			// scales; we do the same by resolving to an absolute bound through
			// the one canonical resolver, so degenerate ranges (constant, NaN,
			// Inf fields) use the same fallback the compressor itself applies.
			absEB := sz.Config{ErrorBound: eb, BoundMode: sz.BoundRelative}.AbsoluteBound(f.Data)
			cfg := sz.DefaultConfig(absEB)
			if opts.Predictor != 0 {
				cfg.Predictor = opts.Predictor
			}
			fv, err := features.Extract(f.Data, f.Dims, cfg, features.Options{
				SampleStride: stride,
				Codec:        cdc.Name(),
			})
			if err != nil {
				return nil, fmt.Errorf("quality: extract %s eb=%g: %w", f.ID(), eb, err)
			}
			// Keep the config feature on the *relative* scale so fields of
			// different magnitude share a feature space.
			vec := fv.Slice()
			vec[0] = math.Log10(eb)

			start := time.Now()
			stream, err := cdc.Compress(f.Data, f.Dims, codec.Params{
				AbsErrorBound: absEB,
				PredictorHint: opts.Predictor.Hint(),
			})
			if err != nil {
				return nil, fmt.Errorf("quality: compress %s eb=%g: %w", f.ID(), eb, err)
			}
			elapsed := time.Since(start).Seconds()
			s := Sample{
				App:      f.App,
				Field:    f.Name,
				EB:       eb,
				Feats:    vec,
				Ratio:    metrics.CompressionRatio(f.RawBytes(), len(stream)),
				SecPerMP: elapsed / (float64(f.NumPoints()) / 1e6),
				Points:   f.NumPoints(),
			}
			if opts.WithPSNR {
				recon, _, err := codec.Decompress(stream)
				if err != nil {
					return nil, fmt.Errorf("quality: decompress %s: %w", f.ID(), err)
				}
				p, err := metrics.PSNR(f.Data, recon)
				if err != nil {
					return nil, err
				}
				if math.IsInf(p, 1) || p > psnrCap {
					p = psnrCap
				}
				s.PSNR = p
			}
			samples = append(samples, s)
		}
	}
	return samples, nil
}

// Model bundles the paper's predictor: a ratio and a PSNR regressor plus
// one compression throughput. The top-level set belongs to one codec
// (DefaultCodec, historically sz3); additional codecs carry their own sets
// under Codecs, because the mapping from features to ratio/time/PSNR is
// codec-specific — an ultra-fast codec is cheap everywhere and compresses
// less everywhere, and the planner needs both curves to trade speed
// against ratio.
type Model struct {
	Ratio *dtree.Tree `json:"ratio"`
	PSNR  *dtree.Tree `json:"psnr,omitempty"`
	// CompressMptsPerSec is the codec's pooled compression throughput in
	// megapoints per second, measured while training. Speed is one number
	// per codec, not a per-sample regression: codecs differ by several ×,
	// predictors and bounds within one codec by less than timing noise.
	// 0 means unmeasured and estimates 0 seconds; so does a model saved
	// with the former per-sample "time" tree, a key Load ignores.
	CompressMptsPerSec float64 `json:"compressMptsPerSec"`
	// DefaultCodec names the codec the top-level set was trained for;
	// empty means sz3 (so models saved before the codec registry existed
	// load unchanged).
	DefaultCodec string `json:"defaultCodec,omitempty"`
	// Codecs holds the sets for additional codecs, keyed by registry name.
	// Sub-models never nest further.
	Codecs map[string]*Model `json:"codecs,omitempty"`
}

// defaultCodec resolves the codec the top-level set belongs to.
func (m *Model) defaultCodec() string {
	if m.DefaultCodec == "" {
		return sz.CodecName
	}
	return m.DefaultCodec
}

// codecNames lists the codecs this model can estimate, default first,
// the rest sorted.
func (m *Model) codecNames() []string {
	def := m.defaultCodec()
	rest := make([]string, 0, len(m.Codecs))
	for name := range m.Codecs {
		if name != def {
			rest = append(rest, name)
		}
	}
	slices.Sort(rest)
	return append([]string{def}, rest...)
}

// ForCodec returns the model for a codec name ("" = the model's default).
// Errors name the codecs the model actually covers.
func (m *Model) ForCodec(name string) (*Model, error) {
	if name == "" || name == m.defaultCodec() {
		return m, nil
	}
	if sub, ok := m.Codecs[name]; ok && sub != nil {
		return sub, nil
	}
	return nil, fmt.Errorf("quality: model has no trees for %w",
		codec.UnknownName("codec", name, m.codecNames()))
}

// Train fits the model on samples: the ratio tree, the PSNR tree (skipped
// when the samples carry no PSNR ground truth), and the throughput
// Σ points ÷ Σ measured seconds.
func Train(samples []Sample, params dtree.Params) (*Model, error) {
	if len(samples) == 0 {
		return nil, errors.New("quality: no samples")
	}
	x := make([][]float64, len(samples))
	ratio := make([]float64, len(samples))
	psnr := make([]float64, len(samples))
	hasPSNR := false
	var mpts, sec float64
	for i, s := range samples {
		x[i] = s.Feats
		// Regress log2(ratio): ratios span orders of magnitude and the
		// paper's error metric is multiplicative in spirit.
		ratio[i] = math.Log2(math.Max(s.Ratio, 1e-6))
		psnr[i] = s.PSNR
		if s.PSNR != 0 {
			hasPSNR = true
		}
		mpts += float64(s.Points) / 1e6
		sec += s.SecPerMP * float64(s.Points) / 1e6
	}
	m := &Model{}
	if sec > 0 {
		m.CompressMptsPerSec = mpts / sec
	}
	var err error
	if m.Ratio, err = dtree.Train(x, ratio, params); err != nil {
		return nil, fmt.Errorf("quality: ratio model: %w", err)
	}
	if hasPSNR {
		if m.PSNR, err = dtree.Train(x, psnr, params); err != nil {
			return nil, fmt.Errorf("quality: psnr model: %w", err)
		}
	}
	return m, nil
}

// Estimate is a predicted compression outcome.
type Estimate struct {
	Ratio   float64 `json:"ratio"`
	Seconds float64 `json:"seconds"` // predicted compression wall time; 0 without a throughput
	PSNR    float64 `json:"psnr"`    // 0 when the model has no PSNR tree
}

// EstimateFromFeatures predicts quality for a prepared feature vector and
// point count.
func (m *Model) EstimateFromFeatures(fv []float64, numPoints int) (*Estimate, error) {
	logR, err := m.Ratio.Predict(fv)
	if err != nil {
		return nil, err
	}
	est := &Estimate{Ratio: math.Pow(2, logR)}
	if m.CompressMptsPerSec > 0 {
		est.Seconds = float64(numPoints) / 1e6 / m.CompressMptsPerSec
	}
	if m.PSNR != nil {
		if est.PSNR, err = m.PSNR.Predict(fv); err != nil {
			return nil, err
		}
	}
	return est, nil
}

// EstimateField extracts features from data (cheap sampling pass) and
// predicts the quality of compressing it with the given relative error
// bound. relEB is interpreted against the field's value range, matching the
// training convention. The model's default codec is assumed; use
// EstimateFieldCodec to score another registered codec.
func (m *Model) EstimateField(data []float64, dims []int, relEB float64, pred sz.Predictor) (*Estimate, error) {
	return m.EstimateFieldCodec(data, dims, relEB, pred, "")
}

// EstimateFieldCodec is EstimateField against a specific codec's model:
// features come from that codec's sampling probe and predictions from its
// trees, so the planner can score the same field under every codec in its
// candidate grid.
func (m *Model) EstimateFieldCodec(data []float64, dims []int, relEB float64, pred sz.Predictor, codecName string) (*Estimate, error) {
	sub, err := m.ForCodec(codecName)
	if err != nil {
		return nil, err
	}
	// Resolve "" to the codec the trees were actually trained for before
	// extracting features: a model whose default is not sz3 must probe
	// with its own codec, or the compressor features feed the wrong trees.
	if codecName == "" {
		codecName = m.defaultCodec()
	}
	// One resolver for rel→abs bounds: sz.Config.AbsoluteBound, so the
	// estimate quantizes at exactly the bound a real compression run uses,
	// including the degenerate-range fallback for NaN/Inf/constant fields.
	cfg := sz.DefaultConfig(sz.Config{ErrorBound: relEB, BoundMode: sz.BoundRelative}.AbsoluteBound(data))
	if pred != 0 {
		cfg.Predictor = pred
	}
	fv, err := features.Extract(data, dims, cfg, features.Options{
		SampleStride: features.AdaptiveStride(len(data)),
		Codec:        codecName,
	})
	if err != nil {
		return nil, err
	}
	vec := fv.Slice()
	vec[0] = math.Log10(relEB)
	return sub.EstimateFromFeatures(vec, len(data))
}

// SplitTrainTest partitions samples with the given training fraction.
// Shuffling is deterministic in seed.
func SplitTrainTest(samples []Sample, trainFrac float64, seed int64) (train, test []Sample) {
	idx := rand.New(rand.NewSource(seed)).Perm(len(samples))
	nTrain := int(float64(len(samples)) * trainFrac)
	if nTrain < 1 && len(samples) > 0 {
		nTrain = 1
	}
	for i, j := range idx {
		if i < nTrain {
			train = append(train, samples[j])
		} else {
			test = append(test, samples[j])
		}
	}
	return train, test
}

// EvalResult summarizes prediction errors on a held-out set.
type EvalResult struct {
	RatioDiffs []float64 // predicted − real compression ratio
	TimeDiffs  []float64 // predicted − real seconds
	PSNRDiffs  []float64 // predicted − real dB
	PSNRRMSE   float64
}

// Evaluate scores the model against held-out samples.
func (m *Model) Evaluate(test []Sample) (*EvalResult, error) {
	if len(test) == 0 {
		return nil, errors.New("quality: empty test set")
	}
	res := &EvalResult{}
	var psnrSSE float64
	nPSNR := 0
	for _, s := range test {
		est, err := m.EstimateFromFeatures(s.Feats, s.Points)
		if err != nil {
			return nil, err
		}
		res.RatioDiffs = append(res.RatioDiffs, est.Ratio-s.Ratio)
		realSec := s.SecPerMP * float64(s.Points) / 1e6
		res.TimeDiffs = append(res.TimeDiffs, est.Seconds-realSec)
		if m.PSNR != nil && s.PSNR != 0 {
			d := est.PSNR - s.PSNR
			res.PSNRDiffs = append(res.PSNRDiffs, d)
			psnrSSE += d * d
			nPSNR++
		}
	}
	if nPSNR > 0 {
		res.PSNRRMSE = math.Sqrt(psnrSSE / float64(nPSNR))
	}
	return res, nil
}

// ConfidenceInterval returns the central-fraction interval of diffs, e.g.
// frac = 0.8 gives the paper's Fig 12 80% box.
func ConfidenceInterval(diffs []float64, frac float64) (lo, hi float64) {
	if len(diffs) == 0 {
		return 0, 0
	}
	sorted := slices.Clone(diffs)
	slices.Sort(sorted)
	edge := (1 - frac) / 2
	loIdx := int(edge * float64(len(sorted)))
	hiIdx := int((1 - edge) * float64(len(sorted)))
	if hiIdx >= len(sorted) {
		hiIdx = len(sorted) - 1
	}
	return sorted[loIdx], sorted[hiIdx]
}

// Save serializes the model to JSON.
func (m *Model) Save() ([]byte, error) { return json.Marshal(m) }

// Load deserializes a model saved with Save.
func Load(blob []byte) (*Model, error) {
	var m Model
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, err
	}
	if m.Ratio == nil {
		return nil, errors.New("quality: incomplete model")
	}
	return &m, nil
}

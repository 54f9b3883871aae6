package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"ocelot/internal/datagen"
	"ocelot/internal/dtree"
	"ocelot/internal/features"
	"ocelot/internal/metrics"
	"ocelot/internal/quality"
	"ocelot/internal/sz"
)

// corpusFor assembles a training corpus from one or more applications.
func corpusFor(scale Scale, apps ...string) ([]*datagen.Field, error) {
	var fields []*datagen.Field
	for _, app := range apps {
		n := 0 // every field
		if app == "RTM" {
			n = 4 // snapshots are expensive; four suffice
		}
		fs, err := datagen.GenerateFirst(app, n, scale.Shrink, scale.Seed)
		if err != nil {
			return nil, err
		}
		fields = append(fields, fs...)
	}
	return fields, nil
}

// TableV reproduces the compression time and ratio prediction examples:
// train on a mixed corpus, then predict CR and CPTime for representative
// (dataset, error bound) pairs.
func TableV(scale Scale) (*Result, error) {
	scale = scale.withDefaults()
	res := newResult("Table V")
	fields, err := corpusFor(scale, "Nyx", "CESM", "RTM", "Miranda")
	if err != nil {
		return nil, err
	}
	samples, err := quality.Collect(fields, quality.CollectOptions{
		ErrorBounds: []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1},
	})
	if err != nil {
		return nil, err
	}
	train, _ := quality.SplitTrainTest(samples, 0.7, scale.Seed)
	model, err := quality.Train(train, dtree.Params{MaxDepth: 14})
	if err != nil {
		return nil, err
	}

	rows := []struct {
		app, field string
		eb         float64
	}{
		{"Nyx", "baryon_density", 1e-6},
		{"Nyx", "baryon_density", 1e-4},
		{"Nyx", "baryon_density", 1e-2},
		{"CESM", "LHFLX", 1e-6},
		{"CESM", "LHFLX", 1e-3},
		{"CESM", "LHFLX", 1e-2},
		{"CESM", "SNOWHICE", 1e-6},
		{"CESM", "SNOWHICE", 1e-4},
		{"CESM", "SNOWHICE", 1e-3},
		{"RTM", "snap-1982", 1e-6},
		{"RTM", "snap-1048", 1e-4},
		{"RTM", "snap-0594", 1e-4},
		{"Miranda", "velocityx", 1e-2},
		{"Miranda", "velocityx", 1e-3},
		{"Miranda", "velocityx", 1e-1},
	}
	var sb strings.Builder
	sb.WriteString("Table V: compression time and ratio prediction examples\n")
	sb.WriteString(fmt.Sprintf("%-24s %-7s %8s %8s %10s %10s\n",
		"Dataset", "EB", "P-CR", "CR", "P-CPTime", "CPTime"))
	var crRelErrSum float64
	n := 0
	for _, r := range rows {
		f, err := datagen.Generate(r.app, r.field, scale.Shrink, scale.Seed)
		if err != nil {
			return nil, err
		}
		est, err := model.EstimateField(f.Data, f.Dims, r.eb, 0)
		if err != nil {
			return nil, err
		}
		realRatio, realSec, _, err := measureCompression(f, relConfig(f.Data, r.eb))
		if err != nil {
			return nil, err
		}
		sb.WriteString(fmt.Sprintf("%-24s %-7.0e %8s %8s %10.3f %10.3f\n",
			r.app+"/"+r.field, r.eb, fmtFloat(est.Ratio), fmtFloat(realRatio),
			est.Seconds, realSec))
		crRelErrSum += math.Abs(est.Ratio-realRatio) / realRatio
		n++
	}
	res.Values["cr_mean_rel_err"] = crRelErrSum / float64(n)
	res.Text = sb.String()
	return res, nil
}

// psnrPredictionTable is shared by Tables VI and VII.
func psnrPredictionTable(scale Scale, app, id string, nRows int) (*Result, error) {
	scale = scale.withDefaults()
	res := newResult(id)
	fields, err := corpusFor(scale, app)
	if err != nil {
		return nil, err
	}
	samples, err := quality.Collect(fields, quality.CollectOptions{
		ErrorBounds: []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1},
		WithPSNR:    true,
	})
	if err != nil {
		return nil, err
	}
	// Paper: 50% train / 50% test.
	train, test := quality.SplitTrainTest(samples, 0.5, scale.Seed)
	model, err := quality.Train(train, dtree.Params{MaxDepth: 12})
	if err != nil {
		return nil, err
	}
	eval, err := model.Evaluate(test)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("%s: prediction of PSNR for %s\n", id, app))
	sb.WriteString(fmt.Sprintf("%-28s %-7s %10s %14s\n", "Field", "eb", "Real PSNR", "Predicted PSNR"))
	for i, s := range test {
		if i >= nRows {
			break
		}
		est, err := model.EstimateFromFeatures(s.Feats, s.Points)
		if err != nil {
			return nil, err
		}
		sb.WriteString(fmt.Sprintf("%-28s %-7.0e %10.2f %14.2f\n", s.Field, s.EB, s.PSNR, est.PSNR))
	}
	sb.WriteString(fmt.Sprintf("RMSE of PSNR prediction: %.2f dB (paper: ~13-14 dB)\n", eval.PSNRRMSE))
	res.Values["psnr_rmse"] = eval.PSNRRMSE
	res.Text = sb.String()
	return res, nil
}

// TableVI reproduces PSNR prediction for CESM.
func TableVI(scale Scale) (*Result, error) {
	return psnrPredictionTable(scale, "CESM", "Table VI", 10)
}

// TableVII reproduces PSNR prediction for ISABEL.
func TableVII(scale Scale) (*Result, error) {
	return psnrPredictionTable(scale, "ISABEL", "Table VII", 10)
}

// Fig4 reproduces "data entropy vs compression time" on RTM for three error
// bounds: positive entropy/time correlation at small bounds that weakens at
// large bounds.
func Fig4(scale Scale) (*Result, error) {
	scale = scale.timing()
	res := newResult("Fig 4")
	snaps := []string{"snap-0200", "snap-0594", "snap-1048", "snap-1400", "snap-1800",
		"snap-1982", "snap-2600", "snap-3200"}
	ebs := []float64{1e-6, 1e-4, 1e-2}
	var sb strings.Builder
	sb.WriteString("Fig 4: RTM data entropy vs compression time\n")
	for _, eb := range ebs {
		var entropies, times []float64
		for _, name := range snaps {
			f, err := datagen.Generate("RTM", name, scale.Shrink, scale.Seed)
			if err != nil {
				return nil, err
			}
			fv, err := features.Extract(f.Data, f.Dims, relConfig(f.Data, eb), features.Options{SampleStride: adaptiveStride(f.NumPoints())})
			if err != nil {
				return nil, err
			}
			_, sec, err := measureCompressionBest(f, relConfig(f.Data, eb), 3)
			if err != nil {
				return nil, err
			}
			entropies = append(entropies, fv.ByteEntropy)
			times = append(times, sec)
		}
		r := pearson(entropies, times)
		sb.WriteString(fmt.Sprintf("eb=%.0e: corr(entropy, time) = %+.3f  points:", eb, r))
		for i := range entropies {
			sb.WriteString(fmt.Sprintf(" (%.2f,%.3fs)", entropies[i], times[i]))
		}
		sb.WriteString("\n")
		res.Values[fmt.Sprintf("corr_eb_%.0e", eb)] = r
	}
	res.Text = sb.String()
	return res, nil
}

// featureRatioSweep measures compressor features vs compression ratio
// across error bounds for an application (Figs 5 and 6).
func featureRatioSweep(scale Scale, app string, limit int) (p0s, qents, rrles, ratios []float64, err error) {
	fields, err := corpusFor(scale, app)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if len(fields) > limit {
		fields = fields[:limit]
	}
	ebs := []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1}
	for _, f := range fields {
		for _, eb := range ebs {
			cfg := relConfig(f.Data, eb)
			fv, err := features.Extract(f.Data, f.Dims, cfg, features.Options{SampleStride: adaptiveStride(f.NumPoints())})
			if err != nil {
				return nil, nil, nil, nil, err
			}
			ratio, _, _, err := measureCompression(f, cfg)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			p0s = append(p0s, fv.P0Quant)
			qents = append(qents, fv.QuantEntropy)
			rrles = append(rrles, fv.Rrle)
			ratios = append(ratios, ratio)
		}
	}
	return p0s, qents, rrles, ratios, nil
}

// Fig5 reproduces the Nyx feature-vs-ratio relationships: p0, quantization
// entropy, and the run-length estimator all correlate with the ratio.
func Fig5(scale Scale) (*Result, error) {
	scale = scale.withDefaults()
	res := newResult("Fig 5")
	p0s, qents, rrles, ratios, err := featureRatioSweep(scale, "Nyx", 4)
	if err != nil {
		return nil, err
	}
	logRatios := make([]float64, len(ratios))
	for i, r := range ratios {
		logRatios[i] = math.Log2(r)
	}
	res.Values["corr_p0"] = pearson(p0s, logRatios)
	res.Values["corr_qent"] = pearson(qents, logRatios)
	res.Values["corr_rrle"] = pearson(rrles, logRatios)
	res.Text = fmt.Sprintf(
		"Fig 5: Nyx compressor-features vs log2(compression ratio)\n"+
			"corr(p0, logCR)            = %+.3f (paper: strong positive)\n"+
			"corr(quant-entropy, logCR) = %+.3f (paper: strong negative)\n"+
			"corr(Rrle, logCR)          = %+.3f (paper: strong positive)\n",
		res.Values["corr_p0"], res.Values["corr_qent"], res.Values["corr_rrle"])
	return res, nil
}

// Fig6 reproduces the Miranda caveat: the run-length estimator alone is a
// poor linear predictor of the ratio, but the full feature set through the
// tree model predicts it well.
func Fig6(scale Scale) (*Result, error) {
	scale = scale.withDefaults()
	res := newResult("Fig 6")
	fields, err := corpusFor(scale, "Miranda")
	if err != nil {
		return nil, err
	}
	samples, err := quality.Collect(fields, quality.CollectOptions{
		ErrorBounds: []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1},
	})
	if err != nil {
		return nil, err
	}
	// Rrle alone as a linear estimator of CR.
	rrleIdx := -1
	for i, n := range features.Names {
		if n == "rle_estimator" {
			rrleIdx = i
		}
	}
	var rrles, ratios []float64
	for _, s := range samples {
		rrles = append(rrles, s.Feats[rrleIdx])
		ratios = append(ratios, s.Ratio)
	}
	rrleCorr := pearson(rrles, ratios)

	train, test := quality.SplitTrainTest(samples, 0.6, scale.Seed)
	model, err := quality.Train(train, dtree.Params{MaxDepth: 12})
	if err != nil {
		return nil, err
	}
	var modelRelErr float64
	for _, s := range test {
		est, err := model.EstimateFromFeatures(s.Feats, s.Points)
		if err != nil {
			return nil, err
		}
		modelRelErr += math.Abs(est.Ratio-s.Ratio) / s.Ratio
	}
	modelRelErr /= float64(len(test))
	res.Values["rrle_corr"] = rrleCorr
	res.Values["model_rel_err"] = modelRelErr
	res.Text = fmt.Sprintf(
		"Fig 6: Miranda — Rrle alone vs full ML model\n"+
			"corr(Rrle, CR) linear fit   = %+.3f (paper: poor/nonlinear)\n"+
			"tree-model mean rel. error  = %.1f%% (paper: accurate)\n",
		rrleCorr, 100*modelRelErr)
	return res, nil
}

// psnrFeatureFig is shared by Figs 7 and 8: PSNR vs compressor features.
func psnrFeatureFig(scale Scale, app, id string) (*Result, error) {
	scale = scale.withDefaults()
	res := newResult(id)
	fields, err := corpusFor(scale, app)
	if err != nil {
		return nil, err
	}
	if len(fields) > 6 {
		fields = fields[:6]
	}
	samples, err := quality.Collect(fields, quality.CollectOptions{
		ErrorBounds: []float64{1e-6, 1e-4, 1e-3, 1e-2, 1e-1},
		WithPSNR:    true,
	})
	if err != nil {
		return nil, err
	}
	p0Idx, qeIdx := -1, -1
	for i, n := range features.Names {
		switch n {
		case "p0":
			p0Idx = i
		case "quant_entropy":
			qeIdx = i
		}
	}
	// Pooling different fields mixes scales, so (like the paper's per-file
	// scatter plots) compute the trend within each field and average.
	byField := map[string][]quality.Sample{}
	for _, s := range samples {
		byField[s.Field] = append(byField[s.Field], s)
	}
	var p0Corr, qeCorr float64
	n := 0
	for _, group := range byField {
		var p0s, qents, psnrs []float64
		for _, s := range group {
			p0s = append(p0s, s.Feats[p0Idx])
			qents = append(qents, s.Feats[qeIdx])
			psnrs = append(psnrs, s.PSNR)
		}
		p0Corr += pearson(p0s, psnrs)
		qeCorr += pearson(qents, psnrs)
		n++
	}
	res.Values["corr_p0_psnr"] = p0Corr / float64(n)
	res.Values["corr_qent_psnr"] = qeCorr / float64(n)
	res.Text = fmt.Sprintf(
		"%s: %s — PSNR vs compressor-level features\n"+
			"corr(p0, PSNR)            = %+.3f (paper: negative: large-eb runs have high p0, low PSNR)\n"+
			"corr(quant-entropy, PSNR) = %+.3f (paper: positive)\n",
		id, app, res.Values["corr_p0_psnr"], res.Values["corr_qent_psnr"])
	return res, nil
}

// Fig7 reproduces CESM PSNR vs compressor-level features.
func Fig7(scale Scale) (*Result, error) { return psnrFeatureFig(scale, "CESM", "Fig 7") }

// Fig8 reproduces ISABEL PSNR vs compressor-level features.
func Fig8(scale Scale) (*Result, error) { return psnrFeatureFig(scale, "ISABEL", "Fig 8") }

// Fig12 reproduces the prediction-error distributions for Nyx/CESM/Miranda
// (30% train, 70% test) with 80% confidence intervals.
func Fig12(scale Scale) (*Result, error) {
	scale = scale.withDefaults()
	res := newResult("Fig 12")
	var sb strings.Builder
	sb.WriteString("Fig 12: prediction error distributions (80% confidence interval)\n")
	for _, app := range []string{"Nyx", "CESM", "Miranda"} {
		fields, err := corpusFor(scale, app)
		if err != nil {
			return nil, err
		}
		samples, err := quality.Collect(fields, quality.CollectOptions{})
		if err != nil {
			return nil, err
		}
		train, test := quality.SplitTrainTest(samples, 0.3, scale.Seed)
		model, err := quality.Train(train, dtree.Params{MaxDepth: 12})
		if err != nil {
			return nil, err
		}
		eval, err := model.Evaluate(test)
		if err != nil {
			return nil, err
		}
		rLo, rHi := quality.ConfidenceInterval(eval.RatioDiffs, 0.8)
		tLo, tHi := quality.ConfidenceInterval(eval.TimeDiffs, 0.8)
		sb.WriteString(fmt.Sprintf("%-8s CR error 80%% CI [%+.2f, %+.2f]   time error 80%% CI [%+.3fs, %+.3fs]\n",
			app, rLo, rHi, tLo, tHi))
		res.Values[app+"/cr_ci_width"] = rHi - rLo
		res.Values[app+"/time_ci_width"] = tHi - tLo
	}
	res.Text = sb.String()
	return res, nil
}

// Fig13 reproduces (A) the sampling-overhead analysis on Nyx and (B) the
// per-application compression time ranges.
func Fig13(scale Scale) (*Result, error) {
	scale = scale.timing()
	res := newResult("Fig 13")
	var sb strings.Builder

	// (A) Overhead of feature extraction vs full compression on Nyx.
	f, err := datagen.Generate("Nyx", "baryon_density", scale.Shrink, scale.Seed)
	if err != nil {
		return nil, err
	}
	cfg := relConfig(f.Data, 1e-3)
	_, compressSec, _, err := measureCompression(f, cfg)
	if err != nil {
		return nil, err
	}
	overhead := func(stride int) (float64, error) {
		start := time.Now()
		if _, err := features.Extract(f.Data, f.Dims, cfg, features.Options{SampleStride: stride}); err != nil {
			return 0, err
		}
		return time.Since(start).Seconds(), nil
	}
	full, err := overhead(1)
	if err != nil {
		return nil, err
	}
	sampled, err := overhead(100)
	if err != nil {
		return nil, err
	}
	res.Values["overhead_full_frac"] = full / compressSec
	res.Values["overhead_sampled_frac"] = sampled / compressSec
	sb.WriteString(fmt.Sprintf("Fig 13(A): Nyx overhead — full extraction %.1f%% of compression, 1%% sampling %.1f%% (paper: >70%% -> <5%%)\n",
		100*full/compressSec, 100*sampled/compressSec))

	// (B) Compression time ranges per application.
	sb.WriteString("Fig 13(B): compression time ranges (seconds, this machine)\n")
	for _, app := range []string{"CESM", "Miranda", "Nyx", "ISABEL"} {
		fields, err := corpusFor(scale, app)
		if err != nil {
			return nil, err
		}
		if len(fields) > 4 {
			fields = fields[:4]
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, f := range fields {
			_, sec, _, err := measureCompression(f, relConfig(f.Data, 1e-3))
			if err != nil {
				return nil, err
			}
			lo = math.Min(lo, sec)
			hi = math.Max(hi, sec)
		}
		sb.WriteString(fmt.Sprintf("  %-8s [%.3fs, %.3fs]\n", app, lo, hi))
		res.Values[app+"/time_spread"] = hi / lo
	}
	res.Text = sb.String()
	return res, nil
}

// Fig14 reproduces the RTM compression-time vs compressor-features
// correlations.
func Fig14(scale Scale) (*Result, error) {
	scale = scale.timing()
	res := newResult("Fig 14")
	snaps := []string{"snap-0200", "snap-0594", "snap-1048", "snap-1400",
		"snap-1800", "snap-1982", "snap-2600", "snap-3200"}
	ebs := []float64{1e-5, 1e-3, 1e-1}
	var p0s, qents, times []float64
	for _, name := range snaps {
		f, err := datagen.Generate("RTM", name, scale.Shrink, scale.Seed)
		if err != nil {
			return nil, err
		}
		for _, eb := range ebs {
			cfg := relConfig(f.Data, eb)
			fv, err := features.Extract(f.Data, f.Dims, cfg, features.Options{SampleStride: adaptiveStride(f.NumPoints())})
			if err != nil {
				return nil, err
			}
			_, sec, err := measureCompressionBest(f, cfg, 3)
			if err != nil {
				return nil, err
			}
			p0s = append(p0s, fv.P0Quant)
			qents = append(qents, fv.QuantEntropy)
			times = append(times, sec)
		}
	}
	res.Values["corr_p0_time"] = pearson(p0s, times)
	res.Values["corr_qent_time"] = pearson(qents, times)
	res.Text = fmt.Sprintf(
		"Fig 14: RTM compression time vs compressor-level features\n"+
			"corr(p0, time)            = %+.3f (paper: negative)\n"+
			"corr(quant-entropy, time) = %+.3f (paper: positive)\n",
		res.Values["corr_p0_time"], res.Values["corr_qent_time"])
	return res, nil
}

// Fig15 reproduces the visual-quality comparison: compress CESM CLDMED,
// TMQ, TROP_Z at the Table VI bounds and report PSNR plus an ASCII
// rendering of original vs reconstructed data.
func Fig15(scale Scale) (*Result, error) {
	scale = scale.withDefaults()
	res := newResult("Fig 15")
	cases := []struct {
		field string
		eb    float64
	}{
		{"CLDMED", 1e-3},
		{"TMQ", 1e-3},
		{"TROP_Z", 1e-3},
	}
	var sb strings.Builder
	sb.WriteString("Fig 15: CESM original vs reconstructed (PSNR + ASCII render)\n")
	for _, c := range cases {
		f, err := datagen.Generate("CESM", c.field, scale.Shrink, scale.Seed)
		if err != nil {
			return nil, err
		}
		cfg := relConfig(f.Data, c.eb)
		stream, _, err := sz.Compress(f.Data, f.Dims, cfg)
		if err != nil {
			return nil, err
		}
		recon, _, err := sz.Decompress(stream)
		if err != nil {
			return nil, err
		}
		psnr, err := metrics.PSNR(f.Data, recon)
		if err != nil {
			return nil, err
		}
		res.Values[c.field+"/psnr"] = psnr
		sb.WriteString(fmt.Sprintf("\n%s (eb=%.0e): PSNR = %.2f dB\n", c.field, c.eb, psnr))
		sb.WriteString("original:\n")
		sb.WriteString(asciiRender(f.Data, f.Dims, 8, 24))
		sb.WriteString("reconstructed:\n")
		sb.WriteString(asciiRender(recon, f.Dims, 8, 24))
	}
	sb.WriteString("\n(paper: PSNR > 50 dB shows no visible difference)\n")
	res.Text = sb.String()
	return res, nil
}

// asciiRender draws a coarse grayscale view of a 2-D field.
func asciiRender(data []float64, dims []int, rows, cols int) string {
	if len(dims) < 2 {
		return "(not renderable)\n"
	}
	h, w := dims[len(dims)-2], dims[len(dims)-1]
	lo, hi := data[0], data[0]
	for _, v := range data[:h*w] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	ramp := []byte(" .:-=+*#%@")
	var sb strings.Builder
	for r := 0; r < rows; r++ {
		y := r * h / rows
		for c := 0; c < cols; c++ {
			x := c * w / cols
			v := data[y*w+x]
			t := 0.0
			if hi > lo {
				t = (v - lo) / (hi - lo)
			}
			idx := int(t * float64(len(ramp)-1))
			sb.WriteByte(ramp[idx])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

package quality

import (
	"math"
	"os"
	"testing"

	"ocelot/internal/datagen"
	"ocelot/internal/dtree"
	"ocelot/internal/sz"
	"ocelot/internal/szx"
)

// smallFields returns a compact mixed-application training corpus.
func smallFields(t testing.TB) []*datagen.Field {
	t.Helper()
	var out []*datagen.Field
	for _, spec := range []struct {
		app    string
		fields []string
		shrink int
	}{
		{"CESM", []string{"TMQ", "CLDHGH", "FLDSC", "LHFLX"}, 32},
		{"Miranda", []string{"density", "velocityx"}, 24},
		{"ISABEL", []string{"Pf48", "Wf48"}, 16},
	} {
		for _, name := range spec.fields {
			f, err := datagen.Generate(spec.app, name, spec.shrink, 7)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec.app, name, err)
			}
			out = append(out, f)
		}
	}
	return out
}

func collectSmall(t testing.TB, withPSNR bool) []Sample {
	t.Helper()
	fields := smallFields(t)
	samples, err := Collect(fields, CollectOptions{
		ErrorBounds:  []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1},
		SampleStride: 20,
		WithPSNR:     withPSNR,
	})
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestDefaultErrorBounds(t *testing.T) {
	ebs := DefaultErrorBounds()
	if len(ebs) != 11 {
		t.Fatalf("want 11 bounds, got %d", len(ebs))
	}
	if math.Abs(ebs[0]-1e-6) > 1e-12 || math.Abs(ebs[10]-1e-1) > 1e-9 {
		t.Fatalf("bounds endpoints: %v .. %v", ebs[0], ebs[10])
	}
	for i := 1; i < len(ebs); i++ {
		if ebs[i] <= ebs[i-1] {
			t.Fatal("bounds must increase")
		}
	}
}

func TestCollectProducesSamples(t *testing.T) {
	samples := collectSmall(t, false)
	wantN := 8 * 5
	if len(samples) != wantN {
		t.Fatalf("got %d samples, want %d", len(samples), wantN)
	}
	for _, s := range samples {
		if s.Ratio <= 0 {
			t.Errorf("%s/%s eb=%g: ratio %v", s.App, s.Field, s.EB, s.Ratio)
		}
		if s.SecPerMP < 0 {
			t.Errorf("negative time %v", s.SecPerMP)
		}
		if len(s.Feats) == 0 {
			t.Error("empty features")
		}
	}
}

func TestCollectErrors(t *testing.T) {
	if _, err := Collect(nil, CollectOptions{}); err == nil {
		t.Fatal("no fields must error")
	}
}

func TestTrainAndEstimate(t *testing.T) {
	samples := collectSmall(t, false)
	m, err := Train(samples, dtree.Params{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.PSNR != nil {
		t.Error("PSNR tree should be nil without PSNR ground truth")
	}
	// In-sample prediction should be strongly correlated with truth.
	var relErrSum float64
	for _, s := range samples {
		est, err := m.EstimateFromFeatures(s.Feats, s.Points)
		if err != nil {
			t.Fatal(err)
		}
		re := math.Abs(est.Ratio-s.Ratio) / s.Ratio
		relErrSum += re
	}
	meanRelErr := relErrSum / float64(len(samples))
	if meanRelErr > 0.5 {
		t.Errorf("mean in-sample relative CR error %.3f too high", meanRelErr)
	}
}

func TestPSNRTraining(t *testing.T) {
	samples := collectSmall(t, true)
	train, test := SplitTrainTest(samples, 0.5, 3)
	m, err := Train(train, dtree.Params{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.PSNR == nil {
		t.Fatal("PSNR tree missing")
	}
	res, err := m.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	// Paper reports PSNR RMSE ≈ 13-14 dB; allow a loose bound for the small
	// synthetic corpus.
	if res.PSNRRMSE > 40 {
		t.Errorf("PSNR RMSE %.1f dB too high", res.PSNRRMSE)
	}
	if len(res.RatioDiffs) != len(test) {
		t.Errorf("diff count %d != %d", len(res.RatioDiffs), len(test))
	}
}

func TestEstimateField(t *testing.T) {
	samples := collectSmall(t, false)
	m, err := Train(samples, dtree.Params{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := datagen.Generate("CESM", "TREFHT", 32, 99)
	if err != nil {
		t.Fatal(err)
	}
	est, err := m.EstimateField(f.Data, f.Dims, 1e-3, sz.PredictorInterp)
	if err != nil {
		t.Fatal(err)
	}
	if est.Ratio <= 0 || math.IsNaN(est.Ratio) {
		t.Errorf("ratio = %v", est.Ratio)
	}
	if want := float64(f.NumPoints()) / 1e6 / m.CompressMptsPerSec; m.CompressMptsPerSec <= 0 || est.Seconds != want {
		t.Errorf("seconds = %v at %v Mpts/s, want %v", est.Seconds, m.CompressMptsPerSec, want)
	}
}

// TestTrainPoolsThroughput: the model's speed is Σ points ÷ Σ measured
// seconds over its samples — one number, whatever the sample order.
func TestTrainPoolsThroughput(t *testing.T) {
	samples := []Sample{
		{Feats: make([]float64, 11), Ratio: 2, SecPerMP: 1, Points: 1e6},
		{Feats: make([]float64, 11), Ratio: 4, SecPerMP: 4, Points: 2e6},
	}
	m, err := Train(samples, dtree.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if want := 3.0 / 9.0; math.Abs(m.CompressMptsPerSec-want) > 1e-15 {
		t.Fatalf("throughput %v Mpts/s, want %v", m.CompressMptsPerSec, want)
	}
	est, err := m.EstimateFromFeatures(samples[0].Feats, 3e6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Seconds-9) > 1e-12 {
		t.Errorf("3 Mpts estimated at %vs, want 9s", est.Seconds)
	}
}

// TestLoadModelWithTimeTree loads a two-codec model saved when speed was a
// learned "time" tree per codec. It must load as is, estimate ratio and PSNR
// exactly as the saving build did, and predict no seconds: decoding
// ignores the old key, and such a model carries no throughput.
func TestLoadModelWithTimeTree(t *testing.T) {
	blob, err := os.ReadFile("testdata/model-time-tree.json")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Load(blob)
	if err != nil {
		t.Fatal(err)
	}
	f, err := datagen.Generate("CESM", "TREFHT", 48, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Recorded with the saving build's EstimateFieldCodec on this field.
	for _, c := range []struct {
		codec       string
		pred        sz.Predictor
		relEB       float64
		ratio, psnr float64
	}{
		{sz.CodecName, sz.PredictorInterp, 1e-4, 2.9871303513455545, 84.77658069460782},
		{sz.CodecName, sz.PredictorInterp, 1e-3, 5.567323953202216, 64.70815356942313},
		{sz.CodecName, sz.PredictorInterp, 1e-2, 13.460467229746287, 45.16100823886359},
		{sz.CodecName, sz.PredictorLorenzo, 1e-4, 2.9871303513455545, 84.77658069460782},
		{sz.CodecName, sz.PredictorLorenzo, 1e-3, 5.567323953202216, 64.70815356942313},
		{sz.CodecName, sz.PredictorLorenzo, 1e-2, 13.460467229746287, 44.51044097913959},
		{szx.Name, 0, 1e-4, 3.1085422797663846, 64.83979586275763},
		{szx.Name, 0, 1e-3, 3.1085422797663846, 64.83979586275763},
		{szx.Name, 0, 1e-2, 4.639418756465391, 44.95709206341573},
	} {
		est, err := m.EstimateFieldCodec(f.Data, f.Dims, c.relEB, c.pred, c.codec)
		if err != nil {
			t.Fatal(err)
		}
		if est.Ratio != c.ratio || est.PSNR != c.psnr || est.Seconds != 0 {
			t.Errorf("%s/%v @%g: got ratio %v psnr %v seconds %v, want %v, %v, 0",
				c.codec, c.pred, c.relEB, est.Ratio, est.PSNR, est.Seconds, c.ratio, c.psnr)
		}
	}
}

func TestSplitTrainTest(t *testing.T) {
	samples := make([]Sample, 100)
	for i := range samples {
		samples[i].Points = i
	}
	train, test := SplitTrainTest(samples, 0.3, 1)
	if len(train) != 30 || len(test) != 70 {
		t.Fatalf("split %d/%d", len(train), len(test))
	}
	// Deterministic.
	train2, _ := SplitTrainTest(samples, 0.3, 1)
	for i := range train {
		if train[i].Points != train2[i].Points {
			t.Fatal("split not deterministic")
		}
	}
	seen := map[int]bool{}
	for _, s := range train {
		seen[s.Points] = true
	}
	for _, s := range test {
		if seen[s.Points] {
			t.Fatal("overlap between train and test")
		}
	}
}

func TestConfidenceInterval(t *testing.T) {
	diffs := make([]float64, 100)
	for i := range diffs {
		diffs[i] = float64(i) // 0..99
	}
	lo, hi := ConfidenceInterval(diffs, 0.8)
	if lo > 15 || lo < 5 {
		t.Errorf("lo = %v", lo)
	}
	if hi < 85 || hi > 95 {
		t.Errorf("hi = %v", hi)
	}
	if l, h := ConfidenceInterval(nil, 0.8); l != 0 || h != 0 {
		t.Error("empty interval must be zero")
	}
}

func TestSaveLoad(t *testing.T) {
	samples := collectSmall(t, false)
	m, err := Train(samples, dtree.Params{MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := m.Save()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Load(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples[:10] {
		e1, _ := m.EstimateFromFeatures(s.Feats, s.Points)
		e2, _ := back.EstimateFromFeatures(s.Feats, s.Points)
		if e1.Ratio != e2.Ratio || e1.Seconds != e2.Seconds || e1.Seconds <= 0 {
			t.Fatal("estimates drift after save/load")
		}
	}
	if _, err := Load([]byte(`{}`)); err == nil {
		t.Fatal("incomplete model must error")
	}
	if _, err := Load([]byte(`garbage`)); err == nil {
		t.Fatal("bad json must error")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, dtree.Params{}); err == nil {
		t.Fatal("no samples must error")
	}
}

func TestEvaluateErrors(t *testing.T) {
	samples := collectSmall(t, false)
	m, err := Train(samples, dtree.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Evaluate(nil); err == nil {
		t.Fatal("empty test set must error")
	}
}

package planner

import (
	"strings"
	"testing"

	"ocelot/internal/datagen"
	"ocelot/internal/dtree"
	"ocelot/internal/features"
	"ocelot/internal/quality"
	"ocelot/internal/sz"
	"ocelot/internal/szx"
	"ocelot/internal/wan"
)

// constTree trains a single-leaf regressor that predicts v everywhere —
// the building block of fully deterministic planner models.
func constTree(t *testing.T, v float64) *dtree.Tree {
	t.Helper()
	x := [][]float64{make([]float64, features.NumFeatures), make([]float64, features.NumFeatures)}
	tr, err := dtree.Train(x, []float64{v, v}, dtree.Params{MaxDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// codecModel builds a controlled two-codec model: sz3 predicts a high
// ratio at a high cost, szx a low ratio at a tiny cost; both clear the
// PSNR floor. log2(ratio) is what the ratio tree regresses.
func codecModel(t *testing.T) *quality.Model {
	t.Helper()
	m := &quality.Model{
		Ratio:              constTree(t, 4), // 2^4 = 16x
		PSNR:               constTree(t, 80),
		CompressMptsPerSec: 0.5, // 2 s per megapoint
	}
	m.Codecs = map[string]*quality.Model{
		szx.Name: {
			Ratio:              constTree(t, 2), // 2^2 = 4x
			PSNR:               constTree(t, 80),
			CompressMptsPerSec: 20, // 40x faster
		},
	}
	return m
}

// codecFields generates a small deterministic workload.
func codecFields(t *testing.T, n int) []*datagen.Field {
	t.Helper()
	names := datagen.Fields("CESM")[:n]
	out := make([]*datagen.Field, 0, n)
	for _, name := range names {
		f, err := datagen.Generate("CESM", name, 48, 7)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

// TestPlannerPicksCodecByLink is the codec-selection property under one
// quality floor: a fast link makes compression time dominate (szx wins),
// a slow link makes moved bytes dominate (sz3 wins). The model is fully
// synthetic, so the decision is deterministic on any machine.
func TestPlannerPicksCodecByLink(t *testing.T) {
	fields := codecFields(t, 4)
	model := codecModel(t)
	cands, err := CodecCandidates([]string{sz.CodecName, szx.Name})
	if err != nil {
		t.Fatal(err)
	}
	build := func(bwMBps float64) *Plan {
		t.Helper()
		plan, err := Build(fields, model, Options{
			Candidates: cands,
			MinPSNR:    70,
			Link:       &wan.Link{Name: "test", BandwidthMBps: bwMBps, Concurrency: 4},
			Workers:    4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	// Fast link: 10 GB/s. Per raw MB, sz3 costs ~0.25s/MB/4workers of
	// compression vs szx's ~0.006s — transfer deltas are microseconds.
	fast := build(10000)
	// Slow link: 1 MB/s. szx moves 0.25 raw-MB/MB vs sz3's 0.0625 —
	// the 0.19s/MB transfer delta dwarfs the 0.06s compression delta.
	slow := build(1)
	for i, fp := range fast.Fields {
		if fp.Codec != szx.Name {
			t.Errorf("fast link field %d picked %s, want %s", i, fp.Codec, szx.Name)
		}
	}
	for i, fp := range slow.Fields {
		if fp.Codec != sz.CodecName {
			t.Errorf("slow link field %d picked %s, want %s", i, fp.Codec, sz.CodecName)
		}
	}
	if !strings.Contains(fast.String(), szx.Name) {
		t.Error("plan table should print the codec column")
	}
}

// predictorRatioModel is an sz3-only model whose ratio tree splits on the
// predictor feature alone: lorenzo candidates predict 2^lorenzo, interp
// candidates 2^interp, everything else (PSNR, speed) is shared.
func predictorRatioModel(t *testing.T, lorenzo, interp float64) *quality.Model {
	t.Helper()
	x := [][]float64{make([]float64, features.NumFeatures), make([]float64, features.NumFeatures)}
	x[0][1], x[1][1] = float64(sz.PredictorLorenzo), float64(sz.PredictorInterp)
	ratio, err := dtree.Train(x, []float64{lorenzo, interp}, dtree.Params{MaxDepth: 1, MinSamplesLeaf: 1})
	if err != nil {
		t.Fatal(err)
	}
	return &quality.Model{Ratio: ratio, PSNR: constTree(t, 80), CompressMptsPerSec: 1}
}

// TestBuildPicksHigherRatioPredictor: two sz3 predictors that differ only
// in predicted ratio cost the same compression seconds, so the one moving
// fewer bytes must win — on a link and without one, whatever the order the
// grid lists them in.
func TestBuildPicksHigherRatioPredictor(t *testing.T) {
	fields := codecFields(t, 2)
	lorenzo := Candidate{RelEB: 1e-3, Predictor: sz.PredictorLorenzo}
	interp := Candidate{RelEB: 1e-3, Predictor: sz.PredictorInterp}
	for _, tc := range []struct {
		lorenzo, interp float64
		want            sz.Predictor
	}{
		{lorenzo: 3, interp: 2, want: sz.PredictorLorenzo},
		{lorenzo: 2, interp: 3, want: sz.PredictorInterp},
	} {
		model := predictorRatioModel(t, tc.lorenzo, tc.interp)
		for _, cands := range [][]Candidate{{lorenzo, interp}, {interp, lorenzo}} {
			for _, link := range []*wan.Link{nil, {Name: "test", BandwidthMBps: 100, Concurrency: 4}} {
				plan, err := Build(fields, model, Options{Candidates: cands, MinPSNR: 70, Link: link, Workers: 4})
				if err != nil {
					t.Fatal(err)
				}
				for i, fp := range plan.Fields {
					if fp.Fallback || fp.Predictor != tc.want {
						t.Errorf("ratios lorenzo 2^%g interp 2^%g, grid %v, link %v: field %d picked %v (fallback %v), want %v",
							tc.lorenzo, tc.interp, cands, link != nil, i, fp.Predictor, fp.Fallback, tc.want)
					}
				}
			}
		}
	}
}

// TestPlannerFloorFiltersCodecWithoutPSNRTree: under a PSNR floor, a
// codec whose sub-model lacks a PSNR tree is not scoreable; the planner
// must fall back to codecs it can vouch for rather than guessing.
func TestPlannerFloorFiltersCodecWithoutPSNRTree(t *testing.T) {
	fields := codecFields(t, 2)
	model := codecModel(t)
	model.Codecs[szx.Name].PSNR = nil // szx can no longer prove quality
	cands, err := CodecCandidates([]string{sz.CodecName, szx.Name})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(fields, model, Options{
		Candidates: cands,
		MinPSNR:    70,
		Link:       &wan.Link{Name: "test", BandwidthMBps: 10000, Concurrency: 4},
		Workers:    4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, fp := range plan.Fields {
		if fp.Codec != sz.CodecName {
			t.Errorf("field %d picked %s despite szx lacking a PSNR tree", i, fp.Codec)
		}
	}
}

// TestPlannerUnknownCodecInGrid: a model that has never seen the codec a
// candidate names degrades to fallback when nothing is scoreable.
func TestPlannerUnknownCodecInGrid(t *testing.T) {
	fields := codecFields(t, 2)
	model := &quality.Model{Ratio: constTree(t, 3), CompressMptsPerSec: 1}
	cands := []Candidate{{RelEB: 1e-3, Codec: szx.Name}}
	plan, err := Build(fields, model, Options{Candidates: cands, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, fp := range plan.Fields {
		if !fp.Fallback {
			t.Errorf("field %d not marked fallback with an untrained codec grid", i)
		}
		if fp.Codec != szx.Name {
			t.Errorf("field %d fallback codec %s, want the grid's %s", i, fp.Codec, szx.Name)
		}
	}
}

// TestCodecCandidatesGrid checks the cross grid's shape and ordering.
func TestCodecCandidatesGrid(t *testing.T) {
	cands, err := CodecCandidates([]string{szx.Name, sz.CodecName, szx.Name})
	if err != nil {
		t.Fatal(err)
	}
	if cands[0].Codec != "" && cands[0].Codec != sz.CodecName {
		t.Errorf("grid should lead with the default codec, got %q", cands[0].Codec)
	}
	nSZ3, nSZX := 0, 0
	for _, c := range cands {
		switch c.Codec {
		case "", sz.CodecName:
			nSZ3++
		case szx.Name:
			nSZX++
		}
	}
	// sz3: 7 bounds x 2 predictors; szx (no predictor stage): 7 bounds,
	// deduped despite being named twice.
	if nSZ3 != 14 || nSZX != 7 {
		t.Errorf("grid %d sz3 + %d szx candidates, want 14 + 7", nSZ3, nSZX)
	}
	if _, err := CodecCandidates([]string{"no-such"}); err == nil {
		t.Error("want error for unknown codec name")
	}
	if _, err := CodecCandidates(nil); err == nil {
		t.Error("want error for empty codec list")
	}
}

// TestTrainFromSweepMultiCodec trains a real (tiny) sweep across both
// codecs and checks the model carries a tree set per codec and the
// planner can estimate through both.
func TestTrainFromSweepMultiCodec(t *testing.T) {
	train := codecFields(t, 2)
	cands := []Candidate{
		{RelEB: 1e-3}, {RelEB: 1e-2},
		{RelEB: 1e-3, Codec: szx.Name}, {RelEB: 1e-2, Codec: szx.Name},
	}
	model, err := TrainFromSweep(train, cands, dtree.Params{MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	if model.DefaultCodec != sz.CodecName {
		t.Errorf("default codec %q", model.DefaultCodec)
	}
	if _, err := model.ForCodec(szx.Name); err != nil {
		t.Fatalf("missing szx trees: %v", err)
	}
	f := train[0]
	for _, name := range []string{sz.CodecName, szx.Name} {
		est, err := model.EstimateFieldCodec(f.Data, f.Dims, 1e-3, 0, name)
		if err != nil {
			t.Fatal(err)
		}
		if est.Ratio <= 0 || est.PSNR <= 0 {
			t.Errorf("%s estimate %+v", name, est)
		}
	}
	if _, err := model.ForCodec("no-such"); err == nil ||
		!strings.Contains(err.Error(), "valid:") {
		t.Errorf("ForCodec error should list valid codecs, got %v", err)
	}
}

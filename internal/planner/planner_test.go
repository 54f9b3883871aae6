package planner

import (
	"testing"

	"ocelot/internal/datagen"
	"ocelot/internal/dtree"
	"ocelot/internal/quality"
	"ocelot/internal/sz"
	"ocelot/internal/wan"
)

// plannerFields builds a small mixed workload: smooth climate fields next
// to noisier hurricane fields.
func plannerFields(t testing.TB, shrink int, seed int64) []*datagen.Field {
	t.Helper()
	specs := []struct{ app, field string }{
		{"CESM", "TMQ"},
		{"CESM", "FLDSC"},
		{"ISABEL", "Pf48"},
		{"ISABEL", "QVAPORf48"},
	}
	fields := make([]*datagen.Field, 0, len(specs))
	for _, sp := range specs {
		f, err := datagen.Generate(sp.app, sp.field, shrink, seed)
		if err != nil {
			t.Fatal(err)
		}
		fields = append(fields, f)
	}
	return fields
}

// testCandidates keeps the sweep small so training stays fast in tests.
func testCandidates() []Candidate {
	return []Candidate{
		{RelEB: 1e-4, Predictor: sz.PredictorInterp},
		{RelEB: 1e-3, Predictor: sz.PredictorInterp},
		{RelEB: 1e-2, Predictor: sz.PredictorInterp},
	}
}

// testMptsPerSec replaces the throughput a sweep measures, so plans built
// from trainedModel are pure functions of the deterministic ratio/PSNR
// trees. Measured on these tiny fields it ranges from ≈ 1.4 Mpts/s down to
// ≈ 0.2 under -race, which moves the wall model's compress/transfer
// crossover from run to run.
const testMptsPerSec = 10

func trainedModel(t testing.TB, cands []Candidate) *quality.Model {
	t.Helper()
	m, err := TrainFromSweep(plannerFields(t, 64, 9), cands, dtree.Params{MaxDepth: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.PSNR == nil {
		t.Fatal("sweep training produced no PSNR tree")
	}
	if m.CompressMptsPerSec <= 0 {
		t.Fatal("sweep training measured no throughput")
	}
	m.CompressMptsPerSec = testMptsPerSec
	return m
}

func testLink() *wan.Link {
	return &wan.Link{Name: "t", BandwidthMBps: 1000, PerFileOverheadSec: 0.02, Concurrency: 4}
}

func TestPlanRespectsQualityFloor(t *testing.T) {
	cands := testCandidates()
	model := trainedModel(t, cands)
	fields := plannerFields(t, 48, 3)
	const floor = 70.0
	plan, err := Build(fields, model, Options{
		Candidates: cands,
		MinPSNR:    floor,
		Link:       testLink(),
		Workers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Fields) != len(fields) {
		t.Fatalf("%d field plans for %d fields", len(plan.Fields), len(fields))
	}
	for _, fp := range plan.Fields {
		if fp.Fallback {
			continue // no candidate met the floor; flagged, not hidden
		}
		if fp.PredPSNR < floor {
			t.Errorf("%s: predicted PSNR %.1f below floor %.1f", fp.Field, fp.PredPSNR, floor)
		}
		found := false
		for _, c := range cands {
			if c.RelEB == fp.RelEB {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: assigned bound %g not in the candidate grid", fp.Field, fp.RelEB)
		}
	}
	if plan.GroupParam < 1 || plan.GroupParam > int64(len(fields)) {
		t.Errorf("group param %d outside [1, %d]", plan.GroupParam, len(fields))
	}
	if plan.PredTransferSec <= 0 || plan.PredWallSec <= 0 {
		t.Errorf("plan missing transfer/wall predictions: %+v", plan)
	}
}

// A tighter floor must never loosen any field's bound.
func TestPlanFloorMonotonicity(t *testing.T) {
	cands := testCandidates()
	model := trainedModel(t, cands)
	fields := plannerFields(t, 48, 3)
	loose, err := Build(fields, model, Options{Candidates: cands, MinPSNR: 50, Link: testLink()})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Build(fields, model, Options{Candidates: cands, MinPSNR: 90, Link: testLink()})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fields {
		if tight.Fields[i].RelEB > loose.Fields[i].RelEB {
			t.Errorf("%s: floor 90 assigned %g, looser than floor 50's %g",
				fields[i].ID(), tight.Fields[i].RelEB, loose.Fields[i].RelEB)
		}
	}
}

// With no trained model the planner must degenerate gracefully: every
// field gets the most conservative candidate, flagged as fallback.
func TestPlanUntrainedModelFallsBack(t *testing.T) {
	cands := testCandidates()
	fields := plannerFields(t, 64, 3)
	plan, err := Build(fields, nil, Options{Candidates: cands, MinPSNR: 70, Link: testLink()})
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range plan.Fields {
		if !fp.Fallback {
			t.Errorf("%s: not marked fallback without a model", fp.Field)
		}
		if fp.RelEB != 1e-4 {
			t.Errorf("%s: fallback bound %g, want most conservative 1e-4", fp.Field, fp.RelEB)
		}
	}
	// A PSNR floor with a PSNR-less model is equally unservable.
	noPSNR, err := TrainFromSweep(plannerFields(t, 64, 9), cands, dtree.Params{MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	noPSNR.PSNR = nil
	plan2, err := Build(fields, noPSNR, Options{Candidates: cands, MinPSNR: 70})
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range plan2.Fields {
		if !fp.Fallback || fp.RelEB != 1e-4 {
			t.Errorf("%s: PSNR-less model under a floor must fall back conservatively (got eb=%g fallback=%v)",
				fp.Field, fp.RelEB, fp.Fallback)
		}
	}
}

func TestPlanMaxRelEBCap(t *testing.T) {
	fields := plannerFields(t, 64, 3)
	plan, err := Build(fields, nil, Options{Candidates: testCandidates(), MaxRelEB: 5e-3})
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range plan.Fields {
		if fp.RelEB > 5e-3 {
			t.Errorf("%s: bound %g exceeds the cap", fp.Field, fp.RelEB)
		}
	}
	if _, err := Build(fields, nil, Options{Candidates: testCandidates(), MaxRelEB: 1e-6}); err == nil {
		t.Error("cap below every candidate must error, not silently plan")
	}
}

func TestFixedBaseline(t *testing.T) {
	cands := testCandidates()
	fields := plannerFields(t, 48, 3)
	// Without a usable model: most conservative bound.
	eb, err := FixedBaseline(fields, nil, Options{Candidates: cands, MinPSNR: 70})
	if err != nil {
		t.Fatal(err)
	}
	if eb != 1e-4 {
		t.Errorf("model-less baseline %g, want 1e-4", eb)
	}
	// Without a floor the baseline stays at the most conservative bound.
	model := trainedModel(t, cands)
	eb, err = FixedBaseline(fields, model, Options{Candidates: cands})
	if err != nil {
		t.Fatal(err)
	}
	if eb != 1e-4 {
		t.Errorf("floor-less baseline %g, want most conservative 1e-4", eb)
	}
	// With a floor: the chosen global bound must be predicted feasible for
	// every field, or be the tightest candidate available.
	eb, err = FixedBaseline(fields, model, Options{Candidates: cands, MinPSNR: 70})
	if err != nil {
		t.Fatal(err)
	}
	if eb != 1e-4 {
		for _, f := range fields {
			est, err := model.EstimateField(f.Data, f.Dims, eb, 0)
			if err != nil {
				t.Fatal(err)
			}
			if est.PSNR < 70 {
				t.Errorf("%s: baseline bound %g predicted below the floor (%.1f dB)", f.ID(), eb, est.PSNR)
			}
		}
	}
}

func TestParallelCompressSec(t *testing.T) {
	secs := []float64{8, 1, 1, 1, 1}
	ones := []int{1, 1, 1, 1, 1}

	// Monolithic on a wide endpoint: the 8 s field floors the wall.
	mono := ParallelCompressSec(secs, ones, 8, 0.03)
	if mono != 8 {
		t.Fatalf("monolithic wall = %g, want 8 (widest field floors it)", mono)
	}
	// Chunking the wide field lifts the floor: wall falls toward total/W.
	chunked := ParallelCompressSec(secs, []int{8, 1, 1, 1, 1}, 8, 0.03)
	if chunked >= mono/2 {
		t.Fatalf("chunked wall %g did not beat monolithic %g on a wide endpoint", chunked, mono)
	}
	// One worker: chunking only adds its overhead, never helps.
	w1m := ParallelCompressSec(secs, ones, 1, 0.03)
	w1c := ParallelCompressSec(secs, []int{8, 1, 1, 1, 1}, 1, 0.03)
	if w1c < w1m {
		t.Fatalf("1-worker chunked %g cheaper than monolithic %g", w1c, w1m)
	}
	if w1c <= w1m {
		t.Fatalf("1-worker chunked %g missing the overhead term (monolithic %g)", w1c, w1m)
	}
	// Never below the perfectly divisible bound.
	if lb := (8*1.03 + 4) / 8; chunked < lb-1e-12 {
		t.Fatalf("wall %g below total-work bound %g", chunked, lb)
	}
	// Degenerate inputs.
	if got := ParallelCompressSec(nil, nil, 4, 0); got != 0 {
		t.Fatalf("empty workload wall = %g", got)
	}
	if got := ParallelCompressSec([]float64{2}, nil, 0, 0); got != 2 {
		t.Fatalf("zero-worker clamp: wall = %g, want 2", got)
	}
}

// TestBuildChunkAware: with a wide field dominating the workload, a
// chunk-aware plan on a wide endpoint must predict a strictly smaller
// compression wall than the monolithic plan, and record its chunk
// configuration for artifact comparability.
func TestBuildChunkAware(t *testing.T) {
	cands := testCandidates()
	model := trainedModel(t, cands)
	fields := plannerFields(t, 48, 3)

	base := Options{Candidates: cands, Link: testLink(), Workers: 8}
	mono, err := Build(fields, model, base)
	if err != nil {
		t.Fatal(err)
	}
	withChunks := base
	// A quarter of the largest field per chunk: every field splits.
	withChunks.ChunkBytes = int64(fields[0].RawBytes()) / 4
	chunked, err := Build(fields, model, withChunks)
	if err != nil {
		t.Fatal(err)
	}
	if chunked.Chunks <= len(fields) {
		t.Fatalf("plan did not split fields: %d chunks", chunked.Chunks)
	}
	if chunked.ChunkBytes != withChunks.ChunkBytes || chunked.Workers != 8 {
		t.Fatalf("plan lost its chunk config: %+v", chunked)
	}
	if mono.Chunks != 0 {
		t.Fatalf("monolithic plan reports %d fan-out chunks, want 0", mono.Chunks)
	}
	if chunked.PredCompressSec > mono.PredCompressSec*(1+1e-9) {
		t.Fatalf("chunk-aware compress wall %g worse than monolithic %g on a wide endpoint",
			chunked.PredCompressSec, mono.PredCompressSec)
	}
	// The wall prediction must respect the indivisible-task floor.
	var maxSec float64
	for _, fp := range mono.Fields {
		if fp.PredSec > maxSec {
			maxSec = fp.PredSec
		}
	}
	if mono.PredCompressSec < maxSec-1e-12 {
		t.Fatalf("monolithic wall %g below widest field %g", mono.PredCompressSec, maxSec)
	}
}

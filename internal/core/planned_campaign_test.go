package core

import (
	"context"
	"math"
	"testing"

	"ocelot/internal/datagen"
	"ocelot/internal/dtree"
	"ocelot/internal/planner"
	"ocelot/internal/quality"
	"ocelot/internal/wan"
)

// mixedFields builds the planner's target workload: smooth climate fields
// beside noisy turbulence/hurricane fields.
func mixedFields(t testing.TB, shrink int, seed int64) []*datagen.Field {
	t.Helper()
	specs := []struct{ app, field string }{
		{"CESM", "TMQ"},
		{"CESM", "CLDHGH"},
		{"CESM", "FLDSC"},
		{"Miranda", "density"},
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

func plannedModel(t testing.TB) *quality.Model {
	t.Helper()
	m, err := planner.TrainFromSweep(mixedFields(t, 64, 11), nil, dtree.Params{MaxDepth: 12})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// An adaptive campaign must execute the plan's per-field bounds, verify
// them, and report predicted vs. actual — the closed loop's smoke test.
func TestAdaptiveCampaignPredictedVsActual(t *testing.T) {
	fields := mixedFields(t, 32, 5)
	model := plannedModel(t)
	link := &wan.Link{Name: "t", BandwidthMBps: 1000, PerFileOverheadSec: 0.02, Concurrency: 4}
	const floor = 70.0
	res, err := Run(context.Background(), fields, CampaignSpec{
		Workers:   4,
		Transport: &SimulatedWANTransport{Link: link, Timescale: -1},
		Adaptive:  true,
		Model:     model,
		Planner:   planner.Options{MinPSNR: floor, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Planned || !res.Pipelined {
		t.Errorf("planned campaign flags: planned=%v pipelined=%v", res.Planned, res.Pipelined)
	}
	if res.Plan == nil || len(res.Plan.Fields) != len(fields) {
		t.Fatalf("result carries no per-field plan")
	}
	if res.Files != len(fields) {
		t.Errorf("files %d, want %d", res.Files, len(fields))
	}
	// Per-field bounds were actually applied and verified: the observed
	// max relative error must sit within the loosest planned bound.
	maxPlanned := 0.0
	for _, fp := range res.Plan.Fields {
		maxPlanned = math.Max(maxPlanned, fp.RelEB)
	}
	if res.MaxRelError > maxPlanned*(1+1e-9) {
		t.Errorf("max rel error %g exceeds loosest planned bound %g", res.MaxRelError, maxPlanned)
	}
	// Predicted-vs-actual fields must be populated on both sides.
	if res.PredRatio <= 0 || res.Ratio <= 0 {
		t.Errorf("ratio not reported: pred %g actual %g", res.PredRatio, res.Ratio)
	}
	if res.PredTransferSec <= 0 || res.LinkEstSec <= 0 || res.LinkSec <= 0 {
		t.Errorf("transfer seconds not reported: pred %g est-actual %g link %g",
			res.PredTransferSec, res.LinkEstSec, res.LinkSec)
	}
	// Prediction and realized makespan share units and grouping, so the
	// forecast must land in the same ballpark.
	if res.PredTransferSec > res.LinkEstSec*3 || res.PredTransferSec < res.LinkEstSec/3 {
		t.Errorf("predicted transfer makespan %.4fs wildly off realized-archive makespan %.4fs",
			res.PredTransferSec, res.LinkEstSec)
	}
	if res.MinPSNR <= 0 || math.IsInf(res.MinPSNR, 0) {
		t.Errorf("measured min PSNR not reported: %g", res.MinPSNR)
	}
	// Smoke-level prediction accuracy: the tree was trained on stand-ins
	// of these very fields, so the ratio forecast should land within a
	// small multiplicative band of reality.
	if res.PredRatio > res.Ratio*3 || res.PredRatio < res.Ratio/3 {
		t.Errorf("predicted ratio %.2f wildly off actual %.2f", res.PredRatio, res.Ratio)
	}
	// The quality floor was enforced through real reconstruction too.
	if res.MinPSNR < floor-10 {
		t.Errorf("measured min PSNR %.1f dB far below the %.0f dB floor the plan promised", res.MinPSNR, floor)
	}
}

// The adaptive plan must beat the best fixed global bound meeting the same
// quality floor on the same link and the same grouping decision — both on
// the model's own objective (provable: the fixed configuration is in the
// candidate grid, so per-field minimization can only improve on it) and on
// the measured transfer makespan over the realized archives.
// Deterministic: accounting-only transport, fixed seeds.
func TestAdaptivePlanBeatsFixedBaseline(t *testing.T) {
	fields := mixedFields(t, 32, 5)
	model := plannedModel(t)
	link := &wan.Link{Name: "t", BandwidthMBps: 1000, PerFileOverheadSec: 0.02, Concurrency: 4}
	const floor = 70.0
	popts := planner.Options{MinPSNR: floor, Link: link, Workers: 4, Seed: 5}

	fixedEB, err := planner.FixedBaseline(fields, model, popts)
	if err != nil {
		t.Fatal(err)
	}
	base := CampaignSpec{
		Workers:   4,
		Transport: &SimulatedWANTransport{Link: link, Timescale: -1},
	}
	ctx := context.Background()
	adaptiveSpec := base
	adaptiveSpec.Adaptive = true
	adaptiveSpec.Model = model
	adaptiveSpec.Planner = popts
	adaptive, err := Run(ctx, fields, adaptiveSpec)
	if err != nil {
		t.Fatal(err)
	}
	fixedSpec := base
	fixedSpec.RelErrorBound = fixedEB
	fixedSpec.GroupStrategy = adaptive.Plan.GroupStrategy
	fixedSpec.GroupParam = adaptive.Plan.GroupParam
	fixed, err := Run(ctx, fields, fixedSpec)
	if err != nil {
		t.Fatal(err)
	}

	// Modelled objective: the fixed global configuration planned through
	// the same machinery must never score better than the adaptive plan.
	fixedPlan, err := planner.Build(fields, model, planner.Options{
		Candidates: []planner.Candidate{{RelEB: fixedEB}},
		Link:       link, Workers: 4, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	adaptiveObj := adaptive.Plan.PredCompressSec + float64(adaptive.Plan.PredBytes)/1e6/link.BandwidthMBps
	fixedObj := fixedPlan.PredCompressSec + float64(fixedPlan.PredBytes)/1e6/link.BandwidthMBps
	if adaptiveObj > fixedObj*(1+1e-9) {
		t.Errorf("adaptive plan objective %.6f worse than the fixed bound's %.6f — per-field minimization lost to a global knob",
			adaptiveObj, fixedObj)
	}

	// Measured transfer makespan over realized archives, same grouping.
	fixedEst, err := link.Estimate(fixed.GroupBytes, 5)
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.LinkEstSec > fixedEst.Seconds*1.05 {
		t.Errorf("adaptive transfer makespan %.4fs exceeds fixed baseline's %.4fs",
			adaptive.LinkEstSec, fixedEst.Seconds)
	}
	if adaptive.MinPSNR < floor-10 {
		t.Errorf("adaptive min PSNR %.1f dB far below the shared floor %.0f dB", adaptive.MinPSNR, floor)
	}
}

// An untrained planner must still produce a correct campaign (fallback
// bounds), not an error.
func TestAdaptiveCampaignUntrained(t *testing.T) {
	fields := mixedFields(t, 48, 5)
	res, err := Run(context.Background(), fields, CampaignSpec{
		Workers:  2,
		Adaptive: true,
		Model:    nil,
		Planner:  planner.Options{MinPSNR: 70},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range res.Plan.Fields {
		if !fp.Fallback {
			t.Errorf("%s: expected fallback decision without a model", fp.Field)
		}
	}
	if res.MaxRelError > 1e-5*(1+1e-9) {
		t.Errorf("fallback campaign exceeded the most conservative bound: %g", res.MaxRelError)
	}
}

// Facade smoke tests: every public entry point of package ocelot is
// exercised end-to-end at laptop-test scale — compression round-trips,
// quality prediction, transfer simulation, and the campaign engine.
package ocelot

import (
	"context"
	"testing"
)

func facadeField(t testing.TB, app, name string, shrink int) *Field {
	t.Helper()
	f, err := GenerateField(app, name, shrink, 7)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFacadeCompressRoundTrip(t *testing.T) {
	f := facadeField(t, "CESM", "TMQ", 24)
	cfg := DefaultConfig(1e-3)
	stream, stats, err := Compress(f.Data, f.Dims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil {
		t.Fatal("nil compression stats")
	}
	if len(stream) >= f.RawBytes() {
		t.Errorf("no compression: %d -> %d bytes", f.RawBytes(), len(stream))
	}
	recon, dims, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(recon) != len(f.Data) || len(dims) != len(f.Dims) {
		t.Fatalf("shape mismatch: %d points, dims %v", len(recon), dims)
	}
	maxErr, err := MaxAbsError(f.Data, recon)
	if err != nil {
		t.Fatal(err)
	}
	if maxErr > 1e-3*(1+1e-9) {
		t.Errorf("max error %g exceeds bound", maxErr)
	}
	psnr, err := PSNR(f.Data, recon)
	if err != nil {
		t.Fatal(err)
	}
	if psnr <= 0 {
		t.Errorf("PSNR = %g", psnr)
	}
	if r := CompressionRatio(f.RawBytes(), len(stream)); r <= 1 {
		t.Errorf("ratio = %g", r)
	}
}

func TestFacadePredictorConstants(t *testing.T) {
	f := facadeField(t, "Miranda", "density", 40)
	for _, p := range []Predictor{PredictorLorenzo, PredictorInterp, PredictorRegression} {
		cfg := DefaultConfig(1e-3)
		cfg.Predictor = p
		if _, _, err := Compress(f.Data, f.Dims, cfg); err != nil {
			t.Errorf("predictor %v: %v", p, err)
		}
	}
}

func TestFacadeDatasetCatalog(t *testing.T) {
	apps := Applications()
	if len(apps) == 0 {
		t.Fatal("no applications")
	}
	for _, app := range apps {
		if len(FieldsOf(app)) == 0 {
			t.Errorf("app %s has no fields", app)
		}
	}
	if FieldsOf("no-such-app") != nil {
		t.Error("unknown app should have no fields")
	}
}

func TestFacadeQualityPrediction(t *testing.T) {
	var corpus []*Field
	for _, name := range FieldsOf("CESM")[:4] {
		corpus = append(corpus, facadeField(t, "CESM", name, 40))
	}
	model, err := TrainQualityModel(corpus, false)
	if err != nil {
		t.Fatal(err)
	}
	target := facadeField(t, "CESM", "PSL", 40)
	est, err := EstimateQuality(model, target.Data, target.Dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if est.Ratio <= 0 {
		t.Errorf("predicted ratio = %g", est.Ratio)
	}
	blob, err := model.Save()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadQualityModel(blob)
	if err != nil {
		t.Fatal(err)
	}
	est2, err := EstimateQuality(loaded, target.Data, target.Dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if est2.Ratio != est.Ratio {
		t.Errorf("loaded model predicts %g, original %g", est2.Ratio, est.Ratio)
	}
}

func TestFacadeSimulate(t *testing.T) {
	machines := StandardMachines()
	links := StandardLinks()
	p := &Pipeline{Source: machines["Anvil"], Dest: machines["Bebop"], Link: links["Anvil->Bebop"]}
	fs := UniformFileSet("CESM", 7182, 224e6, 7.2)
	direct, cp, op, err := p.CompareModes(fs, TransferPlan{SourceNodes: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Mode != TransferDirect || cp.Mode != TransferCompressed || op.Mode != TransferGrouped {
		t.Error("mode labels wrong")
	}
	if op.TotalSec >= direct.TotalSec {
		t.Errorf("grouped (%.0fs) must beat direct (%.0fs)", op.TotalSec, direct.TotalSec)
	}
}

func TestFacadeCampaign(t *testing.T) {
	var fields []*Field
	for _, name := range FieldsOf("CESM")[:6] {
		fields = append(fields, facadeField(t, "CESM", name, 40))
	}
	ctx := context.Background()
	classic, err := Run(ctx, fields, CampaignSpec{RelErrorBound: 1e-3, Workers: 4, TransferStreams: 1})
	if err != nil {
		t.Fatal(err)
	}
	if classic.Files != 6 || classic.Ratio <= 1 {
		t.Errorf("classic campaign: %+v", classic)
	}
	spec := CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         4,
		GroupParam:      3,
		Transport:       &SimulatedWANTransport{Link: StandardLinks()["Anvil->Cori"], Timescale: 1e-2},
		TransferStreams: 2,
	}
	pipe, err := Run(ctx, fields, spec)
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Groups != 3 || len(pipe.Stages) != 4 {
		t.Errorf("pipelined campaign: groups=%d stages=%d", pipe.Groups, len(pipe.Stages))
	}
	if pipe.MaxRelError > 1e-3*(1+1e-9) {
		t.Errorf("bound violated: %g", pipe.MaxRelError)
	}
	// The re-entrant handle path: Submit, watch the live status, Wait.
	handle, err := Submit(ctx, fields, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := handle.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if st := handle.Status(); !st.State.Terminal() || st.SentGroups == 0 {
		t.Errorf("terminal handle status: %+v", st)
	}
}

func TestFacadePlannedCampaign(t *testing.T) {
	var fields, train []*Field
	for _, name := range FieldsOf("CESM")[:4] {
		fields = append(fields, facadeField(t, "CESM", name, 40))
		train = append(train, facadeField(t, "CESM", name, 64))
	}
	model, err := TrainPlannerModel(train)
	if err != nil {
		t.Fatal(err)
	}
	spec := CampaignSpec{
		Workers:   2,
		Transport: &SimulatedWANTransport{Link: StandardLinks()["Anvil->Cori"], Timescale: -1},
		Adaptive:  true,
		Model:     model,
		Planner:   PlannerOptions{MinPSNR: 70},
	}
	plan, err := PlanCampaignSpec(fields, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Fields) != 4 || plan.GroupParam < 1 {
		t.Fatalf("plan: %+v", plan)
	}
	res, err := Run(context.Background(), fields, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Planned || res.Plan == nil || res.PredRatio <= 0 || res.MinPSNR <= 0 {
		t.Errorf("planned campaign result incomplete: planned=%v predRatio=%g minPSNR=%g",
			res.Planned, res.PredRatio, res.MinPSNR)
	}
}

func TestFacadeChunkedCompression(t *testing.T) {
	f, err := GenerateField("CESM", "TMQ", 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanChunks(f.Dims, f.NumPoints()/4)
	if len(plan) < 2 {
		t.Fatalf("field did not split: %d chunks", len(plan))
	}
	stream, _, err := CompressChunked(f.Data, f.Dims, DefaultConfig(1e-3), f.NumPoints()/4)
	if err != nil {
		t.Fatal(err)
	}
	if !IsChunkedStream(stream) {
		t.Fatal("CompressChunked did not produce a chunked container")
	}
	recon, dims, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(recon) != f.NumPoints() || len(dims) != len(f.Dims) {
		t.Fatalf("round trip shape mismatch: %d points, dims %v", len(recon), dims)
	}
	maxErr, err := MaxAbsError(f.Data, recon)
	if err != nil {
		t.Fatal(err)
	}
	if maxErr > 1e-3*(1+1e-9) {
		t.Fatalf("max error %g exceeds bound", maxErr)
	}
}

func TestFacadeChunkedCampaign(t *testing.T) {
	fields := make([]*Field, 0, 4)
	for _, name := range FieldsOf("CESM")[:4] {
		f, err := GenerateField("CESM", name, 32, 3)
		if err != nil {
			t.Fatal(err)
		}
		fields = append(fields, f)
	}
	run := func(workers int) *CampaignResult {
		res, err := Run(context.Background(), fields, CampaignSpec{
			RelErrorBound: 1e-3,
			Workers:       workers,
			GroupParam:    2,
			ChunkMB:       float64(fields[0].RawBytes()) / 3 / 1e6,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	solo, wide := run(1), run(4)
	if solo.Chunks <= solo.Files {
		t.Fatalf("chunk fan-out inactive: %d chunks for %d files", solo.Chunks, solo.Files)
	}
	if solo.ReconDigest != wide.ReconDigest {
		t.Fatal("decompressed output differs across endpoint worker counts")
	}
	// The parallelism-aware wall model is exported for tooling.
	if w := PredictParallelCompressSec([]float64{4, 1}, []int{4, 1}, 4, 0); w >= 4 {
		t.Fatalf("chunked wall %g did not divide the wide field", w)
	}
}

// TestFacadeCodecs smoke-tests the codec registry surface: named
// compression, transparent magic dispatch on decode, and the codec-aware
// planner grid.
func TestFacadeCodecs(t *testing.T) {
	names := Codecs()
	has := map[string]bool{}
	for _, n := range names {
		has[n] = true
	}
	if !has["sz3"] || !has["szx"] {
		t.Fatalf("Codecs() = %v, want sz3 and szx registered", names)
	}
	f, err := GenerateField("CESM", "TMQ", 48, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sz3", "szx"} {
		stream, err := CompressWith(name, f.Data, f.Dims, 1e-2)
		if err != nil {
			t.Fatal(err)
		}
		recon, dims, err := Decompress(stream)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(dims) != len(f.Dims) {
			t.Fatalf("%s: dims %v", name, dims)
		}
		m, err := MaxAbsError(f.Data, recon)
		if err != nil {
			t.Fatal(err)
		}
		if m > 1e-2 {
			t.Errorf("%s: max error %g", name, m)
		}
	}
	if _, err := CompressWith("bogus", f.Data, f.Dims, 1e-2); err == nil {
		t.Error("want error for unknown codec")
	}
	if _, err := LookupCodec("szx"); err != nil {
		t.Error(err)
	}
	cands, err := PlannerCodecCandidates([]string{"sz3", "szx"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 21 {
		t.Errorf("codec grid has %d candidates, want 21 (14 sz3 + 7 szx)", len(cands))
	}
}

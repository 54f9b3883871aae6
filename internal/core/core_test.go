package core

import (
	"context"
	"math"
	"testing"

	"ocelot/internal/cluster"
	"ocelot/internal/datagen"
	"ocelot/internal/faas"
	"ocelot/internal/grouping"
	"ocelot/internal/sz"
	"ocelot/internal/wan"
)

func testPipeline(link string) *Pipeline {
	machines := cluster.Standard()
	return &Pipeline{
		Source: machines["Anvil"],
		Dest:   machines["Cori"],
		Link:   wan.StandardLinks()[link],
	}
}

func cesmLike() *FileSet {
	return UniformFileSet("CESM", 7182, 224e6, 7.2)
}

func TestSimulateDirect(t *testing.T) {
	p := testPipeline("Anvil->Cori")
	fs := cesmLike()
	rep, err := p.Simulate(fs, Plan{Mode: ModeDirect, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CompressSec != 0 || rep.DecompressSec != 0 {
		t.Error("direct mode must have no compute phases")
	}
	if rep.MovedBytes != fs.TotalBytes() {
		t.Errorf("moved %d != raw %d", rep.MovedBytes, fs.TotalBytes())
	}
	// Paper: CESM Anvil->Cori NP ≈ 446s. Same regime expected.
	if rep.TotalSec < 200 || rep.TotalSec > 900 {
		t.Errorf("NP time %.0fs out of the calibrated regime (paper: 446s)", rep.TotalSec)
	}
}

// TestTableVIIIShape: CP and OP must dramatically beat NP for compressible
// many-file datasets, and OP must beat CP (grouping recovers small-file
// throughput).
func TestTableVIIIShape(t *testing.T) {
	p := testPipeline("Anvil->Bebop") // slow link: compression pays off most
	fs := cesmLike()
	direct, cp, op, err := p.CompareModes(fs, Plan{SourceNodes: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if cp.TotalSec >= direct.TotalSec {
		t.Fatalf("CP (%.0fs) must beat NP (%.0fs)", cp.TotalSec, direct.TotalSec)
	}
	gain := Gain(direct, op)
	// Paper reports 76% reduction for CESM Anvil->Bebop.
	if gain < 0.4 || gain > 0.95 {
		t.Errorf("OP gain %.2f out of expected range (paper: 0.76)", gain)
	}
	// Grouped transfer moves fewer, larger files.
	if op.MovedFiles >= cp.MovedFiles {
		t.Errorf("OP files %d should be < CP files %d", op.MovedFiles, cp.MovedFiles)
	}
	// OP transfer phase should be at least as fast as CP's.
	if op.TransferSec > cp.TransferSec*1.05 {
		t.Errorf("OP transfer %.1fs should not exceed CP %.1fs", op.TransferSec, cp.TransferSec)
	}
}

// TestMirandaGroupingCaveat reproduces the paper's observation that for
// Miranda (few files), grouping into world-size groups can *hurt* because
// the group count falls below the transfer concurrency.
func TestMirandaGroupingCaveat(t *testing.T) {
	p := testPipeline("Anvil->Cori")
	fs := UniformFileSet("Miranda", 768, 150e6, 4.3)
	plan := Plan{SourceNodes: 16, Seed: 3, GroupStrategy: grouping.ByWorldSize, GroupParam: 8}
	_, cp, op, err := p.CompareModes(fs, plan)
	if err != nil {
		t.Fatal(err)
	}
	// With only 8 groups on an 8-channel link, OP's transfer should NOT be
	// dramatically better than CP's — matching the paper's caveat.
	if op.TransferSec < 0.5*cp.TransferSec {
		t.Errorf("grouping to 8 archives should not massively beat CP: op=%.1f cp=%.1f",
			op.TransferSec, cp.TransferSec)
	}
}

func TestSimulateValidation(t *testing.T) {
	p := testPipeline("Anvil->Cori")
	if _, err := p.Simulate(&FileSet{}, Plan{Mode: ModeDirect}); err == nil {
		t.Error("empty file set must error")
	}
	fs := UniformFileSet("x", 4, 1e6, 0)
	if _, err := p.Simulate(fs, Plan{Mode: ModeCompressed}); err == nil {
		t.Error("zero ratio must error")
	}
	if _, err := p.Simulate(cesmLike(), Plan{Mode: Mode(99)}); err == nil {
		t.Error("unknown mode must error")
	}
	broken := &Pipeline{}
	if _, err := broken.Simulate(cesmLike(), Plan{Mode: ModeDirect}); err == nil {
		t.Error("nil pipeline parts must error")
	}
}

func TestModeString(t *testing.T) {
	if ModeDirect.String() != "NP" || ModeCompressed.String() != "CP" || ModeGrouped.String() != "OP" {
		t.Fatal("mode strings")
	}
	if Mode(42).String() == "" {
		t.Fatal("unknown mode string")
	}
}

func TestRatioJitter(t *testing.T) {
	fs := cesmLike()
	fs.RatioJitterFrac = 0.3
	a := compressedSizes(fs, 1)
	b := compressedSizes(fs, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("jitter not deterministic")
		}
	}
	c := compressedSizes(fs, 2)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds must differ")
	}
}

func campaignFields(t testing.TB) []*datagen.Field {
	t.Helper()
	var fields []*datagen.Field
	for _, name := range []string{"TMQ", "CLDHGH", "FLDSC", "PSL", "LHFLX", "TREFHT"} {
		f, err := datagen.Generate("CESM", name, 36, 5)
		if err != nil {
			t.Fatal(err)
		}
		fields = append(fields, f)
	}
	return fields
}

func TestRunCampaignEndToEnd(t *testing.T) {
	fields := campaignFields(t)
	res, err := Run(context.Background(), fields, CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         4,
		Engine:          EngineBarrier,
		TransferStreams: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Files != len(fields) {
		t.Errorf("files = %d", res.Files)
	}
	if res.Ratio <= 1 {
		t.Errorf("ratio = %.2f, expected compression", res.Ratio)
	}
	if res.MaxRelError > 1e-3*(1+1e-9) {
		t.Errorf("max relative error %g exceeds bound", res.MaxRelError)
	}
	if res.Groups == 0 || res.Groups > len(fields) {
		t.Errorf("groups = %d", res.Groups)
	}
	if res.GroupedBytes < res.CompressedBytes {
		t.Errorf("grouped bytes %d < compressed %d", res.GroupedBytes, res.CompressedBytes)
	}
	if res.Metadata == "" {
		t.Error("metadata text missing")
	}
}

func TestRunCampaignValidation(t *testing.T) {
	if _, err := Run(context.Background(), nil, CampaignSpec{RelErrorBound: 1e-3, Engine: EngineBarrier}); err == nil {
		t.Error("no fields must error")
	}
	fields := campaignFields(t)[:1]
	if _, err := Run(context.Background(), fields, CampaignSpec{Engine: EngineBarrier}); err == nil {
		t.Error("zero bound must error")
	}
}

func TestOrchestratorRoundTrip(t *testing.T) {
	svc := faas.NewService()
	src, err := svc.DeployEndpoint("source", faas.EndpointConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := svc.DeployEndpoint("dest", faas.EndpointConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	orch, err := NewOrchestrator(svc, "source", "dest")
	if err != nil {
		t.Fatal(err)
	}
	f, err := datagen.Generate("Miranda", "density", 32, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sz.DefaultConfig(1e-4)
	stream, err := orch.CompressRemote(context.Background(), f.Data, f.Dims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream) >= f.NumPoints()*8 {
		t.Error("no compression achieved")
	}
	recon, err := orch.DecompressRemote(context.Background(), stream)
	if err != nil {
		t.Fatal(err)
	}
	var maxErr float64
	for i := range recon {
		maxErr = math.Max(maxErr, math.Abs(recon[i]-f.Data[i]))
	}
	if maxErr > 1e-4+1e-12 {
		t.Fatalf("error %g exceeds bound", maxErr)
	}
}

func TestOrchestratorNilService(t *testing.T) {
	if _, err := NewOrchestrator(nil, "a", "b"); err == nil {
		t.Fatal("nil service must error")
	}
}

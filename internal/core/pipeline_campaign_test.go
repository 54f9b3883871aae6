package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ocelot/internal/datagen"
	"ocelot/internal/gridftp"
	"ocelot/internal/grouping"
	"ocelot/internal/wan"
)

// pipelineFields builds a campaign large enough that compression takes
// real wall time, so stage overlap is observable.
func pipelineFields(t testing.TB, n, shrink int) []*datagen.Field {
	t.Helper()
	names := datagen.Fields("CESM")
	if n > len(names) {
		n = len(names)
	}
	fields := make([]*datagen.Field, 0, n)
	for _, name := range names[:n] {
		f, err := datagen.Generate("CESM", name, shrink, 5)
		if err != nil {
			t.Fatal(err)
		}
		fields = append(fields, f)
	}
	return fields
}

// slowLink makes each archive send sleep tens of milliseconds so the
// transfer stage dominates and overlap with compression is unmistakable.
func slowLink() *wan.Link {
	return &wan.Link{Name: "test", BandwidthMBps: 4000, PerFileOverheadSec: 0.03, Concurrency: 8}
}

func TestPipelinedCampaignOverlapsStages(t *testing.T) {
	fields := pipelineFields(t, 12, 16)
	res, err := Run(context.Background(), fields, CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         4,
		GroupParam:      6, // ByWorldSize → 6 groups of 2
		Transport:       &SimulatedWANTransport{Link: slowLink(), Timescale: 1},
		TransferStreams: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Files != 12 || res.Groups != 6 {
		t.Errorf("files=%d groups=%d, want 12/6", res.Files, res.Groups)
	}
	if res.Ratio <= 1 {
		t.Errorf("ratio = %.2f, expected compression", res.Ratio)
	}
	if res.MaxRelError > 1e-3*(1+1e-9) {
		t.Errorf("max relative error %g exceeds bound", res.MaxRelError)
	}
	if res.Metadata == "" || !strings.Contains(res.Metadata, "groups: 6") {
		t.Errorf("metadata missing or wrong:\n%s", res.Metadata)
	}
	if res.LinkSec <= 0 {
		t.Errorf("LinkSec = %g, want > 0 (simulated WAN charged nothing)", res.LinkSec)
	}
	if res.CompressSec <= 0 || res.TransferSec <= 0 || res.DecompressSec <= 0 || res.WallSec <= 0 {
		t.Errorf("missing stage times: %+v", res)
	}
	if len(res.Stages) != 4 {
		t.Fatalf("stages = %d, want 4", len(res.Stages))
	}
	byName := map[string]StageTiming{}
	for _, s := range res.Stages {
		byName[s.Name] = s
	}
	if byName["compress"].Items != 12 {
		t.Errorf("compress items = %d", byName["compress"].Items)
	}
	// A transfer item is a group, a decompress item one of its members.
	if byName["transfer"].Items != 6 || byName["decompress"].Items != 12 {
		t.Errorf("transfer/decompress items = %d/%d, want 6/12",
			byName["transfer"].Items, byName["decompress"].Items)
	}
	// The whole point: stages ran concurrently. With 6 sends of ≥ 30 ms
	// paced while compression/decompression proceed, the measured overlap
	// is structurally far from zero.
	if res.OverlapSec <= 0 {
		t.Errorf("OverlapSec = %g, want > 0", res.OverlapSec)
	}
	serial := res.CompressSec + res.TransferSec + res.DecompressSec
	if res.WallSec >= serial {
		t.Errorf("no pipelining: wall %.3fs >= serial-phase sum %.3fs", res.WallSec, serial)
	}
}

func TestPipelinedCampaignTargetSizeGrouping(t *testing.T) {
	fields := pipelineFields(t, 8, 36)
	res, err := Run(context.Background(), fields, CampaignSpec{
		RelErrorBound: 1e-3,
		Workers:       4,
		GroupStrategy: grouping.ByTargetSize,
		GroupParam:    1 << 14, // small target → several groups
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups < 2 {
		t.Errorf("groups = %d, want ≥ 2 with a small byte target", res.Groups)
	}
	if res.MaxRelError > 1e-3*(1+1e-9) {
		t.Errorf("bound violated: %g", res.MaxRelError)
	}
}

func TestPipelinedCampaignSingleArchive(t *testing.T) {
	fields := pipelineFields(t, 4, 36)
	res, err := Run(context.Background(), fields, CampaignSpec{
		RelErrorBound: 1e-3,
		Workers:       2,
		GroupStrategy: grouping.SingleArchive,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups != 1 {
		t.Errorf("groups = %d, want 1", res.Groups)
	}
}

func TestPipelinedCampaignOverGridFTP(t *testing.T) {
	dir := t.TempDir()
	srv, err := gridftp.NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := gridftp.Dial(srv.Addr(), 4)
	if err != nil {
		t.Fatal(err)
	}

	fields := pipelineFields(t, 6, 36)
	res, err := Run(context.Background(), fields, CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         3,
		GroupParam:      3,
		Transport:       &GridFTPTransport{Client: client},
		TransferStreams: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every archive must have landed at the destination over the real wire.
	landed, err := filepath.Glob(filepath.Join(dir, "group-*.ocgr"))
	if err != nil {
		t.Fatal(err)
	}
	if len(landed) != res.Groups {
		t.Errorf("%d archives on disk, want %d", len(landed), res.Groups)
	}
	for _, p := range landed {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("empty archive %s", p)
		}
	}
}

func TestPipelinedCampaignValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, nil, CampaignSpec{
		RelErrorBound: 1e-3,
	}); err == nil {
		t.Error("no fields must error")
	}
	fields := pipelineFields(t, 1, 40)
	if _, err := Run(ctx, fields, CampaignSpec{}); err == nil {
		t.Error("zero bound must error")
	}
	if _, err := Run(ctx, fields, CampaignSpec{
		RelErrorBound: 1e-3, GroupStrategy: grouping.Strategy(99),
	}); err == nil {
		t.Error("unknown strategy must error")
	}
}

func TestPipelinedCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fields := pipelineFields(t, 4, 36)
	if _, err := Run(ctx, fields, CampaignSpec{
		RelErrorBound: 1e-3,
	}); err == nil {
		t.Error("cancelled context must error")
	}
}

// TestCampaignReportsEngineStats: a campaign on one transfer stream
// reports its wall time and exactly the four stages of the graph, and the
// no-op transport charges no link time.
func TestCampaignReportsEngineStats(t *testing.T) {
	fields := campaignFields(t)
	res, err := Run(context.Background(), fields, CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         4,
		TransferStreams: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WallSec <= 0 || len(res.Stages) != 4 {
		t.Errorf("engine stats missing: wall=%g stages=%d", res.WallSec, len(res.Stages))
	}
	for i, name := range []string{"compress", "pack", "transfer", "decompress"} {
		if i < len(res.Stages) && res.Stages[i].Name != name {
			t.Errorf("stage %d is %q, want %q", i, res.Stages[i].Name, name)
		}
	}
	if res.LinkSec != 0 {
		t.Errorf("nop transport charged %g link seconds", res.LinkSec)
	}
}

func TestTransportValidation(t *testing.T) {
	ctx := context.Background()
	if _, err := (&SimulatedWANTransport{}).Send(ctx, "x", nil); err == nil {
		t.Error("nil link must error")
	}
	if _, err := (&GridFTPTransport{}).Send(ctx, "x", nil); err == nil {
		t.Error("nil client must error")
	}
	if sec, err := (NopTransport{}).Send(ctx, "x", []byte{1}); err != nil || sec != 0 {
		t.Errorf("nop: sec=%g err=%v", sec, err)
	}
	names := []string{(NopTransport{}).Name(), (&SimulatedWANTransport{Link: slowLink()}).Name(), (&GridFTPTransport{}).Name()}
	for _, n := range names {
		if n == "" {
			t.Error("empty transport name")
		}
	}
}

// TestPipelinedWorldSizeGroupCount: the streaming packer must produce
// exactly the requested number of groups even when the field count does
// not divide evenly, so the archive count (and per-file WAN overhead) is
// the one grouping.Plan gives.
func TestPipelinedWorldSizeGroupCount(t *testing.T) {
	fields := pipelineFields(t, 5, 40)
	res, err := Run(context.Background(), fields, CampaignSpec{
		RelErrorBound: 1e-3, Workers: 4, GroupParam: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups != 4 {
		t.Errorf("groups = %d, want 4 (balanced 2+1+1+1)", res.Groups)
	}
}

// TestPipelinedCompressErrorNotMasked: when compression fails, the caller
// must see the compress-stage error, not a downstream decompress error on
// a half-packed group.
func TestPipelinedCompressErrorNotMasked(t *testing.T) {
	fields := pipelineFields(t, 4, 40)
	bad := &datagen.Field{App: "CESM", Name: "broken", Dims: []int{10, 10},
		Data: make([]float64, 5), ElementSize: 8}
	fields = append(fields, bad)
	_, err := Run(context.Background(), fields, CampaignSpec{
		RelErrorBound: 1e-3, Workers: 2, GroupParam: 2,
	})
	if err == nil {
		t.Fatal("mismatched dims must error")
	}
	if !strings.Contains(err.Error(), "stage compress") {
		t.Errorf("root cause masked: %v", err)
	}
}

// TestCampaignStageThroughput: every campaign stage must carry a byte
// attribution and a derived MB/s, with compress/decompress measured over
// raw bytes and pack/transfer over their on-the-wire volumes.
func TestCampaignStageThroughput(t *testing.T) {
	fields := pipelineFields(t, 6, 24)
	res, err := Run(context.Background(), fields, CampaignSpec{
		RelErrorBound: 1e-3, Workers: 2, GroupParam: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := map[string]int64{
		"compress":   res.RawBytes,
		"pack":       res.CompressedBytes,
		"transfer":   res.GroupedBytes,
		"decompress": res.RawBytes,
	}
	seen := 0
	for _, s := range res.Stages {
		want, ok := wantBytes[s.Name]
		if !ok {
			continue
		}
		seen++
		if s.Bytes != want {
			t.Errorf("stage %s: Bytes = %d, want %d", s.Name, s.Bytes, want)
		}
		if s.WallSec > 0 && s.MBps <= 0 {
			t.Errorf("stage %s: MBps = %g with wall %g", s.Name, s.MBps, s.WallSec)
		}
		if s.WallSec > 0 {
			wantRate := float64(s.Bytes) / 1e6 / s.WallSec
			if diff := s.MBps - wantRate; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("stage %s: MBps %g != bytes/wall %g", s.Name, s.MBps, wantRate)
			}
		}
	}
	if seen != 4 {
		t.Errorf("attributed %d stages, want 4", seen)
	}
}

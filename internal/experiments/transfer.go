package experiments

import (
	"context"
	"fmt"
	"strings"

	"ocelot/internal/cluster"
	"ocelot/internal/core"
	"ocelot/internal/datagen"
	"ocelot/internal/wan"
)

// TableII reproduces the file-transfer-pattern measurements: the same
// 300 GB payload split into 1 MB / 10 MB / 100 MB / 1000 MB files between
// NERSC Cori and Argonne Bebop.
func TableII(scale Scale) (*Result, error) {
	res := newResult("Table II")
	link := wan.StandardLinks()["Bebop->Cori"]
	const totalBytes = int64(300) << 30
	cases := []int64{1 << 20, 10 << 20, 100 << 20, 1000 << 20}
	var sb strings.Builder
	sb.WriteString("Table II: file transfer patterns (Cori <-> Bebop, 300GB total)\n")
	sb.WriteString(fmt.Sprintf("%-12s %-10s %12s %12s\n", "File size", "# Files", "Speed (MB/s)", "Duration (s)"))
	for _, fileSize := range cases {
		n := int(totalBytes / fileSize)
		sizes := make([]int64, n)
		for i := range sizes {
			sizes[i] = fileSize
		}
		tr, err := link.Estimate(sizes, scale.Seed)
		if err != nil {
			return nil, err
		}
		sb.WriteString(fmt.Sprintf("%-12s %-10d %12.1f %12.1f\n",
			fmt.Sprintf("%dM", fileSize>>20), n, tr.EffectiveMBps, tr.Seconds))
		res.Values[fmt.Sprintf("speed_%dM", fileSize>>20)] = tr.EffectiveMBps
	}
	res.Text = sb.String()
	return res, nil
}

// datasetCampaign describes one Table VIII dataset at paper scale.
type datasetCampaign struct {
	app       string
	files     int
	fileBytes int64
	// sampleField measures the real compression ratio on synthetic data.
	sampleField string
	relEB       float64
}

// paperCampaigns lists the three Table VIII datasets at full scale.
func paperCampaigns() []datasetCampaign {
	return []datasetCampaign{
		{app: "CESM", files: 7182, fileBytes: int64(1.61e12) / 7182, sampleField: "TMQ", relEB: 1e-3},
		{app: "RTM", files: 3601, fileBytes: int64(682e9) / 3601, sampleField: "snap-1048", relEB: 1e-3},
		{app: "Miranda", files: 768, fileBytes: int64(115e9) / 768, sampleField: "density", relEB: 1e-3},
	}
}

// measuredRatio compresses one synthetic sample field to obtain the
// application's effective compression ratio.
func measuredRatio(c datasetCampaign, scale Scale) (float64, error) {
	f, err := datagen.Generate(c.app, c.sampleField, scale.Shrink, scale.Seed)
	if err != nil {
		return 0, err
	}
	ratio, _, _, err := measureCompression(f, relConfig(f.Data, c.relEB))
	if err != nil {
		return 0, err
	}
	return ratio, nil
}

// TableVIII reproduces the end-to-end NP / CP / OP comparison across the
// three routes, using compression ratios measured on synthetic samples and
// the calibrated machine/link models for the at-scale campaign.
func TableVIII(scale Scale) (*Result, error) {
	scale = scale.withDefaults()
	res := newResult("Table VIII")
	machines := cluster.Standard()
	links := wan.StandardLinks()
	routes := []struct {
		name     string
		src, dst string
		link     string
	}{
		{"Anvil->Cori", "Anvil", "Cori", "Anvil->Cori"},
		{"Anvil->Bebop", "Anvil", "Bebop", "Anvil->Bebop"},
		{"Bebop->Cori", "Bebop", "Cori", "Bebop->Cori"},
	}
	var sb strings.Builder
	sb.WriteString("Table VIII: data transfer among Anvil, Bebop, Cori\n")
	sb.WriteString(fmt.Sprintf("%-9s %-13s %8s %8s %8s %8s %8s %9s %8s %7s\n",
		"Dataset", "Direction", "T(NP)", "T(CP)", "T(OP)", "CPTime", "DPTime", "TotalT", "Gain", "Ratio"))
	for _, c := range paperCampaigns() {
		ratio, err := measuredRatio(c, scale)
		if err != nil {
			return nil, err
		}
		fs := core.UniformFileSet(c.app, c.files, c.fileBytes, ratio)
		fs.RatioJitterFrac = 0.15
		for _, rt := range routes {
			p := &core.Pipeline{Source: machines[rt.src], Dest: machines[rt.dst], Link: links[rt.link]}
			srcNodes := 16
			if rt.src == "Bebop" {
				srcNodes = 8
			}
			direct, cp, op, err := p.CompareModes(fs, core.Plan{
				SourceNodes: srcNodes, Seed: scale.Seed,
				GroupParam: int64(64), // groups sized to keep concurrency busy
			})
			if err != nil {
				return nil, err
			}
			best := op
			if cp.TotalSec < op.TotalSec {
				best = cp
			}
			gain := core.Gain(direct, best)
			sb.WriteString(fmt.Sprintf("%-9s %-13s %7.0fs %7.0fs %7.0fs %7.1fs %7.1fs %8.1fs %7.0f%% %7.1f\n",
				c.app, rt.name, direct.TotalSec, cp.TransferSec, op.TransferSec,
				op.CompressSec, op.DecompressSec, best.TotalSec, 100*gain, ratio))
			res.Values[c.app+"/"+rt.name+"/gain"] = gain
			res.Values[c.app+"/"+rt.name+"/np"] = direct.TotalSec
			res.Values[c.app+"/"+rt.name+"/total"] = best.TotalSec
		}
	}
	sb.WriteString("(Gain = (T(NP) - TotalT)/T(NP); paper range: 41%-91%)\n")
	res.Text = sb.String()
	return res, nil
}

// Fig9 reproduces parallel compression/decompression scaling on Anvil:
// compression time falls with node count; decompression degrades past the
// PFS knee.
func Fig9(scale Scale) (*Result, error) {
	res := newResult("Fig 9")
	anvil := cluster.Standard()["Anvil"]
	apps := []struct {
		name  string
		files int
		bytes int64
	}{
		{"Miranda", 768, 150e6},
		{"CESM", 7182, 224e6},
		{"RTM", 3601, 189e6},
	}
	nodes := []int{1, 2, 4, 8, 16}
	var sb strings.Builder
	sb.WriteString("Fig 9: parallel compression (left) and decompression (right) on Anvil\n")
	sb.WriteString(fmt.Sprintf("%-9s %6s %14s %14s\n", "Dataset", "Nodes", "Compress (s)", "Decompress (s)"))
	for _, app := range apps {
		sizes := make([]int64, app.files)
		for i := range sizes {
			sizes[i] = app.bytes
		}
		for _, n := range nodes {
			ct := anvil.CompressTime(sizes, n)
			dt := anvil.DecompressTime(sizes, n)
			sb.WriteString(fmt.Sprintf("%-9s %6d %14.1f %14.1f\n", app.name, n, ct, dt))
			res.Values[fmt.Sprintf("%s/compress_n%d", app.name, n)] = ct
			res.Values[fmt.Sprintf("%s/decompress_n%d", app.name, n)] = dt
		}
	}
	sb.WriteString("(paper: compression monotone; decompression suffers I/O contention beyond ~4 nodes)\n")
	res.Text = sb.String()
	return res, nil
}

// Fig16 reproduces the direct-vs-compressed transfer time comparison for
// the two Anvil routes.
func Fig16(scale Scale) (*Result, error) {
	scale = scale.withDefaults()
	res := newResult("Fig 16")
	machines := cluster.Standard()
	links := wan.StandardLinks()
	var sb strings.Builder
	sb.WriteString("Fig 16: transfer time — direct vs with parallel compression\n")
	sb.WriteString(fmt.Sprintf("%-9s %-13s %12s %16s %10s\n",
		"Dataset", "Route", "Direct (s)", "Compressed (s)", "Speedup"))
	for _, c := range paperCampaigns() {
		ratio, err := measuredRatio(c, scale)
		if err != nil {
			return nil, err
		}
		fs := core.UniformFileSet(c.app, c.files, c.fileBytes, ratio)
		for i, rt := range []struct{ dst, link string }{
			{"Cori", "Anvil->Cori"},
			{"Bebop", "Anvil->Bebop"},
		} {
			p := &core.Pipeline{Source: machines["Anvil"], Dest: machines[rt.dst], Link: links[rt.link]}
			direct, _, op, err := p.CompareModes(fs, core.Plan{SourceNodes: 16, Seed: scale.Seed, GroupParam: 64})
			if err != nil {
				return nil, err
			}
			speedup := direct.TotalSec / op.TotalSec
			sb.WriteString(fmt.Sprintf("%-9s (%d) %-9s %12.0f %16.0f %9.1fx\n",
				c.app, i+1, rt.link, direct.TotalSec, op.TotalSec, speedup))
			res.Values[c.app+"/"+rt.link+"/speedup"] = speedup
		}
	}
	sb.WriteString("(paper headline: up to 11.2x speed-up)\n")
	res.Text = sb.String()
	return res, nil
}

// PipelineOverlap contrasts the barrier (sequential-phase) and streaming
// campaign engines on the same data and the same simulated WAN: the
// streaming engine starts shipping a packed group while later fields are
// still compressing, so its wall time drops below the sequential phase
// sum. This is the repo's artifact for the pipelining enhancement the
// Globus exascale work (arXiv:2503.22981) and the compression survey
// (arXiv:2404.02840) both call for.
func PipelineOverlap(scale Scale) (*Result, error) {
	scale = scale.timing()
	res := newResult("Pipeline")

	const nFields = 12
	fields, err := datagen.GenerateFirst("CESM", nFields, scale.Shrink, scale.Seed)
	if err != nil {
		return nil, err
	}

	link := wan.StandardLinks()["Anvil->Bebop"]
	spec := core.CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         4,
		GroupParam:      6,
		Codec:           scale.Codec,
		Transport:       &core.SimulatedWANTransport{Link: link, Timescale: 1},
		TransferStreams: 2,
	}
	ctx := context.Background()
	seqSpec := spec
	seqSpec.Engine = core.EngineSequential
	seq, err := core.Run(ctx, fields, seqSpec)
	if err != nil {
		return nil, err
	}
	pipe, err := core.Run(ctx, fields, spec)
	if err != nil {
		return nil, err
	}

	var sb strings.Builder
	sb.WriteString("Pipeline: sequential vs streaming campaign on the simulated Anvil->Bebop link\n")
	sb.WriteString(fmt.Sprintf("%d CESM fields, %.1f MB raw, %d groups, ratio %.1f\n\n",
		pipe.Files, float64(pipe.RawBytes)/1e6, pipe.Groups, pipe.Ratio))
	sb.WriteString(fmt.Sprintf("%-12s %10s %10s %10s %10s %10s\n",
		"Engine", "Wall (s)", "Comp (s)", "Xfer (s)", "Dcmp (s)", "Ovlp (s)"))
	for _, row := range []struct {
		name string
		r    *core.CampaignResult
	}{{"sequential", seq}, {"pipelined", pipe}} {
		sb.WriteString(fmt.Sprintf("%-12s %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			row.name, row.r.WallSec, row.r.CompressSec, row.r.TransferSec,
			row.r.DecompressSec, row.r.OverlapSec))
	}
	sb.WriteString("\nper-stage ledger (pipelined):\n")
	sb.WriteString(fmt.Sprintf("%-12s %8s %7s %12s %12s\n", "Stage", "Workers", "Items", "Busy (s)", "Span (s)"))
	for _, s := range pipe.Stages {
		sb.WriteString(fmt.Sprintf("%-12s %8d %7d %12.3f %12.3f\n",
			s.Name, s.Workers, s.Items, s.BusySec, s.WallSec))
	}
	speedup := 0.0
	if pipe.WallSec > 0 {
		speedup = seq.WallSec / pipe.WallSec
	}
	sb.WriteString(fmt.Sprintf("\nspeedup %.2fx; %.3fs of stage time hidden by overlap\n",
		speedup, pipe.OverlapSec))
	res.Text = sb.String()
	res.Values["wall_sequential"] = seq.WallSec
	res.Values["wall_pipelined"] = pipe.WallSec
	res.Values["overlap_sec"] = pipe.OverlapSec
	res.Values["speedup"] = speedup
	return res, nil
}

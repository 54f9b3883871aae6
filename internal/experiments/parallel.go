package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"ocelot/internal/core"
	"ocelot/internal/datagen"
	"ocelot/internal/dtree"
	"ocelot/internal/faas"
	"ocelot/internal/planner"
	"ocelot/internal/sz"
	"ocelot/internal/wan"
)

// parallelWorkerCounts are the endpoint widths the artifact sweeps, in
// emission order.
var parallelWorkerCounts = []int{1, 2, 8}

// parallelDispatch is the fan-out endpoint's simulated per-chunk dispatch
// cost (the fabric's warm-start), and parallelCold the one-off container
// cold start. Like SimulatedWANTransport's pacing, these model the remote
// endpoint's per-invocation cost in wall time — so endpoint width shows up
// as a real wall-clock win even where local cores are scarce, and the
// planner's dispatch-aware cost model has a calibrated target to predict.
const (
	parallelDispatch = 20 * time.Millisecond
	parallelCold     = 5 * time.Millisecond
)

// ParallelCompression measures the chunk-parallel compression fan-out: the
// same multi-field campaign runs over the same simulated WAN with the
// fan-out endpoint at 1, 2, and 8 workers. Every field is decomposed into
// ~6 chunks that are batch-submitted to the funcX-style endpoint (with a
// small cold-start so the warming model is exercised), compressed by
// whichever workers are free, and reassembled by chunk index — so the
// decompressed output must be bit-identical across all worker counts (the
// artifact asserts this via the campaign recon digests) while wall time
// falls with endpoint width. The artifact also reports the
// parallelism-aware planner's predicted compression wall beside the
// measured one, closing the loop on the cost model the grouping decision
// uses. Chunk/worker configuration is embedded in the Values so the
// printed figures say what they were measured on.
func ParallelCompression(scale Scale) (*Result, error) {
	scale = scale.withDefaults()
	// Keep fields small enough that the modeled dispatch cost dominates the
	// local CPU share: the artifact measures fan-out scheduling, not this
	// machine's core count.
	if scale.Shrink < 16 {
		scale.Shrink = 16
	}
	res := newResult("ParallelCompression")

	const nFields = 8
	fields, err := datagen.GenerateFirst("CESM", nFields, scale.Shrink, scale.Seed)
	if err != nil {
		return nil, err
	}
	// ~6 chunks per field at any scale: the chunk plan tracks the field
	// size, so the artifact's decomposition is scale-invariant.
	chunkMB := float64(fields[0].RawBytes()) / 6 / 1e6

	link := wan.StandardLinks()["Anvil->Bebop"]
	ctx := context.Background()
	runs := make([]*core.CampaignResult, 0, len(parallelWorkerCounts))
	for _, w := range parallelWorkerCounts {
		r, err := core.Run(ctx, fields, core.CampaignSpec{
			RelErrorBound: 1e-3,
			Workers:       8, // submitters + decompression, equal in every run
			GroupParam:    4,
			Codec:         scale.Codec,
			// Fresh transport per run: pacing state is shared per instance.
			Transport:       &core.SimulatedWANTransport{Link: link, Timescale: 1},
			ChunkMB:         chunkMB,
			CompressWorkers: w,
			ChunkEndpoint:   faas.EndpointConfig{ColdStart: parallelCold, WarmStart: parallelDispatch},
		})
		if err != nil {
			return nil, fmt.Errorf("parallel compression @%d workers: %w", w, err)
		}
		runs = append(runs, r)
	}

	// Bit-identity across endpoint widths: same chunk plan, same bytes.
	identical := true
	for _, r := range runs[1:] {
		if r.ReconDigest != runs[0].ReconDigest || r.Chunks != runs[0].Chunks {
			identical = false
		}
	}

	// Parallelism-aware prediction vs the measured 8-worker compress span:
	// a quick sweep trains the quality model on shrunken stand-ins, then
	// the planner predicts the chunked compress wall at 8 workers.
	train, err := datagen.GenerateFirst("CESM", nFields, scale.Shrink*2, scale.Seed+1)
	if err != nil {
		return nil, err
	}
	cands := []planner.Candidate{{RelEB: 1e-3, Codec: scale.Codec}}
	model, err := planner.TrainFromSweep(train, cands, dtree.Params{MaxDepth: 14})
	if err != nil {
		return nil, err
	}
	plan, err := planner.Build(fields, model, planner.Options{
		Candidates:       cands,
		Workers:          8,
		ChunkBytes:       int64(chunkMB * 1e6),
		ChunkDispatchSec: parallelDispatch.Seconds(),
		Seed:             scale.Seed,
	})
	if err != nil {
		return nil, err
	}
	wide := runs[len(runs)-1]
	// plan.PredCompressSec models 8 true endpoint workers (the remote
	// deployment). The in-process fabric used here runs on this host: the
	// modeled dispatch cost is sleep and parallelizes 8-way, but the real
	// CPU share can only parallelize across the cores the host has. The
	// host-adjusted expectation prices the two resources separately, so
	// the predicted-vs-measured comparison is meaningful on any machine.
	secs := make([]float64, len(plan.Fields))
	chunksPer := make([]int, len(plan.Fields))
	for i, fp := range plan.Fields {
		secs[i] = fp.PredSec
		chunksPer[i] = len(planChunksOf(fields[i], chunkMB))
	}
	effCPU := 8
	if n := runtime.GOMAXPROCS(0); n < effCPU {
		effCPU = n
	}
	predHost := planner.ParallelCompressSec(secs, chunksPer, effCPU, 0, 0) +
		planner.ParallelCompressSec(make([]float64, len(secs)), chunksPer, 8, 0, parallelDispatch.Seconds())
	predErr := 0.0
	if wide.CompressSec > 0 {
		predErr = (predHost - wide.CompressSec) / wide.CompressSec
	}

	var sb strings.Builder
	sb.WriteString("ParallelCompression: chunk fan-out across FaaS endpoint workers (same simulated Anvil->Bebop link)\n")
	sb.WriteString(fmt.Sprintf("%d CESM fields, %.1f MB raw, %.2f MB chunks (%d total), groups=4, %v warm dispatch + %v cold start per endpoint\n\n",
		nFields, float64(runs[0].RawBytes)/1e6, chunkMB, runs[0].Chunks, parallelDispatch, parallelCold))
	sb.WriteString(fmt.Sprintf("%-10s %10s %10s %10s %10s %12s\n",
		"Workers", "Wall (s)", "Comp (s)", "Xfer (s)", "Ovlp (s)", "Speedup"))
	for i, r := range runs {
		sb.WriteString(fmt.Sprintf("%-10d %10.3f %10.3f %10.3f %10.3f %11.2fx\n",
			parallelWorkerCounts[i], r.WallSec, r.CompressSec, r.TransferSec,
			r.OverlapSec, runs[0].WallSec/r.WallSec))
	}
	if identical {
		sb.WriteString("\ndecompressed output bit-identical across all worker counts ✓\n")
	} else {
		sb.WriteString("\nWARNING: decompressed output DIFFERS across worker counts\n")
	}
	sb.WriteString(fmt.Sprintf("planner (parallelism-aware): compress wall %.3fs predicted for 8 remote workers;\n"+
		"  host-adjusted (%d cores for the CPU share) %.3fs vs measured %.3fs (%+.0f%%)\n",
		plan.PredCompressSec, effCPU, predHost, wide.CompressSec, 100*predErr))

	res.Text = sb.String()
	// Configuration keys first, so artifact trajectories are comparable.
	res.Values["config/chunk_mb"] = chunkMB
	res.Values["config/chunks"] = float64(runs[0].Chunks)
	res.Values["config/fields"] = float64(nFields)
	res.Values["config/groups"] = float64(runs[0].Groups)
	for i, r := range runs {
		w := parallelWorkerCounts[i]
		res.Values[fmt.Sprintf("wall_w%d", w)] = r.WallSec
		res.Values[fmt.Sprintf("compress_w%d", w)] = r.CompressSec
	}
	res.Values["speedup_8v1"] = runs[0].WallSec / wide.WallSec
	res.Values["digest_match"] = b2f(identical)
	res.Values["pred_compress_sec"] = plan.PredCompressSec
	res.Values["pred_compress_host_sec"] = predHost
	res.Values["meas_compress_sec"] = wide.CompressSec
	res.Values["pred_compress_relerr"] = predErr
	return res, nil
}

// planChunksOf mirrors the campaign engine's chunk plan for one field at
// the artifact's chunk size.
func planChunksOf(f *datagen.Field, chunkMB float64) []sz.ChunkRange {
	return sz.PlanChunksBytes(f.Dims, int64(chunkMB*1e6), f.ElementSize)
}

// b2f renders a boolean as a Values scalar.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

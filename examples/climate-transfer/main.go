// Climate-transfer: the paper's motivating scenario. A CESM climate
// campaign (many 2-D fields) is compressed in parallel, packed into grouped
// archives, "shipped", unpacked, decompressed, and verified — then the same
// campaign is simulated at paper scale (7182 files, 1.61 TB) over the
// calibrated Anvil→Bebop link to show the end-to-end win.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ocelot"
	"ocelot/internal/grouping"
)

func main() {
	// --- Real data path (laptop scale) ---
	fields := make([]*ocelot.Field, 0, 12)
	for _, name := range ocelot.FieldsOf("CESM")[:12] {
		f, err := ocelot.GenerateField("CESM", name, 20, 3)
		if err != nil {
			log.Fatal(err)
		}
		fields = append(fields, f)
	}
	res, err := ocelot.Run(context.Background(), fields, ocelot.CampaignSpec{
		RelErrorBound: 1e-3,
		Workers:       8,
		GroupStrategy: grouping.ByWorldSize,
		GroupParam:    4,
		Engine:        ocelot.EngineBarrier,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("real campaign: %d fields, %.1f MB raw -> %.1f MB in %d groups (ratio %.1f)\n",
		res.Files, float64(res.RawBytes)/1e6, float64(res.GroupedBytes)/1e6,
		res.Groups, res.Ratio)
	fmt.Printf("compress %.2fs, decompress %.2fs, max relative error %.2e ✓\n",
		res.CompressSec, res.DecompressSec, res.MaxRelError)

	machines := ocelot.StandardMachines()
	links := ocelot.StandardLinks()

	// --- Pipelined engine: ship groups while later fields compress ---
	// The same campaign runs on the streaming engine, paced by the
	// calibrated Anvil->Bebop link in real time (each group archive pays
	// the link's per-file overhead), first with hard phase barriers and
	// then pipelined.
	spec := ocelot.CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         8,
		GroupParam:      4,
		Transport:       &ocelot.SimulatedWANTransport{Link: links["Anvil->Bebop"], Timescale: 1},
		TransferStreams: 2,
	}
	seqSpec := spec
	seqSpec.Engine = ocelot.EngineSequential
	seq, err := ocelot.Run(context.Background(), fields, seqSpec)
	if err != nil {
		log.Fatal(err)
	}
	// The pipelined leg runs through the re-entrant handle API: Submit
	// returns immediately, Status is watchable while bytes move (the serve
	// daemon streams exactly these snapshots), and Wait joins the result.
	handle, err := ocelot.Submit(context.Background(), fields, spec)
	if err != nil {
		log.Fatal(err)
	}
	mid := handle.Status()
	for mid.SentGroups == 0 && !mid.State.Terminal() {
		time.Sleep(time.Millisecond)
		mid = handle.Status()
	}
	streamed, err := handle.Wait(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlive handle snapshot mid-campaign: state=%s, %d groups already shipped\n",
		mid.State, mid.SentGroups)
	fmt.Printf("\nstreaming engine over simulated Anvil->Bebop (real-time pacing):\n")
	fmt.Printf("  sequential phases: wall %.3fs\n", seq.WallSec)
	fmt.Printf("  pipelined stages:  wall %.3fs (%.3fs of stage time hidden by overlap)\n",
		streamed.WallSec, streamed.OverlapSec)
	for _, s := range streamed.Stages {
		fmt.Printf("    %-10s workers=%d items=%2d busy=%.3fs span=%.3fs\n",
			s.Name, s.Workers, s.Items, s.BusySec, s.WallSec)
	}

	// --- Chunk-parallel leg: fan compression out across pool workers ---
	// Every field is decomposed into ~4 chunks queued on the campaign's
	// chunk pool; the same campaign runs with the pool at 1 and at 8
	// workers. Pool width is a wall-clock lever as far as there are cores
	// to spread the chunks over, and the decompressed output is
	// bit-identical either way (the chunk plan depends only on shape and
	// chunk size).
	chunkLeg := func(workers int) *ocelot.CampaignResult {
		r, err := ocelot.Run(context.Background(), fields, ocelot.CampaignSpec{
			RelErrorBound:   1e-3,
			Workers:         8,
			GroupParam:      4,
			Transport:       &ocelot.SimulatedWANTransport{Link: links["Anvil->Bebop"], Timescale: 1},
			ChunkMB:         float64(fields[0].RawBytes()) / 4 / 1e6,
			CompressWorkers: workers,
		})
		if err != nil {
			log.Fatal(err)
		}
		return r
	}
	narrow, wide := chunkLeg(1), chunkLeg(8)
	fmt.Printf("\nchunk-parallel compression (%d chunks over the chunk pool):\n", wide.Chunks)
	fmt.Printf("  1 worker:  wall %.3fs (compress span %.3fs)\n", narrow.WallSec, narrow.CompressSec)
	fmt.Printf("  8 workers: wall %.3fs (compress span %.3fs), speedup %.2fx\n",
		wide.WallSec, wide.CompressSec, narrow.WallSec/wide.WallSec)
	if narrow.ReconDigest == wide.ReconDigest {
		fmt.Printf("  decompressed output bit-identical across worker counts ✓\n")
	} else {
		log.Fatalf("decompressed output DIFFERS across worker counts: %x vs %x",
			narrow.ReconDigest, wide.ReconDigest)
	}

	// --- Adaptive leg: the planner closes the predict-then-transfer loop ---
	// A quality model trained on shrunken stand-ins predicts ratio and PSNR
	// per field and measures each codec's speed; the planner assigns each
	// field its own bound and predictor under a 70 dB floor and picks the
	// grouping, then the same
	// pipelined engine runs the plan. The result carries predicted vs
	// actual so the forecast is accountable.
	train := make([]*ocelot.Field, 0, len(fields))
	for _, name := range ocelot.FieldsOf("CESM")[:12] {
		f, err := ocelot.GenerateField("CESM", name, 40, 7)
		if err != nil {
			log.Fatal(err)
		}
		train = append(train, f)
	}
	model, err := ocelot.TrainPlannerModel(train)
	if err != nil {
		log.Fatal(err)
	}
	aspec := spec
	// The plan assumes the link's full concurrency is offered; 0 lets the
	// engine default the stream count from the transport's hint.
	aspec.TransferStreams = 0
	aspec.Adaptive = true
	aspec.Model = model
	aspec.Planner = ocelot.PlannerOptions{MinPSNR: 70}
	adaptive, err := ocelot.Run(context.Background(), fields, aspec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nadaptive campaign (planner, 70 dB floor):\n")
	fmt.Printf("  wall %.3fs (fixed pipelined: %.3fs); plan took %.3fs\n",
		adaptive.WallSec, streamed.WallSec, adaptive.PlanSec)
	fmt.Printf("  predicted vs actual: ratio %.1f/%.1f, transfer makespan %.3fs/%.3fs\n",
		adaptive.PredRatio, adaptive.Ratio, adaptive.PredTransferSec, adaptive.LinkEstSec)
	fmt.Printf("  min PSNR %.1f dB, max rel error %.2e\n", adaptive.MinPSNR, adaptive.MaxRelError)

	// --- Paper-scale simulation over the calibrated WAN ---
	pipe := &ocelot.Pipeline{Source: machines["Anvil"], Dest: machines["Bebop"], Link: links["Anvil->Bebop"]}
	campaign := ocelot.UniformFileSet("CESM", 7182, 224e6, res.Ratio)
	direct, err := pipe.Simulate(campaign, ocelot.TransferPlan{Mode: ocelot.TransferDirect, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	grouped, err := pipe.Simulate(campaign, ocelot.TransferPlan{
		Mode: ocelot.TransferGrouped, SourceNodes: 16, Seed: 1, GroupParam: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated 1.61TB CESM campaign over Anvil->Bebop:\n")
	fmt.Printf("  direct:           %7.0fs\n", direct.TotalSec)
	fmt.Printf("  ocelot (grouped): %7.0fs  [cp %.0fs + xfer %.0fs + dp %.0fs]\n",
		grouped.TotalSec, grouped.CompressSec, grouped.TransferSec, grouped.DecompressSec)
	fmt.Printf("  time saved: %.0f%% (paper: 76%%)\n",
		100*(direct.TotalSec-grouped.TotalSec)/direct.TotalSec)
}

package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"ocelot/internal/codec"
	"ocelot/internal/core"
	"ocelot/internal/datagen"
	"ocelot/internal/dtree"
	"ocelot/internal/metrics"
	"ocelot/internal/planner"
	"ocelot/internal/sz"
	"ocelot/internal/szx"
	"ocelot/internal/wan"
)

// shootoutCodecs are the codecs the artifact compares, in emission order.
var shootoutCodecs = []string{sz.CodecName, szx.Name}

// Shootout links: a LAN-class path where compression time dominates the
// end-to-end wall, and a WAN-class path where every byte moved is
// expensive. The planner should land on opposite codecs across them.
func shootoutLinks() (fast, slow *wan.Link) {
	fast = &wan.Link{Name: "fast-lan-10GBps", BandwidthMBps: 10000,
		PerFileOverheadSec: 0.005, Concurrency: 8}
	slow = &wan.Link{Name: "slow-wan-100MBps", BandwidthMBps: 100,
		PerFileOverheadSec: 0.05, Concurrency: 4}
	return fast, slow
}

// shootoutPlanWorkers is the endpoint-scale compression parallelism the
// planner assumes (a multi-core DTN node, matching the paper's 16-node ×
// multi-core source endpoints). It sets where the codec crossover falls:
// parallel workers divide compression seconds but not link seconds, so a
// wide endpoint pushes the "slow enough that sz3's ratio wins" threshold
// well above the 100 MB/s WAN link.
const shootoutPlanWorkers = 32

// CodecShootout races the registered codecs end-to-end: the same
// multi-field campaign runs once per codec over a fast (10 GB/s LAN-like)
// and a slow (100 MB/s WAN-like) simulated link, measuring compression
// seconds, ratio, and PSNR, and modelling the pipelined end-to-end wall
// per codec per link. A quality model trained across both codecs then
// drives the planner on each link under one PSNR floor — the artifact's
// point: with a codec axis in the candidate grid, the planner picks the
// ultra-fast szx on the fast link (compression-bound) and the high-ratio
// sz3 on the slow link (bandwidth-bound). No global codec knob can do
// both at once.
func CodecShootout(scale Scale) (*Result, error) {
	scale = scale.timing()
	res := newResult("CodecShootout")

	const nFields = 8
	fields, err := datagen.GenerateFirst("CESM", nFields, scale.Shrink, scale.Seed)
	if err != nil {
		return nil, err
	}
	fast, slow := shootoutLinks()
	links := []*wan.Link{fast, slow}
	ctx := context.Background()

	// One campaign per codec per link on the accounting-only transport
	// (deterministic link seconds, no sleeping): compression and ratio are
	// measured on real data, transfer is modelled on the realized
	// archives.
	type leg struct {
		run  *core.CampaignResult
		xfer float64 // link-model makespan over realized archives
		e2e  float64 // pipelined-wall model max(C,T)+min(C,T)/G
	}
	legs := map[string]map[string]*leg{} // codec → link → leg
	psnr := map[string]float64{}         // codec → min PSNR across fields
	for _, codecName := range shootoutCodecs {
		legs[codecName] = map[string]*leg{}
		for _, link := range links {
			r, err := core.Run(ctx, fields, core.CampaignSpec{
				RelErrorBound: 1e-3,
				Workers:       4,
				GroupParam:    4,
				Codec:         codecName,
				Transport:     &core.SimulatedWANTransport{Link: link, Timescale: -1},
			})
			if err != nil {
				return nil, fmt.Errorf("shootout %s over %s: %w", codecName, link.Name, err)
			}
			est, err := link.Estimate(r.GroupBytes, scale.Seed)
			if err != nil {
				return nil, err
			}
			c, tr, g := r.CompressSec, est.Seconds, float64(r.Groups)
			legs[codecName][link.Name] = &leg{
				run:  r,
				xfer: tr,
				e2e:  math.Max(c, tr) + math.Min(c, tr)/g,
			}
		}
		// PSNR is link-independent; measure it once per codec from the
		// fast-link campaign's configuration.
		minP := math.Inf(1)
		for _, f := range fields {
			rng := metrics.ComputeRange(f.Data).Range
			if rng <= 0 {
				rng = 1
			}
			stream, err := compressWithCodec(codecName, f, 1e-3*rng)
			if err != nil {
				return nil, err
			}
			recon, _, err := codec.Decompress(stream)
			if err != nil {
				return nil, err
			}
			p, err := metrics.PSNR(f.Data, recon)
			if err != nil {
				return nil, err
			}
			minP = math.Min(minP, p)
		}
		psnr[codecName] = minP
	}

	// Codec-aware planning: one model trained across both codecs, one PSNR
	// floor, two links. Training uses shrunken stand-ins with a different
	// seed so ground truth is not memorized point-for-point.
	cands, err := planner.CodecCandidates(shootoutCodecs)
	if err != nil {
		return nil, err
	}
	train, err := datagen.GenerateFirst("CESM", nFields, scale.Shrink*2, scale.Seed+1)
	if err != nil {
		return nil, err
	}
	model, err := planner.TrainFromSweep(train, cands, dtree.Params{MaxDepth: 14})
	if err != nil {
		return nil, err
	}
	const floor = 60.0
	szxShare := map[string]float64{}
	planPicks := map[string]string{}
	for _, link := range links {
		plan, err := planner.Build(fields, model, planner.Options{
			Candidates: cands,
			MinPSNR:    floor,
			Link:       link,
			Workers:    shootoutPlanWorkers,
			Seed:       scale.Seed,
		})
		if err != nil {
			return nil, err
		}
		nSZX := 0
		counts := map[string]int{}
		for _, fp := range plan.Fields {
			counts[fp.Codec]++
			if fp.Codec == szx.Name {
				nSZX++
			}
		}
		szxShare[link.Name] = float64(nSZX) / float64(len(plan.Fields))
		planPicks[link.Name] = fmt.Sprintf("%v", counts)
	}

	sz3Fast, szxFast := legs[sz.CodecName][fast.Name], legs[szx.Name][fast.Name]
	sz3Slow, szxSlow := legs[sz.CodecName][slow.Name], legs[szx.Name][slow.Name]
	speedup := math.Inf(1)
	if szxFast.run.CompressSec > 0 {
		speedup = sz3Fast.run.CompressSec / szxFast.run.CompressSec
	}

	var sb strings.Builder
	sb.WriteString("CodecShootout: sz3 (high ratio) vs szx (ultra fast) end-to-end\n")
	sb.WriteString(fmt.Sprintf("%d CESM fields, %.1f MB raw, rel-eb 1e-3, groups=4; links: %s, %s\n\n",
		nFields, float64(sz3Fast.run.RawBytes)/1e6, fast.Name, slow.Name))
	sb.WriteString(fmt.Sprintf("%-6s %-18s %10s %8s %10s %10s %10s\n",
		"Codec", "Link", "Comp (s)", "Ratio", "PSNR(dB)", "Xfer (s)", "E2E (s)"))
	for _, codecName := range shootoutCodecs {
		for _, link := range links {
			l := legs[codecName][link.Name]
			sb.WriteString(fmt.Sprintf("%-6s %-18s %10.3f %8.1f %10.1f %10.3f %10.3f\n",
				codecName, link.Name, l.run.CompressSec, l.run.Ratio,
				psnr[codecName], l.xfer, l.e2e))
		}
	}
	sb.WriteString(fmt.Sprintf("\nszx compresses %.1fx faster; sz3 moves %.1fx fewer bytes\n",
		speedup, float64(szxFast.run.GroupedBytes)/float64(sz3Fast.run.GroupedBytes)))
	sb.WriteString(fmt.Sprintf("codec-aware planner (floor %.0f dB, %d workers): fast link picks %s; slow link picks %s\n",
		floor, shootoutPlanWorkers, planPicks[fast.Name], planPicks[slow.Name]))

	res.Text = sb.String()
	res.Values["config/fields"] = float64(nFields)
	res.Values["config/plan_workers"] = shootoutPlanWorkers
	res.Values["config/floor_db"] = floor
	for _, codecName := range shootoutCodecs {
		res.Values[codecName+"/compress_sec"] = legs[codecName][fast.Name].run.CompressSec
		res.Values[codecName+"/ratio"] = legs[codecName][fast.Name].run.Ratio
		res.Values[codecName+"/psnr_db"] = psnr[codecName]
		res.Values[codecName+"/xfer_fast_sec"] = legs[codecName][fast.Name].xfer
		res.Values[codecName+"/xfer_slow_sec"] = legs[codecName][slow.Name].xfer
		res.Values[codecName+"/e2e_fast_sec"] = legs[codecName][fast.Name].e2e
		res.Values[codecName+"/e2e_slow_sec"] = legs[codecName][slow.Name].e2e
	}
	res.Values["speedup_szx"] = speedup
	res.Values["szx_share_fast"] = szxShare[fast.Name]
	res.Values["szx_share_slow"] = szxShare[slow.Name]
	res.Values["e2e_fast_szx_wins"] = b2f(szxFast.e2e < sz3Fast.e2e)
	res.Values["e2e_slow_sz3_wins"] = b2f(sz3Slow.e2e < szxSlow.e2e)
	return res, nil
}

// compressWithCodec compresses one field through the registry with the
// named codec at an absolute bound.
func compressWithCodec(codecName string, f *datagen.Field, absEB float64) ([]byte, error) {
	cdc, err := codec.Lookup(codecName)
	if err != nil {
		return nil, err
	}
	return cdc.Compress(f.Data, f.Dims, codec.Params{AbsErrorBound: absEB})
}

// Command ocelot is the CLI front-end to the Ocelot pipeline:
//
//	ocelot generate  -app CESM -field TMQ -shrink 8 -out tmq.dat
//	ocelot compress  -in tmq.dat -out tmq.sz -eb 1e-3 [-predictor interp] [-codec szx]
//	ocelot decompress -in tmq.sz -out tmq.recon.dat   (codec detected by magic)
//	ocelot predict   -in tmq.dat -eb 1e-3          (train-on-the-fly estimate)
//	ocelot simulate  -app CESM -files 7182 -bytes 224000000 -ratio 7.2 \
//	                 -route Anvil-\>Bebop
//	ocelot campaign  -app CESM -fields 12 -route Anvil-\>Bebop
//	ocelot campaign  -codec szx -streams 1 -route Anvil-\>Bebop
//	ocelot plan      -app CESM -fields 12 -route Anvil-\>Bebop -min-psnr 70 -codec sz3,szx
//	ocelot campaign  -adaptive -min-psnr 70 -route Anvil-\>Bebop -codec sz3,szx
//	ocelot campaign  -chunk-mb 0.05 -workers 8 -route Anvil-\>Bebop
//	ocelot campaign  -journal run.ocjl -kill-after-groups 2
//	ocelot campaign  -resume run.ocjl
//	ocelot serve     -addr :9177 -route Anvil-\>Bebop -tenants climate:2,physics:1
//	ocelot serve     -addr :9177 -journal-dir /var/lib/ocelot/journals
//	ocelot submit    -server http://127.0.0.1:9177 -tenant climate -fields 4 -watch
//	ocelot watch     -server http://127.0.0.1:9177 -id c-1
//	ocelot cancel    -server http://127.0.0.1:9177 -id c-1
//	ocelot campaigns -server http://127.0.0.1:9177
//
// campaign, submit and plan describe a campaign with one request,
// serve.SubmitRequest, and bind its flags from one definition
// (SubmitRequest.BindFlags), each only those it reads; each keeps its own
// flags only for front-end settings. Every journal stores
// the request, so `campaign -resume J` needs no other flag.
//
// All data files use the raw-binary + JSON-sidecar layout of
// internal/dataio.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	rpprof "runtime/pprof"
	"strings"
	"time"

	"ocelot/internal/cluster"
	"ocelot/internal/codec"
	"ocelot/internal/core"
	"ocelot/internal/datagen"
	"ocelot/internal/dataio"
	"ocelot/internal/dtree"
	"ocelot/internal/metrics"
	"ocelot/internal/obs"
	"ocelot/internal/planner"
	"ocelot/internal/quality"
	"ocelot/internal/serve"
	"ocelot/internal/sz"
	"ocelot/internal/wan"
)

// writeTraceFile creates path and streams a trace export into it,
// propagating both the exporter's and Close's error.
func writeTraceFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ocelot:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return errors.New("usage: ocelot <generate|compress|decompress|predict|plan|simulate|campaign|serve|submit|watch|cancel|campaigns> [flags]")
	}
	switch args[0] {
	case "plan":
		return cmdPlan(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "submit":
		return cmdSubmit(args[1:])
	case "watch":
		return cmdWatch(args[1:])
	case "cancel":
		return cmdCancel(args[1:])
	case "campaigns":
		return cmdCampaigns(args[1:])
	case "generate":
		return cmdGenerate(args[1:])
	case "compress":
		return cmdCompress(args[1:])
	case "decompress":
		return cmdDecompress(args[1:])
	case "predict":
		return cmdPredict(args[1:])
	case "simulate":
		return cmdSimulate(args[1:])
	case "campaign":
		return cmdCampaign(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	app := fs.String("app", "CESM", "application (CESM, Miranda, RTM, Nyx, ISABEL, QMCPACK, HACC)")
	field := fs.String("field", "TMQ", "field name (RTM: snap-NNNN)")
	shrink := fs.Int("shrink", 8, "divide paper dimensions by this factor")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "", "output path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("generate: -out is required")
	}
	f, err := datagen.Generate(*app, *field, *shrink, *seed)
	if err != nil {
		return err
	}
	if err := dataio.Save(f, *out); err != nil {
		return err
	}
	st := metrics.ComputeRange(f.Data)
	fmt.Printf("wrote %s: %s dims=%v points=%d range=[%.4g, %.4g]\n",
		*out, f.ID(), f.Dims, f.NumPoints(), st.Min, st.Max)
	return nil
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ContinueOnError)
	in := fs.String("in", "", "input data file (required)")
	out := fs.String("out", "", "output stream path (required)")
	eb := fs.Float64("eb", 1e-3, "error bound")
	rel := fs.Bool("rel", true, "interpret -eb relative to the value range")
	predictor := fs.String("predictor", "interp", "lorenzo | interp | regression (sz3 only)")
	codecName := fs.String("codec", "sz3", "compressor: "+strings.Join(codec.Names(), " | "))
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return errors.New("compress: -in and -out are required")
	}
	f, err := dataio.Load(*in)
	if err != nil {
		return err
	}
	cdc, err := codec.Lookup(*codecName)
	if err != nil {
		return err
	}
	cfg := sz.DefaultConfig(*eb)
	if *rel {
		cfg.BoundMode = sz.BoundRelative
	}
	// Validate -predictor regardless of codec: a typo should fail loudly
	// even when the chosen codec has no predictor stage and ignores it.
	pred, err := sz.ParsePredictor(*predictor)
	if err != nil {
		return err
	}
	start := time.Now()
	var stream []byte
	extra := ""
	if cdc.Name() == sz.CodecName {
		cfg.Predictor = pred
		var stats *sz.Stats
		if stream, stats, err = sz.Compress(f.Data, f.Dims, cfg); err != nil {
			return err
		}
		extra = fmt.Sprintf(", p0=%.3f escapes=%d", stats.P0Quant, stats.NumEscapes)
	} else {
		if stream, err = cdc.Compress(f.Data, f.Dims, codec.Params{AbsErrorBound: cfg.AbsoluteBound(f.Data)}); err != nil {
			return err
		}
	}
	if err := dataio.SaveStream(stream, *out); err != nil {
		return err
	}
	fmt.Printf("compressed %s -> %s [%s]: %d -> %d bytes (ratio %.2f) in %.3fs%s\n",
		*in, *out, cdc.Name(), f.RawBytes(), len(stream),
		float64(f.RawBytes())/float64(len(stream)),
		time.Since(start).Seconds(), extra)
	return nil
}

func cmdDecompress(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ContinueOnError)
	in := fs.String("in", "", "input stream (required)")
	out := fs.String("out", "", "output data path (required)")
	verify := fs.String("verify", "", "optional original file to verify against")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return errors.New("decompress: -in and -out are required")
	}
	stream, err := dataio.LoadStream(*in)
	if err != nil {
		return err
	}
	codecName := "?"
	if name, err := codec.FormatName(stream); err == nil {
		codecName = name
	}
	start := time.Now()
	// Registry dispatch: any registered codec's stream (and chunked
	// containers) decode through the magic.
	data, dims, err := codec.Decompress(stream)
	if err != nil {
		return err
	}
	f := &datagen.Field{App: "recon", Name: *in, Dims: dims, Data: data, ElementSize: 4}
	if err := dataio.Save(f, *out); err != nil {
		return err
	}
	fmt.Printf("decompressed %s -> %s [%s]: %d points in %.3fs\n",
		*in, *out, codecName, len(data), time.Since(start).Seconds())
	if *verify != "" {
		orig, err := dataio.Load(*verify)
		if err != nil {
			return err
		}
		maxErr, err := metrics.MaxAbsError(orig.Data, data)
		if err != nil {
			return err
		}
		psnr, err := metrics.PSNR(orig.Data, data)
		if err != nil {
			return err
		}
		fmt.Printf("verification: max|err|=%.6g PSNR=%.2f dB\n", maxErr, psnr)
	}
	return nil
}

func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ContinueOnError)
	in := fs.String("in", "", "input data file (required)")
	eb := fs.Float64("eb", 1e-3, "relative error bound to estimate")
	shrink := fs.Int("train-shrink", 32, "training corpus shrink factor")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return errors.New("predict: -in is required")
	}
	f, err := dataio.Load(*in)
	if err != nil {
		return err
	}
	// Train a model on a small cross-application corpus on the fly.
	var corpus []*datagen.Field
	for _, spec := range []struct {
		app    string
		fields []string
	}{
		{"CESM", []string{"TMQ", "CLDHGH", "FLDSC", "LHFLX", "PSL"}},
		{"Miranda", []string{"density", "velocityx", "pressure"}},
		{"ISABEL", []string{"Pf48", "Wf48", "QVAPORf48"}},
	} {
		for _, name := range spec.fields {
			cf, err := datagen.Generate(spec.app, name, *shrink, 7)
			if err != nil {
				return err
			}
			corpus = append(corpus, cf)
		}
	}
	samples, err := quality.Collect(corpus, quality.CollectOptions{WithPSNR: true})
	if err != nil {
		return err
	}
	model, err := quality.Train(samples, dtree.Params{MaxDepth: 14})
	if err != nil {
		return err
	}
	est, err := model.EstimateField(f.Data, f.Dims, *eb, 0)
	if err != nil {
		return err
	}
	fmt.Printf("prediction for %s at rel-eb %.0e:\n", *in, *eb)
	fmt.Printf("  compression ratio: %.2f\n", est.Ratio)
	fmt.Printf("  compression time:  %.3fs (this machine)\n", est.Seconds)
	fmt.Printf("  PSNR:              %.1f dB\n", est.PSNR)
	return nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	app := fs.String("app", "CESM", "dataset label")
	files := fs.Int("files", 7182, "file count")
	bytesPer := fs.Int64("bytes", 224e6, "bytes per file")
	ratio := fs.Float64("ratio", 7.2, "expected compression ratio")
	route := fs.String("route", "Anvil->Bebop", "one of the standard links")
	nodes := fs.Int("nodes", 16, "source compression nodes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	link, err := lookupRoute(*route)
	if err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	machines := cluster.Standard()
	src, dst, _ := strings.Cut(*route, "->")
	p := &core.Pipeline{Source: machines[src], Dest: machines[dst], Link: link}
	fileSet := core.UniformFileSet(*app, *files, *bytesPer, *ratio)
	direct, cp, op, err := p.CompareModes(fileSet, core.Plan{SourceNodes: *nodes, Seed: 1, GroupParam: 64})
	if err != nil {
		return err
	}
	fmt.Printf("simulation: %s, %d files × %d MB over %s\n", *app, *files, *bytesPer/1e6, *route)
	fmt.Printf("  NP (direct):      %8.1fs  (%.0f MB/s)\n", direct.TotalSec, direct.EffectiveMBps)
	fmt.Printf("  CP (compressed):  %8.1fs  [cp %.1fs + xfer %.1fs + dp %.1fs]\n",
		cp.TotalSec, cp.CompressSec, cp.TransferSec, cp.DecompressSec)
	fmt.Printf("  OP (grouped):     %8.1fs  [cp %.1fs + xfer %.1fs + dp %.1fs]\n",
		op.TotalSec, op.CompressSec, op.TransferSec, op.DecompressSec)
	best := op
	if cp.TotalSec < op.TotalSec {
		best = cp
	}
	fmt.Printf("  gain: %.0f%% (paper range 41–91%%)\n", 100*core.Gain(direct, best))
	return nil
}

// trainPlannerModel trains the quality model from a quick sweep over
// shrunken stand-ins of the request's fields (the planner's
// train-on-the-fly path), covering every codec in the candidate grid
// (nil = the default sz3 grid).
func trainPlannerModel(req *serve.SubmitRequest, trainShrink int, cands []planner.Candidate) (*quality.Model, error) {
	fmt.Printf("training quality model (sweep at shrink %d, codecs %s)...\n", trainShrink, req.Spec.Codec)
	train, err := datagen.GenerateFirst(req.App, req.Fields, trainShrink, req.Seed+1)
	if err != nil {
		return nil, err
	}
	return planner.TrainFromSweep(train, cands, dtree.Params{MaxDepth: 14})
}

// lookupRoute resolves one of the calibrated standard WAN links by name.
// byteSize prints a byte count in kB below a megabyte and in MB above, so
// a repair of a few blocks does not read "0.0 MB".
func byteSize(n int64) string {
	if n < 1e6 {
		return fmt.Sprintf("%.1f kB", float64(n)/1e3)
	}
	return fmt.Sprintf("%.1f MB", float64(n)/1e6)
}

func lookupRoute(route string) (*wan.Link, error) {
	link, ok := wan.StandardLinks()[route]
	if !ok {
		return nil, fmt.Errorf("unknown route %q (have: Anvil->Cori, Anvil->Bebop, Bebop->Cori, Cori->Bebop)", route)
	}
	return link, nil
}

// explicitRequestFlags lists the request flags (serve.SubmitRequest
// BindFlags) set on fs's command line.
func explicitRequestFlags(fs *flag.FlagSet) []string {
	probe := flag.NewFlagSet("", flag.ContinueOnError)
	new(serve.SubmitRequest).BindFlags(probe, serve.RunFlags|serve.PlanFlags)
	var set []string
	fs.Visit(func(f *flag.Flag) {
		if probe.Lookup(f.Name) != nil {
			set = append(set, "-"+f.Name)
		}
	})
	return set
}

// cmdPlan runs only the predictive plan stage: sample each field, predict
// quality across the candidate grid, and print the per-field decision
// table with the plan's end-to-end forecast.
func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	var req serve.SubmitRequest
	req.BindFlags(fs, serve.PlanFlags)
	route := fs.String("route", "Anvil->Bebop", "WAN link the plan optimizes for")
	trainShrink := fs.Int("train-shrink", 40, "shrink factor for the training sweep")
	if err := fs.Parse(args); err != nil {
		return err
	}
	link, err := lookupRoute(*route)
	if err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	req.Spec.Adaptive = true // a plan is an adaptive campaign's first stage
	fields, spec, err := req.Resolve()
	if err != nil {
		return fmt.Errorf("plan: %w", err)
	}
	start := time.Now()
	if spec.Model, err = trainPlannerModel(&req, *trainShrink, spec.Planner.Candidates); err != nil {
		return err
	}
	trainSec := time.Since(start).Seconds()
	spec.Planner.Link = link
	start = time.Now()
	plan, err := core.PlanSpec(fields, spec)
	if err != nil {
		return err
	}
	fmt.Printf("plan for %d %s fields over %s (trained %.1fs, planned %.3fs):\n\n",
		len(fields), req.App, *route, trainSec, time.Since(start).Seconds())
	fmt.Print(plan.String())
	if fixed, err := planner.FixedBaseline(fields, spec.Model, spec.Planner); err == nil {
		fmt.Printf("fixed global-bound baseline under the same floor: rel-eb %.0e\n", fixed)
	}
	return nil
}

// resolveCampaign turns the parsed flags into the campaign to run. A fresh
// campaign resolves the request the flags bound. A resume rebuilds it from
// the request its journal stores (serve.LoadJournal), so it takes no
// request flags, and a journal that stores none cannot be resumed.
func resolveCampaign(fs *flag.FlagSet, req *serve.SubmitRequest, resume string) ([]*datagen.Field, core.CampaignSpec, error) {
	if resume == "" {
		return req.Resolve()
	}
	stored, fields, spec, err := serve.LoadJournal(resume)
	if err != nil {
		return nil, spec, fmt.Errorf("resume %s: %w", resume, err)
	}
	if set := explicitRequestFlags(fs); len(set) > 0 {
		return nil, spec, fmt.Errorf("%s: the journal stores the request, so -resume takes no request flags", strings.Join(set, ", "))
	}
	*req = stored
	return fields, spec, nil
}

// cmdCampaign runs a real in-process compress-group-transfer-decompress
// campaign over synthetic fields, streaming groups into the transfer
// while later fields compress, with fixed settings or with the predictive
// planner choosing per-field bounds and grouping (-adaptive), optionally
// paced by one of the calibrated WAN links (-route). -resume J continues
// an interrupted journaled campaign from the request its journal stores.
func cmdCampaign(args []string) error {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	req := new(serve.SubmitRequest)
	req.BindFlags(fs, serve.RunFlags|serve.PlanFlags)
	trainShrink := fs.Int("train-shrink", 40, "adaptive training-sweep shrink factor")
	route := fs.String("route", "", "pace transfers over a standard link (e.g. Anvil->Bebop); empty = in-process")
	timescale := fs.Float64("timescale", 1e-3, "wall seconds slept per simulated link second")
	corruptProb := fs.Float64("corrupt-prob", 0, "fault drill: corrupt each delivered archive with this probability (requires -route)")
	journalPath := fs.String("journal", "", "write a durable campaign journal to this path (-resume defaults it to the resumed journal)")
	resumeFrom := fs.String("resume", "", "resume an interrupted campaign from this journal; the journal stores the request, so no request flag goes with it")
	killAfter := fs.Int64("kill-after-groups", 0, "crash drill: cancel once this many groups are sent (requires -journal or -resume)")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON trace of the campaign (load in chrome://tracing or Perfetto)")
	traceNDJSON := fs.String("trace-ndjson", "", "write the campaign's span trace as NDJSON, one span per line")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile to this path on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *killAfter > 0 && *journalPath == "" && *resumeFrom == "" {
		return errors.New("campaign: -kill-after-groups requires -journal or -resume")
	}
	if *corruptProb > 0 && *route == "" {
		return errors.New("campaign: -corrupt-prob requires -route (corruption is injected on the simulated link)")
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("campaign: cpuprofile: %w", err)
		}
		if err := rpprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("campaign: cpuprofile: %w", err)
		}
		defer func() {
			rpprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "campaign: memprofile:", err)
				return
			}
			runtime.GC() // settle the heap so the profile reflects live data
			if err := rpprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "campaign: memprofile:", err)
			}
			f.Close()
		}()
	}

	fields, spec, err := resolveCampaign(fs, req, *resumeFrom)
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	spec.Journal = cmp.Or(*journalPath, spec.Journal)
	if *route != "" {
		link, err := lookupRoute(*route)
		if err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
		if *corruptProb > 0 {
			link.Faults = &wan.Faults{CorruptProb: *corruptProb, CorruptMode: wan.CorruptMix, Seed: req.Seed}
		}
		spec.Transport = &core.SimulatedWANTransport{Link: link, Timescale: *timescale}
	}
	label := "pipelined"
	if spec.Adaptive {
		label = "adaptive"
		// A resumed plan is pinned from the journal and needs no model.
		if spec.ResumeFrom == "" {
			if spec.Model, err = trainPlannerModel(req, *trainShrink, spec.Planner.Candidates); err != nil {
				return err
			}
		}
	}

	// Tracing requested: wire a live tracer (and a registry, so the result
	// also carries the inline metrics snapshot) into the spec, and flush
	// the exports however the run ends.
	var tracer *obs.Tracer
	if *tracePath != "" || *traceNDJSON != "" {
		tracer = obs.NewTracer()
		spec.Obs = &obs.Obs{Tracer: tracer, Metrics: obs.NewRegistry()}
	}
	exportTraces := func() error {
		if tracer == nil {
			return nil
		}
		if *tracePath != "" {
			if err := writeTraceFile(*tracePath, tracer.WriteChrome); err != nil {
				return fmt.Errorf("campaign: trace: %w", err)
			}
			fmt.Printf("trace: %d spans -> %s (chrome://tracing)\n", len(tracer.Spans()), *tracePath)
		}
		if *traceNDJSON != "" {
			if err := writeTraceFile(*traceNDJSON, tracer.WriteNDJSON); err != nil {
				return fmt.Errorf("campaign: trace-ndjson: %w", err)
			}
			fmt.Printf("trace: %d spans -> %s (ndjson)\n", len(tracer.Spans()), *traceNDJSON)
		}
		return nil
	}

	h, err := core.Submit(context.Background(), fields, spec)
	if err != nil {
		return err
	}
	if *killAfter > 0 {
		// Crash drill: cancel once the requested number of groups shipped,
		// and point at the journal the dead campaign left behind.
		poll := time.NewTicker(2 * time.Millisecond)
		for h.Status().SentGroups < *killAfter && !h.State().Terminal() {
			<-poll.C
		}
		poll.Stop()
		h.Cancel() // a no-op once the campaign finished
	}
	<-h.Done()
	if h.State() == core.CampaignCanceled {
		fmt.Printf("campaign killed after %d sent group(s); journal at %s\n", *killAfter, spec.Journal)
		fmt.Printf("resume with: ocelot campaign -resume %s\n", spec.Journal)
		return exportTraces()
	}
	res, err := h.Result()
	if err != nil {
		return err
	}
	if *killAfter > 0 {
		fmt.Printf("campaign finished before the %d-group kill point\n", *killAfter)
	}
	if err := exportTraces(); err != nil {
		return err
	}

	if res.Resumed {
		fmt.Printf("resumed from %s: skipped %d already-acked group(s), %.1f MB not resent\n",
			*resumeFrom, res.SkippedGroups, float64(res.SkippedBytes)/1e6)
	}
	fmt.Printf("%s campaign [%s]: %d %s fields, %.1f MB raw -> %.1f MB in %d groups (ratio %.1f)\n",
		label, res.Codec, res.Files, req.App, float64(res.RawBytes)/1e6,
		float64(res.GroupedBytes)/1e6, res.Groups, res.Ratio)
	if res.Chunks > 0 {
		fmt.Printf("chunk fan-out: %d chunks (%.1f MB each) over %d compress workers\n",
			res.Chunks, spec.ChunkMB, cmp.Or(max(spec.Workers, 0), core.DefaultWorkers))
	}
	fmt.Printf("wall %.3fs  [compress %.3fs | pack %.3fs | transfer %.3fs | decompress %.3fs]\n",
		res.WallSec, res.CompressSec, res.PackSec, res.TransferSec, res.DecompressSec)
	if res.LinkSec > 0 {
		fmt.Printf("simulated link time: %.2fs over %s\n", res.LinkSec, *route)
	}
	if res.Retries > 0 || res.Failovers > 0 {
		fmt.Printf("fault recovery: %d transient retries, %d endpoint failovers\n", res.Retries, res.Failovers)
	}
	if res.CorruptGroups > 0 {
		fmt.Printf("integrity: %d corrupted group(s) detected, %d retransmit(s), %s resent\n",
			res.CorruptGroups, res.Retransmits, byteSize(res.RetransmitBytes))
	}
	if len(res.DegradedFields) > 0 {
		fmt.Printf("bound audit: %d field(s) quarantined and re-shipped lossless (%.1f MB): %s\n",
			len(res.DegradedFields), float64(res.DegradedBytes)/1e6, strings.Join(res.DegradedFields, ", "))
	}
	if res.ReconDigest != 0 {
		fmt.Printf("recon digest: %016x\n", res.ReconDigest)
	}
	switch {
	case res.Planned && spec.Model == nil:
		// A resume trains no model: the journal pinned what ran, so there
		// are no predictions to compare.
		fmt.Printf("per-field plan pinned from the journal\nmax relative error %.2e ✓\n", res.MaxRelError)
	case res.Planned:
		fmt.Printf("\nplan (%.3fs to decide):\n%s", res.PlanSec, res.Plan.String())
		fmt.Printf("\npredicted vs actual:\n")
		fmt.Printf("  ratio:        %8.1f predicted   %8.1f actual\n", res.PredRatio, res.Ratio)
		fmt.Printf("  compress (s): %8.2f predicted   %8.2f actual\n", res.PredCompressSec, res.CompressSec)
		fmt.Printf("  transfer (s): %8.2f predicted   %8.2f actual (link makespan over realized archives)\n",
			res.PredTransferSec, res.LinkEstSec)
		fmt.Printf("  wall (s):     %8.2f predicted   %8.2f actual (timescale %g)\n", res.PredWallSec, res.WallSec, *timescale)
		if floor := spec.Planner.MinPSNR; floor > 0 {
			fmt.Printf("  quality floor: min PSNR %.1f dB measured (floor %.1f dB)\n", res.MinPSNR, floor)
		}
		fmt.Printf("max relative error %.2e ✓\n", res.MaxRelError)
	default:
		fmt.Printf("max relative error %.2e (bound %.0e) ✓\n", res.MaxRelError, spec.RelErrorBound)
	}
	fmt.Printf("\nper-stage ledger:\n%-12s %8s %7s %12s %12s %10s\n", "stage", "workers", "items", "busy (s)", "span (s)", "MB/s")
	for _, s := range res.Stages {
		fmt.Printf("%-12s %8d %7d %12.3f %12.3f %10.1f\n", s.Name, s.Workers, s.Items, s.BusySec, s.WallSec, s.MBps)
	}
	fmt.Printf("\noverlap: %.3fs of stage time ran concurrently\n", res.OverlapSec)
	return nil
}

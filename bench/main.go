// Command bench is ocelot's end-to-end campaign benchmark: five workloads
// through the public entry points (ocelot.Run, serve.Scheduler.Submit),
// end-to-end metrics measured with tracing off, and a separate traced pass
// that attributes time to each module from the benchmark's own files. See
// README.md for every workload and metric name.
//
// Driver mode, one workload per process (the contract BENCHMARK.json is
// written to):
//
//	bash bench/run.sh --workload nop-sz3 --seed 42 --seconds 12 --trace 0
//
// Full mode, every workload, both passes, tables and result files:
//
//	bash bench/run.sh -out new.json -trace-out spans.json
//	bash bench/run.sh -compare old.json new.json
//	bash bench/run.sh -repeat-check
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
)

// options are the benchmark's command-line arguments.
type options struct {
	workload    string
	only        string
	seed        int64
	seconds     float64
	trace       int
	runs        int
	quick       bool
	out         string
	traceOut    string
	tmp         string
	compare     bool
	repeatCheck bool
}

func parseFlags(args []string, stderr io.Writer) (*options, []string, error) {
	o := &options{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "driver mode: run this one workload and end with the result line")
	fs.StringVar(&o.only, "only", "", "full mode: comma-separated workloads to run (default all)")
	fs.Int64Var(&o.seed, "seed", 42, "workload seed: same seed, same inputs")
	fs.Float64Var(&o.seconds, "seconds", 12, "length of each workload's timed section")
	fs.IntVar(&o.trace, "trace", 0, "driver mode: 0 = untraced pass and end-to-end metrics, 1 = traced pass and per-layer metrics")
	fs.IntVar(&o.runs, "runs", 1, "full mode: runs per set, at seed, seed+1, …")
	fs.BoolVar(&o.quick, "quick", false, "tiny fields, two reps, 1 % WAN timescale: a smoke run, not a measurement")
	fs.StringVar(&o.out, "out", "", "full mode: write the result file (JSON) here")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced pass's spans (JSON) here")
	fs.StringVar(&o.tmp, "tmp", filepath.Join(".bench_build", "tmp"), "scratch directory for journals and the GridFTP server")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: -compare parent.json change.json")
	fs.BoolVar(&o.repeatCheck, "repeat-check", false, "run two sets of the same build and compare them against the bounds")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, nil, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 || o.runs < 1 {
		return nil, nil, fmt.Errorf("-seconds and -runs must be positive")
	}
	return o, fs.Args(), nil
}

// selected resolves -only (or -workload) to workloads, in declaration order.
func (o *options) selected() ([]workload, error) {
	names := o.only
	if o.workload != "" {
		names = o.workload
	}
	if names == "" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(names, ",") {
		w, ok := workloadByName(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, w)
	}
	return out, nil
}

// Passes of runWorkload.
const (
	passUntraced = 1 << iota
	passTraced
)

// runWorkload sets a workload up, runs the requested passes and assembles
// its result. A traced-only run still makes a short untraced pass: the
// tracing overhead is the ratio of the two.
func runWorkload(ctx context.Context, w workload, o *options, seed int64, passes int, rec *recorder) (*WorkloadResult, error) {
	e, setupSec, err := steadySetup(ctx, w, scaleFor(o.quick), seed, o.tmp)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer e.close()

	seconds := o.seconds
	if passes&passUntraced == 0 {
		seconds *= 0.4
	}
	u, err := untracedPass(ctx, e, seconds)
	if err != nil {
		return nil, fmt.Errorf("%s: untraced pass: %w", w.name, err)
	}
	res := &WorkloadResult{Name: w.name, Seed: seed, Attempted: u.attempted, Failed: u.failed,
		Failures: u.failures, EndToEnd: metricSet{}, ReconDigest: fmt.Sprintf("%016x", u.digest),
		Samples: map[string][]float64{"untraced_campaign_s": u.walls}}
	if u.burst != nil {
		for _, j := range u.burst.jobs {
			res.Samples["untraced_done_at_s"] = append(res.Samples["untraced_done_at_s"], j.doneAt)
		}
	}

	if passes&passUntraced != 0 {
		psnrMin, bad := roundTrip(e)
		res.Failures = append(res.Failures, bad...)
		res.EndToEnd.put("setup_s", setupSec, "s")
		res.EndToEnd.put("raw_mbps", u.rawMBps, "MB/s")
		res.EndToEnd.put("ratio", u.ratio, "x")
		res.EndToEnd.put("wire_overhead_frac", u.overhead, "frac")
		res.EndToEnd.put("psnr_min_db", psnrMin, "dB")
		res.EndToEnd.put("latency_p50_ms", median(u.walls)*1e3, "ms")
		res.EndToEnd.put("latency_tail_ms", percentile(u.walls, tailPercentile(len(u.walls)))*1e3, "ms")
	}

	if passes&passTraced != 0 {
		t, err := tracedPass(ctx, e, rec, u)
		if err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
		}
		res.Attempted += t.attempted
		res.Failed += t.failed
		res.Failures = append(res.Failures, t.failures...)
		res.Samples["traced_campaign_s"] = t.walls
		lp := &layerPass{e: e, rec: rec, root: rec.reserve("layer-pass", w.name, -1), out: metricSet{}, extra: metricSet{}}
		if err := lp.run(ctx, u, t); err != nil {
			return nil, fmt.Errorf("%s: layer pass: %w", w.name, err)
		}
		res.PerLayer, res.Extra = lp.out, lp.extra
		res.CriticalStage = passMetrics(res, e, u, t)
	}

	if lost := missing(res.EndToEnd, endToEndMetrics); passes&passUntraced != 0 && len(lost) > 0 {
		return nil, fmt.Errorf("%s: end-to-end metrics not produced: %v", w.name, lost)
	}
	if lost := missing(res.PerLayer, perLayerMetrics); passes&passTraced != 0 && len(lost) > 0 {
		return nil, fmt.Errorf("%s: per-layer metrics not produced: %v", w.name, lost)
	}
	res.Correct = len(res.Failures) == 0
	return res, nil
}

// passMetrics adds the per-layer metrics that come from the passes
// themselves rather than from the layer pass, and returns the critical
// stage's name.
func passMetrics(res *WorkloadResult, e *env, u *passStats, t *tracedStats) string {
	pl := res.PerLayer
	pl.put("datagen.gen_mbps", e.rawMB/e.genSec, "MB/s")
	pl.put("core.send.count", median(t.sendCount), "count")
	pl.put("core.send.busy_s", median(t.sendBusy), "s")
	pl.put("core.send.bytes", median(t.sendBytes), "bytes")
	pl.put("core.send.max_inflight", median(t.sendInflight), "count")
	pl.put("core.send.retries", median(t.sendRetries), "count")
	for _, stage := range stageNames {
		pl.put("core.stage."+stage+".busy_s", median(t.stageBusy[stage]), "s")
		pl.put("core.stage."+stage+".span_s", median(t.stageSpan[stage]), "s")
	}
	pl.put("core.overlap_s", median(t.overlap), "s")
	idx, critical := t.criticalStage()
	pl.put("core.critical_stage", float64(idx), "stage")
	pl.put("core.link_busy_frac", median(t.linkBusy), "frac")
	pl.put("core.cold_rep_s", e.coldSec, "s")
	campaigns := float64(len(u.walls))
	pl.put("runtime.alloc_mb_per_raw_mb", float64(u.mem.totalAlloc)/1e6/(campaigns*e.rawMB), "MB/MB")
	pl.put("runtime.mallocs_per_campaign", float64(u.mem.mallocs)/campaigns, "count")
	pl.put("runtime.gc_pause_ms", float64(u.mem.pauseNs)/1e6/campaigns, "ms")
	pl.put("runtime.peak_rss_mb", peakRSSMB(), "MB")
	pl.put("trace.overhead_frac", median(t.walls)/median(u.walls)-1, "frac")
	if e.w.via == viaWAN || e.w.via == viaWANFaulty {
		// The issue's definition, which only a modelled link supports: the
		// time the link needs for the first delivery of every group, over
		// the campaign's wall.
		ideal := median(t.groupedBytes) / 1e6 / benchLink().BandwidthMBps * e.sc.timescale
		res.Extra.put("core.link_util_frac", ideal/median(t.walls), "frac")
	}
	return critical
}

// resultLine is the last line of standard output in driver mode.
type resultLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func printWorkload(w io.Writer, res *WorkloadResult) {
	fmt.Fprintf(w, "== %s  seed %d  attempted %d  failed %d  correct %v  digest %s\n",
		res.Name, res.Seed, res.Attempted, res.Failed, res.Correct, res.ReconDigest)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   CHECK FAILED: %s\n", f)
	}
	if len(res.EndToEnd) > 0 {
		walls := res.Samples["untraced_campaign_s"]
		q1, q3 := quartiles(walls)
		fmt.Fprintf(w, "  end to end (tracing off; campaign wall n=%d median %.4fs quartiles %.4f–%.4fs; tail = p%g):\n",
			len(walls), median(walls), q1, q3, tailPercentile(len(walls)))
		printMetrics(w, "    ", res.EndToEnd)
	}
	if len(res.PerLayer) > 0 {
		fmt.Fprintf(w, "  per layer (traced pass; critical stage: %s):\n", res.CriticalStage)
		printMetrics(w, "    ", res.PerLayer)
		fmt.Fprintln(w, "  detail (not in BENCHMARK.json):")
		printMetrics(w, "    ", res.Extra)
	}
}

// runSet makes o.runs runs of the given passes over the selected workloads.
func runSet(ctx context.Context, o *options, passes int, stdout io.Writer, rec *recorder) (*ResultFile, error) {
	selected, err := o.selected()
	if err != nil {
		return nil, err
	}
	rf := &ResultFile{Schema: resultSchema, Env: environment(), Quick: o.quick, Seconds: o.seconds}
	for r := 0; r < o.runs; r++ {
		run := Run{Seed: o.seed + int64(r)}
		digests := map[string]string{}
		for _, w := range selected {
			res, err := runWorkload(ctx, w, o, run.Seed, passes, rec)
			if err != nil {
				return nil, err
			}
			digests[w.name] = res.ReconDigest
			if w.name == "wan-faulty" && digests["wan-paced"] != "" && digests["wan-paced"] != res.ReconDigest {
				res.Failures = append(res.Failures, "ReconDigest differs from wan-paced's")
				res.Correct = false
			}
			printWorkload(stdout, res)
			run.Workloads = append(run.Workloads, *res)
		}
		rf.Runs = append(rf.Runs, run)
	}
	return rf, nil
}

func (rf *ResultFile) failures() (attempted, failed int, correct bool) {
	correct = true
	for _, run := range rf.Runs {
		for _, w := range run.Workloads {
			attempted += w.Attempted
			failed += w.Failed
			correct = correct && w.Correct
		}
	}
	return attempted, failed, correct
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	o, rest, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	rec := newRecorder()
	writeSpans := func() error {
		if o.traceOut == "" {
			return nil
		}
		return rec.write(o.traceOut)
	}

	switch {
	case o.compare:
		if len(rest) != 2 {
			return fmt.Errorf("-compare takes two result files, got %d", len(rest))
		}
		spec, err := loadBenchmarkSpec()
		if err != nil {
			return err
		}
		parent, err := readResultFile(rest[0])
		if err != nil {
			return err
		}
		change, err := readResultFile(rest[1])
		if err != nil {
			return err
		}
		if compare(stdout, spec, parent, change) {
			return fmt.Errorf("regression: %s is worse than %s beyond a bound", rest[1], rest[0])
		}
		return nil

	case o.repeatCheck:
		spec, err := loadBenchmarkSpec()
		if err != nil {
			return err
		}
		first, err := runSet(ctx, o, passUntraced, io.Discard, rec)
		if err != nil {
			return err
		}
		second, err := runSet(ctx, o, passUntraced, io.Discard, rec)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "two sets of the same build; \"worse by\" beside its bound:")
		if compare(stdout, spec, first, second) {
			return fmt.Errorf("repeat check: two sets of the same build differ by more than a bound")
		}
		return nil

	case o.workload != "":
		w, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		passes, pick := passUntraced, func(r *WorkloadResult) metricSet { return r.EndToEnd }
		if o.trace == 1 {
			passes, pick = passTraced, func(r *WorkloadResult) metricSet { return r.PerLayer }
		}
		res, err := runWorkload(ctx, w, o, o.seed, passes, rec)
		if err != nil {
			return err
		}
		printWorkload(stdout, res)
		if err := writeSpans(); err != nil {
			return err
		}
		line, err := json.Marshal(resultLine{res.Correct, res.Attempted, res.Failed, pick(res)})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			return fmt.Errorf("%s: %d output check(s) failed", w.name, len(res.Failures))
		}
		return nil
	}

	rf, err := runSet(ctx, o, passUntraced|passTraced, stdout, rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "environment: %d CPUs, GOMAXPROCS %d, %s, %s, load %s\n%s\n%s\nnetwork: %s\n",
		rf.Env.NProc, rf.Env.GOMAXPROCS, rf.Env.GoVersion, rf.Env.CPUModel, rf.Env.LoadAvg,
		rf.Env.MBBasis, rf.Env.RatioBasis, rf.Env.Network)
	if o.out != "" {
		if err := writeResultFile(o.out, rf); err != nil {
			return err
		}
	}
	if err := writeSpans(); err != nil {
		return err
	}
	attempted, failed, correct := rf.failures()
	fmt.Fprintf(stdout, "campaigns attempted %d, failed %d\n", attempted, failed)
	if !correct {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

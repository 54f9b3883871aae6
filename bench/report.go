package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]Metric

func (m metricSet) put(name string, value float64, unit string) {
	m[name] = Metric{Value: value, Unit: unit}
}

// metricName pairs a declared metric with its unit; BENCHMARK.json repeats
// both, and TestBenchmarkJSONMatchesCode keeps the two in step.
type metricName struct{ name, unit string }

// endToEndMetrics are measured with tracing off, on every workload.
var endToEndMetrics = []metricName{
	{"setup_s", "s"},
	{"raw_mbps", "MB/s"},
	{"ratio", "x"},
	{"wire_overhead_frac", "frac"},
	{"psnr_min_db", "dB"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
}

// perLayerMetrics come from the traced pass and the layer pass, on every
// workload.
var perLayerMetrics = []metricName{
	{"roofline.memcpy_mbps", "MB/s"},
	{"datagen.gen_mbps", "MB/s"},
	{"sz.compress_mbps", "MB/s"},
	{"sz.decompress_mbps", "MB/s"},
	{"sz.compress_frac_memcpy", "frac"},
	{"sz.decompress_frac_memcpy", "frac"},
	{"sz.ratio", "x"},
	{"sz.psnr_db", "dB"},
	{"sz.allocs_per_field", "count"},
	{"sz.alloc_mb_per_raw_mb", "MB/MB"},
	{"sz.predict_quant_share_est", "frac"},
	{"sz.sampled_codes_mbps", "MB/s"},
	{"huffman.build_table_us", "us"},
	{"huffman.encode_msyms", "Msym/s"},
	{"huffman.decode_msyms", "Msym/s"},
	{"lossless.compress_mbps", "MB/s"},
	{"lossless.decompress_mbps", "MB/s"},
	{"lossless.gain", "x"},
	{"szx.compress_mbps", "MB/s"},
	{"szx.decompress_mbps", "MB/s"},
	{"szx.compress_frac_memcpy", "frac"},
	{"szx.decompress_frac_memcpy", "frac"},
	{"szx.ratio", "x"},
	{"szx.psnr_db", "dB"},
	{"grouping.pack_mbps", "MB/s"},
	{"grouping.unpack_mbps", "MB/s"},
	{"integrity.wrap_mbps", "MB/s"},
	{"integrity.verify_mbps", "MB/s"},
	{"metrics.max_abs_error_mbps", "MB/s"},
	{"journal.group_cycle_us", "us"},
	{"journal.load_ms", "ms"},
	{"gridftp.transfer_mbps", "MB/s"},
	{"gridftp.session_setup_ms", "ms"},
	{"core.send.count", "count"},
	{"core.send.busy_s", "s"},
	{"core.send.bytes", "bytes"},
	{"core.send.max_inflight", "count"},
	{"core.send.retries", "count"},
	{"core.stage.compress.busy_s", "s"},
	{"core.stage.compress.span_s", "s"},
	{"core.stage.pack.busy_s", "s"},
	{"core.stage.pack.span_s", "s"},
	{"core.stage.transfer.busy_s", "s"},
	{"core.stage.transfer.span_s", "s"},
	{"core.stage.decompress.busy_s", "s"},
	{"core.stage.decompress.span_s", "s"},
	{"core.overlap_s", "s"},
	{"core.critical_stage", "stage"},
	{"core.link_busy_frac", "frac"},
	{"core.pacing_error_frac", "frac"},
	{"core.cold_rep_s", "s"},
	{"planner.build_ms", "ms"},
	{"planner.ratio_err_frac", "frac"},
	{"serve.submit_us", "us"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p90_ms", "ms"},
	{"serve.share_error", "frac"},
	{"serve.jain", "index"},
	{"runtime.alloc_mb_per_raw_mb", "MB/MB"},
	{"runtime.mallocs_per_campaign", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.peak_rss_mb", "MB"},
	{"trace.overhead_frac", "frac"},
}

// missing lists the declared metrics a set does not hold.
func missing(have metricSet, want []metricName) []string {
	var out []string
	for _, m := range want {
		if _, ok := have[m.name]; !ok {
			out = append(out, m.name)
		}
	}
	return out
}

// WorkloadResult is everything one run of one workload produced.
type WorkloadResult struct {
	Name      string   `json:"name"`
	Seed      int64    `json:"seed"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// EndToEnd and PerLayer hold exactly the metrics BENCHMARK.json
	// declares (PerLayer only when the traced pass ran); Extra holds
	// undeclared detail such as per-dimensionality codec rows.
	EndToEnd metricSet `json:"end_to_end"`
	PerLayer metricSet `json:"per_layer,omitempty"`
	Extra    metricSet `json:"extra,omitempty"`
	// Samples are the raw per-campaign wall times in seconds.
	Samples       map[string][]float64 `json:"samples"`
	ReconDigest   string               `json:"recon_digest"`
	CriticalStage string               `json:"critical_stage,omitempty"`
}

// Environment describes the machine a result file was measured on.
type Environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	LoadAvg    string `json:"load_average_at_start"`
	Network    string `json:"network"`
	MBBasis    string `json:"mb_basis"`
	RatioBasis string `json:"ratio_basis"`
}

func environment() Environment {
	env := Environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		LoadAvg:    "unknown",
		Network:    "host loopback (gridftp) and simulated pacing (wan-*), not a real link",
		MBBasis:    "MB = 10^6 bytes of in-memory float64 input, 8 B/point",
		RatioBasis: "ratio = CampaignResult.Ratio, raw bytes at the dataset's 4 B/point over compressed bytes",
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, model, ok := strings.Cut(line, ":"); ok {
					env.CPUModel = strings.TrimSpace(model)
				}
				break
			}
		}
	}
	if blob, err := os.ReadFile("/proc/loadavg"); err == nil {
		env.LoadAvg = strings.TrimSpace(string(blob))
	}
	return env
}

// Run is one pass over the selected workloads at one seed.
type Run struct {
	Seed      int64            `json:"seed"`
	Workloads []WorkloadResult `json:"workloads"`
}

// ResultFile is what -out writes and -compare reads: a set of runs of one
// build on one machine.
type ResultFile struct {
	Schema  string      `json:"schema"`
	Env     Environment `json:"environment"`
	Quick   bool        `json:"quick"`
	Seconds float64     `json:"seconds_per_workload"`
	Runs    []Run       `json:"runs"`
}

const resultSchema = "ocelot-bench/1"

func writeResultFile(path string, rf *ResultFile) error {
	blob, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readResultFile(path string) (*ResultFile, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf ResultFile
	if err := json.Unmarshal(blob, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rf.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rf.Schema, resultSchema)
	}
	return &rf, nil
}

// printMetrics writes one "name value unit" line per metric, by name.
func printMetrics(w io.Writer, indent string, set metricSet) {
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s%-32s %14.6g %s\n", indent, name, set[name].Value, set[name].Unit)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBenchmarkSpec reads BENCHMARK.json from the working directory or its
// parent, so it is found both from the repository root and from bench/.
func loadBenchmarkSpec() (*benchmarkSpec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		blob, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(blob, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &spec, nil
	}
	return nil, firstErr
}

// Verdicts compare prints.
const (
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
)

// judge compares a change's runs of one metric with the parent's. worse is
// how far the change's median is on the wrong side of the parent's, as a
// share of the parent's median. A change worse by more than bound is a
// regression; otherwise, when either side's quartile spread is wider than
// the bound the runs cannot tell, and the verdict is "unresolved" rather
// than "unchanged" — unless every run of the change beats every run of the
// parent.
func judge(parent, change []float64, better string, bound float64) (worse float64, verdict string) {
	pm, cm := median(parent), median(change)
	worse = (cm - pm) / math.Abs(pm)
	if better == "higher" {
		worse = -worse
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if (better == "higher" && c <= p) || (better != "higher" && c >= p) {
				allBetter = false
			}
		}
	}
	noisy := spread(parent) > bound || spread(change) > bound
	switch {
	case worse > bound:
		return worse, verdictRegression
	case noisy && allBetter:
		return worse, verdictImproved
	case noisy:
		return worse, verdictUnresolved
	case worse < -bound:
		return worse, verdictImproved
	}
	return worse, verdictUnchanged
}

// values collects one end-to-end metric of one workload across a file's
// runs.
func (rf *ResultFile) values(workload, metric string) []float64 {
	var out []float64
	for _, run := range rf.Runs {
		for _, w := range run.Workloads {
			if m, ok := w.EndToEnd[metric]; ok && w.Name == workload {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// compare prints one row per workload × end-to-end metric and reports
// whether any regressed.
func compare(w io.Writer, spec *benchmarkSpec, parent, change *ResultFile) (regressed bool) {
	fmt.Fprintf(w, "%-12s %-20s %5s %12s %7s %12s %7s %9s %6s  %s\n",
		"workload", "metric", "runs", "parent", "spread", "change", "spread", "worse by", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			p, c := parent.values(wl.Name, m.Name), change.values(wl.Name, m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			worse, verdict := judge(p, c, m.Better, m.Bound)
			if verdict == verdictRegression {
				regressed = true
			}
			fmt.Fprintf(w, "%-12s %-20s %2d/%-2d %12.6g %6.1f%% %12.6g %6.1f%% %+8.1f%% %5.1f%%  %s\n",
				wl.Name, m.Name, len(p), len(c), median(p), 100*spread(p), median(c), 100*spread(c),
				100*worse, 100*m.Bound, verdict)
		}
	}
	return regressed
}

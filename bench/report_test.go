package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestResultFileRoundTrip(t *testing.T) {
	want := &ResultFile{Schema: resultSchema, Env: environment(), Quick: true, Seconds: 0.5, Runs: []Run{{
		Seed: 7,
		Workloads: []WorkloadResult{{
			Name: "nop-sz3", Seed: 7, Correct: true, Attempted: 3,
			EndToEnd:      metricSet{"raw_mbps": {Value: 253.25383335798048, Unit: "MB/s"}},
			PerLayer:      metricSet{"sz.ratio": {Value: 15.0554, Unit: "x"}},
			Extra:         metricSet{"sz.ratio_3d": {Value: 31.5, Unit: "x"}},
			Samples:       map[string][]float64{"untraced_campaign_s": {0.84, 0.79, 0.87}},
			ReconDigest:   "11cda185bb559b80",
			CriticalStage: "compress",
		}},
	}}}
	path := filepath.Join(t.TempDir(), "set.json")
	if err := writeResultFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("result file did not survive the round trip:\n got %+v\nwant %+v", got, want)
	}

	if err := os.WriteFile(path, []byte(`{"schema":"something-else/9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readResultFile(path); err == nil {
		t.Error("a file of another schema was accepted")
	}
}

// The driver reads the last line of standard output: exactly these four
// keys, every metric a {value, unit} pair.
func TestResultLineShape(t *testing.T) {
	blob, err := json.Marshal(resultLine{true, 12, 0, metricSet{"setup_s": {Value: 7.6877, Unit: "s"}}})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"correct":true,"attempted":12,"failed":0,"metrics":{"setup_s":{"value":7.6877,"unit":"s"}}}`
	if string(blob) != want {
		t.Errorf("result line\n got %s\nwant %s", blob, want)
	}
}

// BENCHMARK.json names every workload and metric the code emits, with the
// code's units, and nothing else.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, declared []specMetric, emitted []metricName, bounded bool) {
		if len(declared) != len(emitted) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the code emits %d", kind, len(declared), len(emitted))
			return
		}
		for i, m := range emitted {
			d := declared[i]
			if d.Name != m.name || d.Unit != m.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the code %s [%s]", kind, i, d.Name, d.Unit, m.name, m.unit)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("%s: direction %q", d.Name, d.Better)
			}
			if bounded && (d.Bound <= 0 || d.Bound > 0.25) {
				t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEndMetrics, true)
	check("per-layer", spec.PerLayer, perLayerMetrics, false)
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100.5}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		better         string
		bound          float64
		want           string
	}{
		{"same", steady, []float64{100.2, 99.8, 100, 101, 99.5}, "higher", 0.08, verdictUnchanged},
		{"slower throughput", steady, []float64{85, 86, 84, 85, 85.5}, "higher", 0.08, verdictRegression},
		{"longer latency", steady, []float64{115, 116, 114, 115, 115}, "lower", 0.08, verdictRegression},
		{"faster throughput", steady, []float64{120, 121, 119, 120, 122}, "higher", 0.08, verdictImproved},
		{"shorter latency", steady, []float64{80, 81, 79, 80, 82}, "lower", 0.08, verdictImproved},
		{"noisy sets cannot say unchanged", []float64{80, 100, 120, 90, 110}, []float64{85, 105, 118, 92, 108}, "higher", 0.08, verdictUnresolved},
		{"noisy but every run better", []float64{80, 100, 120, 90, 110}, []float64{130, 150, 170, 140, 160}, "higher", 0.08, verdictImproved},
		{"noisy and worse beyond the bound", []float64{80, 100, 120, 90, 110}, []float64{60, 80, 95, 70, 85}, "higher", 0.08, verdictRegression},
	} {
		if _, got := judge(tc.parent, tc.change, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func fileWith(values map[string][]float64) *ResultFile {
	rf := &ResultFile{Schema: resultSchema}
	for i := 0; i < 3; i++ {
		w := WorkloadResult{Name: "nop-sz3", EndToEnd: metricSet{}}
		for name, vs := range values {
			w.EndToEnd.put(name, vs[i], "")
		}
		rf.Runs = append(rf.Runs, Run{Workloads: []WorkloadResult{w}})
	}
	return rf
}

func TestCompareFlagsRegression(t *testing.T) {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	parent := fileWith(map[string][]float64{"raw_mbps": {250, 252, 248}, "ratio": {15, 15, 15}})
	same := fileWith(map[string][]float64{"raw_mbps": {251, 249, 250}, "ratio": {15, 15, 15}})
	slower := fileWith(map[string][]float64{"raw_mbps": {150, 152, 148}, "ratio": {15, 15, 15}})

	var out bytes.Buffer
	if compare(&out, spec, parent, same) {
		t.Errorf("two equal sets compared as a regression:\n%s", out.String())
	}
	if !strings.Contains(out.String(), verdictUnchanged) {
		t.Errorf("no %q row:\n%s", verdictUnchanged, out.String())
	}
	out.Reset()
	if !compare(&out, spec, parent, slower) {
		t.Errorf("a 40 %% slower set was not flagged:\n%s", out.String())
	}
	if !strings.Contains(out.String(), verdictRegression) {
		t.Errorf("no %q row:\n%s", verdictRegression, out.String())
	}
}

// -quick drives all five workloads through both passes end to end. It
// asserts on structure and on the output checks only — never on a time — so
// it cannot flake on a loaded machine.
func TestQuickRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	out, spans := filepath.Join(dir, "set.json"), filepath.Join(dir, "spans.json")
	var stdout, stderr bytes.Buffer
	args := []string{"-quick", "-seconds", "0.05", "-tmp", filepath.Join(dir, "tmp"), "-out", out, "-trace-out", spans}
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("quick run: %v\n%s%s", err, stdout.String(), stderr.String())
	}
	rf, err := readResultFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Runs) != 1 || len(rf.Runs[0].Workloads) != len(workloads) {
		t.Fatalf("result file holds %d runs, want 1 run of %d workloads", len(rf.Runs), len(workloads))
	}
	digests := map[string]string{}
	for i, w := range rf.Runs[0].Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i].name)
		}
		if !w.Correct || w.Failed != 0 || w.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d failures=%v", w.Name, w.Correct, w.Attempted, w.Failed, w.Failures)
		}
		if lost := missing(w.EndToEnd, endToEndMetrics); len(lost) > 0 {
			t.Errorf("%s: end-to-end metrics missing: %v", w.Name, lost)
		}
		if lost := missing(w.PerLayer, perLayerMetrics); len(lost) > 0 {
			t.Errorf("%s: per-layer metrics missing: %v", w.Name, lost)
		}
		if len(w.EndToEnd) != len(endToEndMetrics) || len(w.PerLayer) != len(perLayerMetrics) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, want exactly %d and %d",
				w.Name, len(w.EndToEnd), len(w.PerLayer), len(endToEndMetrics), len(perLayerMetrics))
		}
		if w.CriticalStage == "" {
			t.Errorf("%s: no critical stage named", w.Name)
		}
		digests[w.Name] = w.ReconDigest
	}
	if digests["wan-paced"] != digests["wan-faulty"] || digests["wan-paced"] == "0000000000000000" {
		t.Errorf("wan-paced digest %s, wan-faulty digest %s: want equal and non-zero", digests["wan-paced"], digests["wan-faulty"])
	}

	blob, err := os.ReadFile(spans)
	if err != nil {
		t.Fatal(err)
	}
	var recorded []span
	if err := json.Unmarshal(blob, &recorded); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for i, s := range recorded {
		names[s.Name] = true
		if s.ID != i || s.Parent >= i || s.End < s.Start {
			t.Fatalf("span %d is malformed: %+v", i, s)
		}
	}
	for _, want := range []string{"campaign", "send", "stage:compress", "layer-pass", "layer:sz.compress", "burst"} {
		if !names[want] {
			t.Errorf("no %q span recorded", want)
		}
	}
}

// Driver mode ends with the result line, holding exactly the declared
// metrics of the requested kind.
func TestDriverModeResultLine(t *testing.T) {
	for trace, declared := range [][]metricName{endToEndMetrics, perLayerMetrics} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "wan-faulty", "--seed", "3", "--seconds", "0.05", "--trace", []string{"0", "1"}[trace],
			"-quick", "-tmp", filepath.Join(t.TempDir(), "tmp")}
		if err := run(context.Background(), args, &stdout, &stderr); err != nil {
			t.Fatalf("trace %d: %v\n%s%s", trace, err, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var top map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &top); err != nil {
			t.Fatalf("trace %d: last line is not JSON: %v\n%s", trace, err, lines[len(lines)-1])
		}
		if len(top) != 4 {
			t.Errorf("trace %d: result line has %d keys, want correct, attempted, failed, metrics", trace, len(top))
		}
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("trace %d: %+v", trace, line)
		}
		if lost := missing(line.Metrics, declared); len(lost) > 0 || len(line.Metrics) != len(declared) {
			t.Errorf("trace %d: %d metrics, want exactly the %d declared; missing %v", trace, len(line.Metrics), len(declared), lost)
		}
	}
}

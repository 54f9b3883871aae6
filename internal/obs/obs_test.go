package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// testClock returns a deterministic clock ticking 1ms per call.
func testClock() func() time.Time {
	t0 := time.Unix(1700000000, 0)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Millisecond)
	}
}

func TestSpanParentLinks(t *testing.T) {
	tr := NewTracerWithClock(testClock())
	ctx := context.Background()
	ctx, root := tr.StartSpan(ctx, "campaign")
	cctx, child := tr.StartSpan(ctx, "compress")
	_, grand := tr.StartSpan(cctx, "chunk")
	grand.End()
	child.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["campaign"].Parent != 0 {
		t.Errorf("root parent = %d, want 0", byName["campaign"].Parent)
	}
	if byName["compress"].Parent != byName["campaign"].ID {
		t.Errorf("compress parent = %d, want campaign id %d", byName["compress"].Parent, byName["campaign"].ID)
	}
	if byName["chunk"].Parent != byName["compress"].ID {
		t.Errorf("chunk parent = %d, want compress id %d", byName["chunk"].Parent, byName["compress"].ID)
	}
}

func TestNilAndDisabledSafety(t *testing.T) {
	// Nil everything: every call must no-op without panicking.
	var o *Obs
	ctx, sp := o.StartSpan(context.Background(), "x")
	sp.End()
	sp.Annotate(Int("n", 1))
	o.Counter("c").Inc()
	o.Gauge("g").Set(3)
	o.Histogram("h").Observe(1)
	o.With(L("tenant", "t"))
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	if _, s := tr.StartSpan(ctx, "y"); s != nil {
		t.Error("nil tracer handed out a live span")
	}
	tr.Record(nil, "z", time.Now(), time.Now())
	if tr.Spans() != nil {
		t.Error("nil tracer has spans")
	}
	var reg *Registry
	reg.Counter("c").Add(1)
	if err := reg.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if reg.Snapshot() != nil {
		t.Error("nil registry snapshot not nil")
	}

	// Disabled tracer: no spans recorded, ctx unchanged.
	dt := NewTracer()
	dt.SetEnabled(false)
	ctx2, dsp := dt.StartSpan(context.Background(), "off")
	if dsp != nil {
		t.Error("disabled tracer handed out a live span")
	}
	if ctx2 != context.Background() {
		t.Error("disabled tracer derived a new context")
	}
	dsp.End()
	if got := len(dt.Spans()); got != 0 {
		t.Errorf("disabled tracer recorded %d spans", got)
	}
	dt.SetEnabled(true)
	_, s := dt.StartSpan(context.Background(), "on")
	s.End()
	if got := len(dt.Spans()); got != 1 {
		t.Errorf("re-enabled tracer recorded %d spans, want 1", got)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracerWithClock(testClock())
	_, sp := tr.StartSpan(context.Background(), "once")
	sp.End()
	sp.End()
	sp.Annotate(Int("late", 1)) // after End: dropped
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("double End recorded %d spans, want 1", len(spans))
	}
	if len(spans[0].Attrs) != 0 {
		t.Error("annotation after End was recorded")
	}
}

func TestChromeExportValid(t *testing.T) {
	tr := NewTracerWithClock(testClock())
	ctx, root := tr.StartSpan(context.Background(), "campaign", Int("fields", 2))
	_, a := tr.StartSpan(ctx, "compress", String("field", "TMQ"))
	a.End()
	_, b := tr.StartSpan(ctx, "transfer")
	b.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			TS   float64                `json:"ts"`
			Dur  float64                `json:"dur"`
			TID  int                    `json:"tid"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("exported %d events, want 3", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event %q has ph %q, want X", e.Name, e.Ph)
		}
		if e.TS < 0 || e.Dur < 0 {
			t.Errorf("event %q has negative ts/dur", e.Name)
		}
		if e.TID < 1 {
			t.Errorf("event %q on tid %d, want >= 1", e.Name, e.TID)
		}
	}
	if doc.TraceEvents[0].Name != "campaign" {
		t.Errorf("first event %q, want campaign (start order)", doc.TraceEvents[0].Name)
	}
	if got := doc.TraceEvents[1].Args["field"]; got != "TMQ" {
		t.Errorf("compress field attr = %v, want TMQ", got)
	}
}

func TestNDJSONExportValid(t *testing.T) {
	tr := NewTracerWithClock(testClock())
	ctx, root := tr.StartSpan(context.Background(), "campaign")
	_, a := tr.StartSpan(ctx, "compress", Float("mbps", 38.5))
	a.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("exported %d lines, want 2", len(lines))
	}
	var first, second map[string]interface{}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 invalid JSON: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("line 2 invalid JSON: %v", err)
	}
	if first["name"] != "campaign" || second["name"] != "compress" {
		t.Errorf("line order %v, %v; want campaign, compress", first["name"], second["name"])
	}
	if second["parent"] != first["id"] {
		t.Errorf("compress parent %v != campaign id %v", second["parent"], first["id"])
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	h.Observe(0)          // smallest bucket
	h.Observe(1e-7)       // below the smallest finite bound
	h.Observe(1)          // exactly a boundary: counts as ≤ 1
	h.Observe(3)          // lands in the ≤ 4 bucket
	h.Observe(2e6)        // above the largest finite bound: +Inf bucket
	h.Observe(math.NaN()) // dropped
	if got := h.Count(); got != 5 {
		t.Errorf("count = %d, want 5 (NaN dropped)", got)
	}
	if got := h.Sum(); math.Abs(got-(1e-7+1+3+2e6)) > 1e-9 {
		t.Errorf("sum = %g", got)
	}

	reg := NewRegistry()
	rh := reg.Histogram("lat_seconds")
	rh.Observe(0.5)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE lat_seconds histogram") {
		t.Errorf("missing TYPE line:\n%s", out)
	}
	if !strings.Contains(out, `lat_seconds_bucket{le="+Inf"} 1`) {
		t.Errorf("missing +Inf bucket:\n%s", out)
	}
	if !strings.Contains(out, "lat_seconds_count 1") {
		t.Errorf("missing count:\n%s", out)
	}
	// Cumulative: the ≤ 1 bucket must already include the 0.5 sample.
	if !strings.Contains(out, `lat_seconds_bucket{le="1"} 1`) {
		t.Errorf("0.5 sample missing from le=1 bucket:\n%s", out)
	}
}

func TestRegistryLabelsAndExposition(t *testing.T) {
	reg := NewRegistry()
	climate := reg.With(L("tenant", "climate"))
	physics := reg.With(L("tenant", "physics"))
	climate.Counter("serve_admissions_total").Add(2)
	physics.Counter("serve_admissions_total").Inc()
	climate.Gauge("serve_active_campaigns").Set(1)
	reg.Counter("unlabeled_total").Inc()

	// Views share storage: the parent renders every tenant's series.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE serve_admissions_total counter",
		`serve_admissions_total{tenant="climate"} 2`,
		`serve_admissions_total{tenant="physics"} 1`,
		`serve_active_campaigns{tenant="climate"} 1`,
		"unlabeled_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Same (name, labels) resolves to the same handle.
	if reg.Counter("serve_admissions_total", L("tenant", "climate")) !=
		climate.Counter("serve_admissions_total") {
		t.Error("equivalent label sets resolved different counters")
	}

	snap := reg.Snapshot()
	if snap[`serve_admissions_total{tenant="climate"}`] != 2 {
		t.Errorf("snapshot = %v", snap)
	}

	// Label values with quotes and newlines must escape.
	reg.Counter("odd_total", L("v", "a\"b\nc")).Inc()
	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `odd_total{v="a\"b\nc"} 1`) {
		t.Errorf("label escaping wrong:\n%s", buf.String())
	}
}

func TestTracerRecord(t *testing.T) {
	clock := testClock()
	tr := NewTracerWithClock(clock)
	_, root := tr.StartSpan(context.Background(), "campaign")
	start := clock()
	end := clock()
	tr.Record(root, "stage:compress", start, end, Int("items", 4))
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	var stage SpanRecord
	for _, s := range spans {
		if s.Name == "stage:compress" {
			stage = s
		}
	}
	if stage.ID == 0 || stage.Parent == 0 {
		t.Fatalf("Record span missing or unparented: %+v", stage)
	}
	if !stage.Start.Equal(start) || !stage.End.Equal(end) {
		t.Error("Record did not keep the given interval")
	}
}

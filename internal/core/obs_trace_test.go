package core

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"ocelot/internal/datagen"
	"ocelot/internal/obs"
	"ocelot/internal/sentinel"
	"ocelot/internal/wan"
)

// traceTestFields builds the seeded two-field dataset the span-tree test
// runs over.
func traceTestFields(t *testing.T) []*datagen.Field {
	t.Helper()
	names := datagen.Fields("CESM")[:2]
	fields := make([]*datagen.Field, 0, len(names))
	for _, name := range names {
		f, err := datagen.Generate("CESM", name, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		fields = append(fields, f)
	}
	return fields
}

// TestCampaignSpanTree runs a seeded campaign over a flaky link and
// asserts the span tree's shape is the documented taxonomy: one campaign
// root; per-field compress spans; per-group pack and transfer spans and
// per-member decompress spans under the root; retry attempts as send
// children of their transfer; verify under decompress; and a stage:*
// envelope per pipeline stage. The tree (not the timings) is the golden
// surface — it must be stable run to run. The metrics snapshot accounts
// for every raw byte, and the same campaign with the tracer disabled
// records no span at all.
func TestCampaignSpanTree(t *testing.T) {
	fields := traceTestFields(t)
	tracer := obs.NewTracer()
	flakySpec := func(o *obs.Obs) CampaignSpec {
		return CampaignSpec{
			RelErrorBound: 1e-3,
			Workers:       2,
			GroupParam:    2, // one field per group: two groups
			Transport: &SimulatedWANTransport{
				Link: &wan.Link{Name: "flaky", BandwidthMBps: 500, Concurrency: 2,
					Faults: &wan.Faults{SendErrProb: 0.5, Seed: 7}},
				Timescale: 1e-3,
			},
			Retry: sentinel.RetryPolicy{MaxAttempts: 10,
				BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
			Obs: o,
		}
	}
	res, err := Run(context.Background(), fields, flakySpec(&obs.Obs{Tracer: tracer, Metrics: obs.NewRegistry()}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries == 0 {
		t.Fatal("seeded flaky link produced no retries; the retry-span assertion below would be vacuous")
	}
	t.Run("raw-bytes-metric", func(t *testing.T) {
		var rawBytes int64
		for _, f := range fields {
			rawBytes += int64(f.RawBytes())
		}
		if got := res.Metrics["campaign_raw_bytes_total"]; got != float64(rawBytes) {
			t.Errorf("campaign_raw_bytes_total = %g, want the campaign's %d raw bytes", got, rawBytes)
		}
	})
	t.Run("disabled-tracer", func(t *testing.T) {
		off := obs.NewTracer()
		off.SetEnabled(false)
		if _, err := Run(context.Background(), fields, flakySpec(&obs.Obs{Tracer: off, Metrics: obs.NewRegistry()})); err != nil {
			t.Fatal(err)
		}
		if n := len(off.Spans()); n != 0 {
			t.Errorf("disabled tracer recorded %d spans over a full campaign, want 0", n)
		}
	})

	spans := tracer.Spans()
	byID := map[uint64]obs.SpanRecord{}
	byName := map[string][]obs.SpanRecord{}
	for _, s := range spans {
		byID[s.ID] = s
		byName[s.Name] = append(byName[s.Name], s)
	}

	if n := len(byName["campaign"]); n != 1 {
		t.Fatalf("%d campaign roots, want 1", n)
	}
	root := byName["campaign"][0]
	if root.Parent != 0 {
		t.Errorf("campaign root has parent %d", root.Parent)
	}

	const groups = 2
	wantCounts := map[string]int{
		"compress":   len(fields), // one per field
		"pack":       groups,
		"transfer":   groups,
		"decompress": len(fields), // one per member
		"verify":     len(fields),
	}
	for name, want := range wantCounts {
		if got := len(byName[name]); got != want {
			t.Errorf("%d %s spans, want %d", got, name, want)
		}
	}
	for _, name := range []string{"compress", "pack", "transfer", "decompress"} {
		for _, s := range byName[name] {
			if s.Parent != root.ID {
				t.Errorf("%s span %d parented to %d, want campaign root %d", name, s.ID, s.Parent, root.ID)
			}
		}
	}

	// Every send attempt is a child of a transfer span, and the flaky link
	// means strictly more attempts than groups.
	sends := byName["send"]
	if len(sends) <= groups {
		t.Errorf("%d send spans with %d retries, want > %d (each attempt its own span)",
			len(sends), res.Retries, groups)
	}
	for _, s := range sends {
		if p, ok := byID[s.Parent]; !ok || p.Name != "transfer" {
			t.Errorf("send span %d parented to %q, want transfer", s.ID, p.Name)
		}
	}
	for _, s := range byName["verify"] {
		if p, ok := byID[s.Parent]; !ok || p.Name != "decompress" {
			t.Errorf("verify span %d parented to %q, want decompress", s.ID, p.Name)
		}
	}
	for _, stage := range []string{"stage:compress", "stage:pack", "stage:transfer", "stage:decompress"} {
		if len(byName[stage]) != 1 {
			t.Errorf("%d %s envelope spans, want 1", len(byName[stage]), stage)
		}
	}

	// Chrome export round-trips: valid JSON, one event per span, parent
	// links preserved in args.
	var buf bytes.Buffer
	if err := tracer.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(spans) {
		t.Fatalf("chrome export has %d events for %d spans", len(doc.TraceEvents), len(spans))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event %q has ph %q", e.Name, e.Ph)
		}
		id, ok := e.Args["span"].(float64)
		if !ok {
			t.Fatalf("event %q missing span id arg", e.Name)
		}
		s := byID[uint64(id)]
		if s.Parent != 0 {
			if p, ok := e.Args["parent"].(float64); !ok || uint64(p) != s.Parent {
				t.Errorf("event %q (span %d) exports parent %v, want %d", e.Name, s.ID, e.Args["parent"], s.Parent)
			}
		}
	}
}

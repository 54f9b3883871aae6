package main

import (
	"context"
	"path/filepath"
	"testing"

	"ocelot"
	"ocelot/internal/core"
	"ocelot/internal/datagen"
	"ocelot/internal/obs"
	"ocelot/internal/sentinel"
	"ocelot/internal/wan"
)

// A campaign on a corrupting link must end the same way with the traced
// pass's decorator on its transport as without it. A decorator that
// implemented only Send would hand the verify stage the send buffer instead
// of the delivered bytes and hide every corruption.
func TestDecoratorDoesNotHideCorruption(t *testing.T) {
	fields, err := generate(appFields("CESM", 8, 40), 42)
	if err != nil {
		t.Fatal(err)
	}
	campaign := func(name string, wrap func(core.Transport) core.Transport) *core.CampaignResult {
		t.Helper()
		reg := obs.NewRegistry()
		var tr core.Transport = newFaultLink(
			&core.SimulatedWANTransport{Link: benchLink(), Timescale: -1},
			wan.Faults{Seed: 1, CorruptProb: 0.5, SendErrProb: 0.1, CorruptMode: wan.CorruptMix}, reg)
		if wrap != nil {
			tr = wrap(tr)
		}
		res, err := ocelot.Run(context.Background(), fields, core.CampaignSpec{
			RelErrorBound: 1e-3, Workers: 2, GroupParam: 8, Transport: tr,
			Journal: filepath.Join(t.TempDir(), name+".ocjl"),
			Retry:   sentinel.RetryPolicy{MaxAttempts: 12},
			Obs:     &obs.Obs{Metrics: reg},
		})
		if err != nil {
			t.Fatalf("%s campaign: %v", name, err)
		}
		snap := reg.Snapshot()
		if inj, det := snap["wan_corruptions_injected_total"], snap["campaign_corruption_detected_total"]; inj != det {
			t.Errorf("%s: %g corruptions injected, %g detected", name, inj, det)
		}
		return res
	}

	bare := campaign("bare", nil)
	var tt *tracedTransport
	traced := campaign("traced", func(inner core.Transport) core.Transport {
		tt = newTracedTransport(inner, newRecorder(), "test", -1)
		return tt
	})

	if bare.CorruptGroups == 0 || bare.Retransmits == 0 {
		t.Fatalf("the fault schedule corrupted nothing (corrupt groups %d, retransmits %d): the test proves nothing",
			bare.CorruptGroups, bare.Retransmits)
	}
	if bare.ReconDigest == 0 || traced.ReconDigest != bare.ReconDigest {
		t.Errorf("ReconDigest %016x with the decorator, %016x without", traced.ReconDigest, bare.ReconDigest)
	}
	if traced.Retransmits != bare.Retransmits || traced.CorruptGroups != bare.CorruptGroups {
		t.Errorf("with the decorator: %d retransmits of %d corrupt groups; without: %d of %d",
			traced.Retransmits, traced.CorruptGroups, bare.Retransmits, bare.CorruptGroups)
	}
	if wire := traced.GroupedBytes + traced.RetransmitBytes + traced.DegradedBytes; tt.bytes != wire {
		t.Errorf("decorator saw %d bytes, the result accounts for %d", tt.bytes, wire)
	}
	if tt.failed != traced.Retries {
		t.Errorf("decorator saw %d failed sends, the result reports %d retries", tt.failed, traced.Retries)
	}
}

func TestDecoratorsForwardStreamHint(t *testing.T) {
	sim := &core.SimulatedWANTransport{Link: benchLink()}
	if got := newTracedTransport(newFaultLink(sim, wan.Faults{}, nil), nil, "", -1).StreamHint(); got != benchLink().Concurrency {
		t.Errorf("StreamHint through both decorators = %d, want the link's %d", got, benchLink().Concurrency)
	}
	if got := newTracedTransport(core.NopTransport{}, nil, "", -1).StreamHint(); got != 0 {
		t.Errorf("StreamHint over a transport without one = %d, want 0", got)
	}
}

// weightRecorder is a plain weighted transport that notes the weight it was
// sent with.
type weightRecorder struct {
	core.NopTransport
	weight float64
}

func (w *weightRecorder) SendWeighted(ctx context.Context, name string, data []byte, weight float64) (float64, error) {
	w.weight = weight
	return 0, ctx.Err()
}

func TestDecoratorForwardsWeight(t *testing.T) {
	inner := &weightRecorder{}
	tt := newTracedTransport(inner, nil, "", -1)
	if _, err := tt.SendWeighted(context.Background(), "a", []byte{1}, 2.5); err != nil {
		t.Fatal(err)
	}
	if inner.weight != 2.5 {
		t.Errorf("inner transport was sent with weight %g, want 2.5", inner.weight)
	}
}

// The same archive must meet the same faults whatever group id it travels
// under and however sends interleave.
func TestFaultLinkKeysOnContentNotOnGroupID(t *testing.T) {
	f, err := datagen.Generate("CESM", "TMQ", 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	var archive []byte
	capture := newTracedTransport(core.NopTransport{}, nil, "", -1)
	if _, err := ocelot.Run(context.Background(), []*datagen.Field{f},
		core.CampaignSpec{RelErrorBound: 1e-3, Workers: 1, Transport: capture}); err != nil {
		t.Fatal(err)
	}
	for _, data := range capture.archives {
		archive = data
	}
	if got := archiveKey("group-0007.ocgr", archive); got != "CESM/TMQ.sz" {
		t.Fatalf("archiveKey = %q, want the first member's name", got)
	}
	outcomes := func(name string) []bool {
		link := newFaultLink(core.NopTransport{}, wan.Faults{Seed: 3, CorruptProb: 0.5}, nil)
		var out []bool
		for i := 0; i < 16; i++ {
			delivered, _, err := link.SendDelivered(context.Background(), name, archive, 1)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, len(delivered) != len(archive) || string(delivered) != string(archive))
		}
		return out
	}
	a, b := outcomes("group-0000.ocgr"), outcomes("group-0005.ocgr")
	corrupted := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("send %d: corrupted=%v as group 0, %v as group 5", i, a[i], b[i])
		}
		if a[i] {
			corrupted++
		}
	}
	if corrupted == 0 || corrupted == len(a) {
		t.Errorf("%d of %d deliveries corrupted at probability 0.5", corrupted, len(a))
	}
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"ocelot/internal/obs"
	"ocelot/internal/wan"
)

// TestStatusStageBytesAfterDone: a finished campaign's Status rates its
// compress and decompress stages over exactly its raw volume, whatever the
// stages' items are — one per field or per chunk for compress, one per
// group for decompress.
func TestStatusStageBytesAfterDone(t *testing.T) {
	fields := pipelineFields(t, 8, 48)
	for _, chunkMB := range []float64{0, float64(fields[0].RawBytes()) / 3 / 1e6} {
		t.Run(fmt.Sprintf("chunk-mb=%g", chunkMB), func(t *testing.T) {
			c, err := Submit(context.Background(), fields, CampaignSpec{
				RelErrorBound: 1e-3, Workers: 2, GroupParam: 2, ChunkMB: chunkMB,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if chunkMB > 0 && res.Chunks <= res.Files {
				t.Fatalf("chunking did not split fields: %d chunks for %d files", res.Chunks, res.Files)
			}
			st := c.Status()
			for _, s := range st.Stages {
				if (s.Name == "compress" || s.Name == "decompress") && s.Bytes != st.RawBytes {
					t.Errorf("%s stage (%d items) reports %d bytes, want the campaign's %d raw bytes",
						s.Name, s.Items, s.Bytes, st.RawBytes)
				}
			}
		})
	}
}

// A submitted campaign must report a live, progressing status and reach
// CampaignDone with the same result a blocking Run would produce.
func TestSubmitLifecycle(t *testing.T) {
	fields := pipelineFields(t, 3, 48)
	c, err := Submit(context.Background(), fields, CampaignSpec{
		RelErrorBound: 1e-3,
		Workers:       2,
		GroupParam:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Result(); err != ErrCampaignRunning && c.State() != CampaignDone {
		t.Fatalf("pre-terminal Result error = %v, want ErrCampaignRunning", err)
	}
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if c.State() != CampaignDone {
		t.Fatalf("state after Wait = %v, want done", c.State())
	}
	st := c.Status()
	if st.State != CampaignDone || st.Fields != 3 || st.RawBytes != res.RawBytes {
		t.Fatalf("terminal status %+v inconsistent with result (raw %d)", st, res.RawBytes)
	}
	if st.SentGroups != int64(res.Groups) || st.SentBytes != res.GroupedBytes {
		t.Fatalf("status counted %d groups / %d bytes, result says %d / %d",
			st.SentGroups, st.SentBytes, res.Groups, res.GroupedBytes)
	}
	if len(st.Stages) == 0 {
		t.Fatal("terminal status has no stage ledger")
	}
	// Re-entrant reads after completion.
	if res2, err := c.Result(); err != nil || res2 != res {
		t.Fatalf("Result after Wait = (%p, %v), want (%p, nil)", res2, err, res)
	}
}

// Cancel mid-transfer must unwind the stages promptly and classify the
// handle as canceled, not failed.
func TestSubmitCancelMidStage(t *testing.T) {
	fields := pipelineFields(t, 4, 64)
	// A crawling link: the campaign would pace for many seconds, so a prompt
	// return proves cancellation cut the send short.
	tr := &SimulatedWANTransport{
		Link:      &wan.Link{BandwidthMBps: 0.05, Concurrency: 2},
		Timescale: 1,
	}
	c, err := Submit(context.Background(), fields, CampaignSpec{
		RelErrorBound: 1e-3,
		Workers:       2,
		GroupParam:    2,
		Transport:     tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until bytes are actually in flight before cancelling.
	deadline := time.Now().Add(5 * time.Second)
	for c.State() != CampaignRunning && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	canceledAt := time.Now()
	c.Cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Wait(ctx); err == nil {
		t.Fatal("cancelled campaign returned nil error")
	}
	if lat := time.Since(canceledAt); lat > 2*time.Second {
		t.Errorf("cancel-to-terminal latency %v, want prompt unwind", lat)
	}
	if got := c.State(); got != CampaignCanceled {
		t.Fatalf("state after cancel = %v, want canceled", got)
	}
	st := c.Status()
	if st.Error == "" {
		t.Error("canceled status carries no error message")
	}
}

// An enqueued handle waits in CampaignPending until Start. Cancelled
// before Start, it settles canceled without running a stage, and a late
// Start does not revive it; Start is idempotent.
func TestEnqueueHoldsUntilStart(t *testing.T) {
	fields := pipelineFields(t, 2, 64)
	spec := func(o *obs.Obs) CampaignSpec {
		return CampaignSpec{RelErrorBound: 1e-3, Workers: 1, GroupParam: 1, Obs: o}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	t.Run("cancel-before-start", func(t *testing.T) {
		o := &obs.Obs{Tracer: obs.NewTracer(), Metrics: obs.NewRegistry()}
		c, err := Enqueue(context.Background(), fields, spec(o))
		if err != nil {
			t.Fatal(err)
		}
		if st := c.State(); st != CampaignPending {
			t.Fatalf("state after Enqueue = %v, want pending", st)
		}
		c.Cancel()
		c.Start()
		if _, err := c.Wait(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("Wait error = %v, want context.Canceled", err)
		}
		st := c.Status()
		if st.State != CampaignCanceled || st.ElapsedSec != 0 || st.SentGroups != 0 || st.Stages != nil {
			t.Fatalf("status %+v, want canceled with nothing run", st)
		}
		if n := o.Metrics.Snapshot()["campaign_fields_total"]; n != 0 {
			t.Errorf("campaign_fields_total = %g, want 0 fields executed", n)
		}
		for _, s := range o.Tracer.Spans() {
			if s.Name == "compress" || s.Name == "campaign" {
				t.Errorf("cancelled-before-start handle recorded a %q span", s.Name)
			}
		}
	})
	t.Run("start-twice", func(t *testing.T) {
		c, err := Enqueue(context.Background(), fields, spec(nil))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Result(); err != ErrCampaignRunning {
			t.Fatalf("pending Result error = %v, want ErrCampaignRunning", err)
		}
		c.Start()
		c.Start()
		res, err := c.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if c.State() != CampaignDone || res.Files != len(fields) {
			t.Fatalf("state %v, %d files, want done with %d", c.State(), res.Files, len(fields))
		}
	})
}

// gateTransport holds every send until the test opens it, so a campaign
// stays in flight for exactly as long as the test needs it to.
type gateTransport struct{ open chan struct{} }

func (g *gateTransport) Name() string { return "gate" }

func (g *gateTransport) Send(ctx context.Context, name string, data []byte) (float64, error) {
	select {
	case <-g.open:
		return 0, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Wait with an expired context returns the context error without
// cancelling the campaign itself.
func TestWaitContextDoesNotCancelCampaign(t *testing.T) {
	fields := pipelineFields(t, 2, 48)
	gate := &gateTransport{open: make(chan struct{})}
	c, err := Submit(context.Background(), fields, CampaignSpec{
		RelErrorBound: 1e-3,
		Workers:       2,
		GroupParam:    1,
		Transport:     gate,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The campaign cannot finish while the gate is shut, so Wait can only
	// see the already-expired context.
	ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	if _, err := c.Wait(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Wait with dead context = %v, want deadline exceeded", err)
	}
	close(gate.open)
	if res, err := c.Wait(context.Background()); err != nil || res == nil {
		t.Fatalf("campaign should still complete after an abandoned Wait: %v", err)
	}
	if got := c.State(); got != CampaignDone {
		t.Fatalf("state after the gate opened = %v, want done", got)
	}
}

// Submit must reject invalid specs synchronously.
func TestSubmitValidation(t *testing.T) {
	fields := pipelineFields(t, 1, 32)
	if _, err := Submit(context.Background(), nil, CampaignSpec{RelErrorBound: 1e-3}); err == nil {
		t.Error("Submit with no fields succeeded")
	}
	if _, err := Submit(context.Background(), fields, CampaignSpec{}); err == nil {
		t.Error("Submit with no bound and no plan succeeded")
	}
	if _, err := Submit(context.Background(), fields, CampaignSpec{RelErrorBound: 1e-3, Codec: "nope"}); err == nil {
		t.Error("Submit with unknown codec succeeded")
	}
	if _, err := Submit(context.Background(), fields, CampaignSpec{RelErrorBound: 1e-3, Engine: 99}); err == nil {
		t.Error("Submit with unknown engine succeeded")
	}
	if _, err := Submit(context.Background(), fields, CampaignSpec{RelErrorBound: 1e-3, GroupStrategy: 99}); err == nil {
		t.Error("Submit with unknown grouping strategy succeeded")
	}
	// Non-finite numbers slip past sign checks: a NaN or +Inf bound would
	// be admitted and fail only in the compress stage, and a NaN or +Inf
	// ChunkMB would silently turn fan-out off or on.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Submit(context.Background(), fields, CampaignSpec{RelErrorBound: v}); err == nil {
			t.Errorf("Submit with bound %v succeeded", v)
		}
		if _, err := Submit(context.Background(), fields, CampaignSpec{Adaptive: true, RelErrorBound: v}); err == nil {
			t.Errorf("Submit of an adaptive campaign with bound %v succeeded", v)
		}
		if _, err := Submit(context.Background(), fields, CampaignSpec{RelErrorBound: 1e-3, ChunkMB: v}); err == nil {
			t.Errorf("Submit with ChunkMB %v succeeded", v)
		}
	}
}

// TestValidateNumbers: the finiteness checks reject exactly the non-finite
// bound and chunk size, and leave every finite setting admitted.
func TestValidateNumbers(t *testing.T) {
	cases := []struct {
		name string
		spec CampaignSpec
		ok   bool
	}{
		{"bound", CampaignSpec{RelErrorBound: 1e-3}, true},
		{"adaptive-no-bound", CampaignSpec{Adaptive: true}, true},
		{"chunk-off", CampaignSpec{RelErrorBound: 1e-3, ChunkMB: 0}, true},
		{"chunk-on", CampaignSpec{RelErrorBound: 1e-3, ChunkMB: 16}, true},
		{"bound-nan", CampaignSpec{RelErrorBound: math.NaN()}, false},
		{"bound-inf", CampaignSpec{RelErrorBound: math.Inf(1)}, false},
		{"adaptive-bound-inf", CampaignSpec{Adaptive: true, RelErrorBound: math.Inf(1)}, false},
		{"chunk-nan", CampaignSpec{RelErrorBound: 1e-3, ChunkMB: math.NaN()}, false},
		{"chunk-inf", CampaignSpec{RelErrorBound: 1e-3, ChunkMB: math.Inf(1)}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if c.ok && err != nil {
				t.Fatalf("Validate rejected a finite spec: %v", err)
			}
			if !c.ok && err == nil {
				t.Fatal("Validate accepted a non-finite number")
			}
		})
	}
}

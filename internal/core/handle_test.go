package core

import (
	"context"
	"testing"
	"time"

	"ocelot/internal/wan"
)

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
}

// ParseEngine round-trips every engine name and rejects junk.
func TestParseEngine(t *testing.T) {
	for _, e := range []Engine{EnginePipelined, EngineBarrier, EngineSequential} {
		got, err := ParseEngine(e.String())
		if err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	if e, err := ParseEngine(""); err != nil || e != EnginePipelined {
		t.Errorf("ParseEngine(\"\") = %v, %v, want pipelined", e, err)
	}
	if _, err := ParseEngine("warp"); err == nil {
		t.Error("ParseEngine accepted unknown engine")
	}
}

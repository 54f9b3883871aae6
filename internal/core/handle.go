package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ocelot/internal/datagen"
	"ocelot/internal/pipeline"
)

// CampaignState is the lifecycle of a submitted campaign handle.
type CampaignState uint8

const (
	// CampaignPending means enqueued and not yet started, or started but
	// not yet planning or running.
	CampaignPending CampaignState = iota + 1
	// CampaignPlanning means the adaptive plan pass (sample → predict →
	// decide) is running; no bytes are moving yet.
	CampaignPlanning
	// CampaignRunning means the stage graph is executing.
	CampaignRunning
	// CampaignDone means the campaign finished and verified successfully.
	CampaignDone
	// CampaignFailed means a stage returned an error.
	CampaignFailed
	// CampaignCanceled means Cancel (or the submit context) stopped the
	// campaign before completion.
	CampaignCanceled
)

// String implements fmt.Stringer.
func (s CampaignState) String() string {
	switch s {
	case CampaignPending:
		return "pending"
	case CampaignPlanning:
		return "planning"
	case CampaignRunning:
		return "running"
	case CampaignDone:
		return "done"
	case CampaignFailed:
		return "failed"
	case CampaignCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// Terminal reports whether the state is final (done, failed, canceled).
func (s CampaignState) Terminal() bool {
	return s == CampaignDone || s == CampaignFailed || s == CampaignCanceled
}

// ErrCampaignRunning is returned by Result before the campaign reaches a
// terminal state.
var ErrCampaignRunning = errors.New("core: campaign still running")

// CampaignStatus is a point-in-time snapshot of a submitted campaign —
// what a watch endpoint streams. Stages carries the live per-stage ledger
// (items, busy/wall seconds, and MB/s for the stages whose moved volume
// is known mid-run), so progress is observable while bytes move.
type CampaignStatus struct {
	// State is the lifecycle position at snapshot time.
	State CampaignState `json:"state"`
	// Fields is the campaign's field count.
	Fields int `json:"fields"`
	// RawBytes is the campaign's total raw volume.
	RawBytes int64 `json:"rawBytes"`
	// ElapsedSec is start-to-now (or start-to-terminal once finished); zero
	// while the handle was never started.
	ElapsedSec float64 `json:"elapsedSec"`
	// SentGroups and SentBytes count archives accepted by the transport so
	// far.
	SentGroups int64 `json:"sentGroups"`
	SentBytes  int64 `json:"sentBytes"`
	// Retries and Failovers count transient-failure recoveries so far (zero
	// unless the spec carries a retry policy or fallback transports). They
	// serialize unconditionally — a watcher's ledger needs the explicit
	// zero to distinguish "no faults" from "field absent".
	Retries   int64 `json:"retries"`
	Failovers int64 `json:"failovers"`
	// Integrity counters, same unconditional-zero contract: corrupted group
	// deliveries detected so far, successful repairs of those groups,
	// and fields the bound audit quarantined lossless.
	CorruptGroups  int64 `json:"corruptGroups"`
	Retransmits    int64 `json:"retransmits"`
	DegradedFields int64 `json:"degradedFields"`
	// Stages is the live per-stage timing/throughput ledger (nil until the
	// stage graph starts).
	Stages []StageTiming `json:"stages,omitempty"`
	// Error carries the failure message in terminal failed/canceled states.
	Error string `json:"error,omitempty"`
}

// Campaign is a re-entrant handle to one submitted campaign: hundreds may
// run concurrently in one process, each watchable (Status), awaitable
// (Wait/Done), and cancellable mid-stage (Cancel) — the unit the serve
// daemon's scheduler admits, meters, and exposes over HTTP.
type Campaign struct {
	fields   []*datagen.Field
	rawBytes int64
	cancel   context.CancelFunc
	done     chan struct{}
	now      func() time.Time
	led      *ledger

	mu       sync.Mutex
	state    CampaignState
	group    *pipeline.Group // live stage stats once running
	start    chan struct{}   // closed by Start, then nil
	started  time.Time       // zero until Start
	finished time.Time
	canceled bool
	res      *CampaignResult
	err      error
}

// Submit starts a campaign asynchronously and returns its handle: Enqueue
// followed by Start. The spec is validated synchronously — a daemon can
// reject a bad submission before anything runs — and the campaign then
// executes under a context derived from ctx: cancelling ctx (or calling
// Cancel) unwinds the stages promptly, including mid-send on simulated WAN
// transports and mid-field on a chunked campaign.
func Submit(ctx context.Context, fields []*datagen.Field, spec CampaignSpec) (*Campaign, error) {
	c, err := Enqueue(ctx, fields, spec)
	if err != nil {
		return nil, err
	}
	c.Start()
	return c, nil
}

// Enqueue validates the spec and builds the handle exactly as Submit does,
// but holds it in CampaignPending until Start: the serve scheduler holds
// every accepted job this way until admission. A handle cancelled (or
// whose ctx ends) before Start settles CampaignCanceled without running
// any stage.
func Enqueue(ctx context.Context, fields []*datagen.Field, spec CampaignSpec) (*Campaign, error) {
	if len(fields) == 0 {
		return nil, errors.New("core: no fields")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	now := spec.Now
	if now == nil {
		now = time.Now
	}
	cctx, cancel := context.WithCancel(ctx)
	start := make(chan struct{})
	c := &Campaign{
		fields: fields,
		cancel: cancel,
		done:   make(chan struct{}),
		now:    now,
		led:    newLedger(spec.Obs),
		state:  CampaignPending,
		start:  start,
	}
	for _, f := range fields {
		c.rawBytes += int64(f.RawBytes())
	}

	go func() {
		defer cancel()
		select {
		case <-start:
		case <-cctx.Done():
		}
		var res *CampaignResult
		err := cctx.Err()
		if err == nil {
			res, err = c.run(cctx, spec)
		}
		c.mu.Lock()
		c.res, c.err = res, err
		c.finished = now()
		switch {
		case err == nil:
			c.state = CampaignDone
		case c.canceled || errors.Is(err, context.Canceled):
			c.state = CampaignCanceled
		default:
			c.state = CampaignFailed
		}
		c.mu.Unlock()
		close(c.done)
	}()
	return c, nil
}

// Start releases a pending handle to its runner. It is idempotent, and a
// no-op once the handle was cancelled or settled.
func (c *Campaign) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.start != nil && !c.canceled && !c.state.Terminal() {
		c.started = c.now()
		close(c.start)
		c.start = nil
	}
}

// advance moves the handle to a non-terminal lifecycle state. g is the
// run's pipeline group once the stage graph exists: Status serves live
// stage snapshots from it.
func (c *Campaign) advance(s CampaignState, g *pipeline.Group) {
	c.mu.Lock()
	c.state, c.group = s, g
	c.mu.Unlock()
}

// Cancel stops the campaign: in-flight stage work unwinds on the
// campaign's context (a paced WAN send returns within one pacing select,
// queued chunks drain unexecuted; a pending handle runs no stage)
// and the handle reaches CampaignCanceled. Cancel after a terminal state
// is a no-op.
func (c *Campaign) Cancel() {
	c.mu.Lock()
	if !c.state.Terminal() {
		c.canceled = true
	}
	c.mu.Unlock()
	c.cancel()
}

// Done returns a channel closed when the campaign reaches a terminal
// state.
func (c *Campaign) Done() <-chan struct{} { return c.done }

// Wait blocks until the campaign finishes or ctx is cancelled (which does
// NOT cancel the campaign itself — call Cancel for that). On completion
// it returns the result exactly as the campaign's runner produced it.
func (c *Campaign) Wait(ctx context.Context) (*CampaignResult, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.done:
		return c.Result()
	}
}

// Result returns the terminal outcome, or ErrCampaignRunning while the
// campaign is still in flight.
func (c *Campaign) Result() (*CampaignResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.state.Terminal() {
		return nil, ErrCampaignRunning
	}
	return c.res, c.err
}

// State reports the current lifecycle state.
func (c *Campaign) State() CampaignState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// Status snapshots the campaign's progress: state, elapsed time, shipped
// archives, and the live per-stage ledger with MB/s attached for the
// stages whose moved volume is known mid-run (compress and decompress
// rated over the raw bytes their finished items represent, transfer over
// the archive bytes actually accepted by the transport).
func (c *Campaign) Status() CampaignStatus {
	c.mu.Lock()
	state := c.state
	group := c.group
	started := c.started
	finished := c.finished
	err := c.err
	c.mu.Unlock()

	st := CampaignStatus{
		State:          state,
		Fields:         len(c.fields),
		RawBytes:       c.rawBytes,
		SentGroups:     c.led.sentGroups.load(),
		SentBytes:      c.led.sentBytes.load(),
		Retries:        c.led.retries.load(),
		Failovers:      c.led.failovers.load(),
		CorruptGroups:  c.led.corruptGroups.load(),
		Retransmits:    c.led.retransmits.load(),
		DegradedFields: c.led.degradedFields.load(),
	}
	if !started.IsZero() {
		end := c.now()
		if state.Terminal() {
			end = finished
		}
		st.ElapsedSec = end.Sub(started).Seconds()
	}
	if err != nil {
		st.Error = err.Error()
	}
	if group != nil {
		stats := group.Stats()
		pipeline.AttachThroughput(stats, "compress", c.led.compressedRaw.load())
		pipeline.AttachThroughput(stats, "transfer", st.SentBytes)
		pipeline.AttachThroughput(stats, "decompress", c.led.verifiedRaw.load())
		st.Stages = stats
	}
	return st
}

package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ocelot/internal/gridftp"
	"ocelot/internal/obs"
	"ocelot/internal/sentinel"
	"ocelot/internal/wan"
)

// Transport moves one packed archive from the source to the destination
// endpoint. Implementations return the seconds they account to the move —
// wall time for real wires, simulated link time for modelled WANs — which
// the campaign engine sums into CampaignResult.LinkSec.
type Transport interface {
	// Name labels the transport in reports.
	Name() string
	// Send ships one named archive; it must honour ctx cancellation.
	Send(ctx context.Context, name string, data []byte) (seconds float64, err error)
}

// WeightedTransport is a Transport whose in-flight sends share the
// underlying link in proportion to a per-send weight instead of equally.
// The multi-tenant scheduler (internal/serve) uses it to give each
// tenant's campaigns a weighted-fair share of a shared link: two tenants
// with weights 2 and 1 sending concurrently see a 2:1 bandwidth split.
// Send is equivalent to SendWeighted with weight 1.
type WeightedTransport interface {
	Transport
	// SendWeighted ships one archive with the given fair-share weight
	// (values ≤ 0 are treated as 1).
	SendWeighted(ctx context.Context, name string, data []byte, weight float64) (seconds float64, err error)
}

// DeliveredTransport is a Transport that reports the payload bytes that
// actually arrived at the destination — which may differ from the offered
// bytes when the link corrupts in flight (wan.Faults.CorruptProb). The
// campaign's verify stage checksums the delivered bytes, so it sees
// exactly what the wire produced rather than assuming the send buffer
// arrived intact. Transports without in-flight corruption simply return
// the input slice.
type DeliveredTransport interface {
	Transport
	// SendDelivered ships one archive with the given fair-share weight
	// (values ≤ 0 are treated as 1) and returns the delivered payload.
	SendDelivered(ctx context.Context, name string, data []byte, weight float64) (delivered []byte, seconds float64, err error)
}

// streamHinter is implemented by transports that know how many archives
// the underlying link can usefully keep in flight; CampaignSpec.resolved uses it to
// default CampaignSpec.TransferStreams instead of picking a constant
// that may disagree with the link's concurrency.
type streamHinter interface {
	StreamHint() int
}

// defaultStreams resolves the TransferStreams default for a transport: the
// transport's own hint (e.g. the simulated link's concurrency) when it has
// one, else 4 (the Globus default concurrency).
func defaultStreams(t Transport) int {
	if h, ok := t.(streamHinter); ok {
		if n := h.StreamHint(); n > 0 {
			return n
		}
	}
	return 4
}

// NopTransport moves bytes instantaneously: the in-process campaign path
// where source and destination share memory.
type NopTransport struct{}

// Name implements Transport.
func (NopTransport) Name() string { return "nop" }

// Send implements Transport.
func (NopTransport) Send(ctx context.Context, name string, data []byte) (float64, error) {
	return 0, ctx.Err()
}

// SimulatedWANTransport paces archives over a wan.Link, actually sleeping
// (scaled by Timescale) so that pipelining overlap is observable in wall
// time. It is the bridge between the calibrated link models and the real
// streaming engine.
//
// Bandwidth-sharing semantics: the link admits at most Link.Concurrency
// sends at once — further concurrent Send calls queue until a channel
// frees — and the sends in flight share Link.BandwidthMBps in proportion
// to their weights (Send uses weight 1, so plain sends share equally),
// with every send's pace recomputed whenever one starts or finishes.
// Aggregate simulated throughput therefore never exceeds the link's
// bandwidth, no matter how many goroutines
// (CampaignSpec.TransferStreams) call Send concurrently: extra streams
// beyond the link's concurrency only deepen the queue. A lone send gets
// the full link, matching wan.Link.Estimate's treatment of a batch
// smaller than the channel count.
//
// A SimulatedWANTransport carries shared pacing state and must not be
// copied after first use; campaigns pass it by pointer.
type SimulatedWANTransport struct {
	// Link provides bandwidth, concurrency, and per-file overhead.
	Link *wan.Link
	// Timescale is wall seconds slept per simulated second (e.g. 1e-3
	// compresses a 500 s paper-scale transfer into 0.5 s). 0 means real
	// time; negative disables sleeping entirely (accounting only — sends
	// return instantly, each charged the solo full-link share, overhead +
	// bytes/BandwidthMBps, matching both a lone paced send and
	// wan.Link.Estimate's treatment of a batch smaller than the channel
	// count; without pacing there is no wall-time overlap to share the
	// link across).
	Timescale float64
	// Metrics, when set, counts pacing waits (wan_pacing_waits_total — one
	// per pacing quantum slept) and feeds the fault injector's counters.
	// Set before the first send and never reassigned after; nil = off.
	// Campaigns that carry their own registry install it via adoptMetrics
	// instead, so a transport shared across concurrent campaigns (the
	// serve scheduler's link) is never mutated mid-send.
	Metrics *obs.Registry

	// adopted is the campaign-installed registry when Metrics was nil:
	// CAS-installed so concurrent campaigns sharing this transport race
	// benignly (first adopter wins, matching the old set-if-nil intent).
	adopted atomic.Pointer[obs.Registry]

	mu     sync.Mutex
	active int           // sends currently admitted to the link
	weight float64       // summed fair-share weight of admitted sends
	change chan struct{} // closed and replaced whenever membership changes

	// Fault-injection state, initialised lazily from Link.Faults on the
	// first send: the injector evaluates the schedule against this
	// transport's simulated clock (seconds since epoch, wall time divided
	// by Timescale).
	faultOnce sync.Once
	injector  *wan.Injector
	faultErr  error
	epoch     time.Time
}

// adoptMetrics installs reg as the transport's registry unless one was
// configured at construction or already adopted. Safe under concurrent
// campaigns sharing the transport.
func (t *SimulatedWANTransport) adoptMetrics(reg *obs.Registry) {
	if reg == nil || t.Metrics != nil {
		return
	}
	t.adopted.CompareAndSwap(nil, reg)
}

// metrics is the registry sends observe: the construction-time Metrics
// field when set, else the campaign-adopted one. Either may be nil — the
// obs handles are nil-safe.
func (t *SimulatedWANTransport) metrics() *obs.Registry {
	if t.Metrics != nil {
		return t.Metrics
	}
	return t.adopted.Load()
}

// Name implements Transport.
func (t *SimulatedWANTransport) Name() string {
	if t.Link != nil && t.Link.Name != "" {
		return "sim:" + t.Link.Name
	}
	return "sim"
}

// StreamHint reports the link's concurrency so campaigns default their
// transfer streams to what the link can actually carry.
func (t *SimulatedWANTransport) StreamHint() int {
	if t.Link == nil {
		return 0
	}
	return t.Link.Concurrency
}

// initFaults builds the injector (once) when the link carries a fault
// schedule, anchoring the simulated clock at the first send.
func (t *SimulatedWANTransport) initFaults() error {
	t.faultOnce.Do(func() {
		t.epoch = time.Now()
		if t.Link.Faults != nil {
			t.injector, t.faultErr = wan.NewInjector(t.Link.Faults)
			t.injector.SetMetrics(t.metrics())
		}
	})
	return t.faultErr
}

// simNow is the transport's simulated clock: wall seconds since the first
// send divided by the timescale, so a fault window of [10s, 20s) covers
// the same simulated span whatever the compression factor. Accounting-only
// transports (negative scale) have no advancing clock and report 0 — only
// the probabilistic flap errors apply there.
func (t *SimulatedWANTransport) simNow(scale float64) float64 {
	if scale <= 0 {
		return 0
	}
	return time.Since(t.epoch).Seconds() / scale
}

// bump wakes every send waiting on a membership change. Callers hold mu.
func (t *SimulatedWANTransport) bump() {
	if t.change != nil {
		close(t.change)
	}
	t.change = make(chan struct{})
}

// admit blocks until a link channel is free, honouring ctx, then joins
// the link with fair-share weight w.
func (t *SimulatedWANTransport) admit(ctx context.Context, w float64) error {
	t.mu.Lock()
	if t.change == nil {
		t.change = make(chan struct{})
	}
	for t.active >= t.Link.Concurrency {
		ch := t.change
		t.mu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
		t.mu.Lock()
	}
	t.active++
	t.weight += w
	t.bump()
	t.mu.Unlock()
	return nil
}

func (t *SimulatedWANTransport) release(w float64) {
	t.mu.Lock()
	t.active--
	t.weight -= w
	if t.active == 0 {
		// Reset so float subtraction error cannot accumulate across sends.
		t.weight = 0
	}
	t.bump()
	t.mu.Unlock()
}

// Send implements Transport: it queues for a link channel, charges the
// per-file overhead, then moves the bytes at the current fair share of the
// link bandwidth, re-pacing whenever another send joins or leaves the
// link. The returned seconds are the simulated link time this send took
// (queueing excluded: a queued send is not using the link).
func (t *SimulatedWANTransport) Send(ctx context.Context, name string, data []byte) (float64, error) {
	return t.SendWeighted(ctx, name, data, 1)
}

// SendWeighted implements WeightedTransport: the send's pace is the link
// bandwidth times weight / (summed weight of all in-flight sends), so
// concurrent sends split the link in proportion to their weights. Cancel
// latency is bounded by the select granularity of one pacing quantum: the
// pacing loop always has ctx.Done in its select, so a cancelled send
// returns without finishing its current timer.
func (t *SimulatedWANTransport) SendWeighted(ctx context.Context, name string, data []byte, weight float64) (float64, error) {
	_, sec, err := t.SendDelivered(ctx, name, data, weight)
	return sec, err
}

// SendDelivered implements DeliveredTransport with SendWeighted's pacing
// semantics, additionally returning the delivered payload. When the link's
// fault schedule carries a corruption probability, the injector damages
// the delivery *after* pacing completes — a corrupted archive consumed the
// full link capacity of a clean one, so the throughput ≤ bandwidth
// invariant is unaffected — and the caller's buffer is never mutated (a
// retransmit re-offers the original bytes).
func (t *SimulatedWANTransport) SendDelivered(ctx context.Context, name string, data []byte, weight float64) ([]byte, float64, error) {
	if t.Link == nil {
		return nil, 0, errors.New("core: simulated transport needs a link")
	}
	if weight <= 0 {
		weight = 1
	}
	if err := t.Link.Validate(); err != nil {
		return nil, 0, err
	}
	scale := t.Timescale
	if scale == 0 {
		scale = 1
	}
	if err := t.initFaults(); err != nil {
		return nil, 0, err
	}
	if scale < 0 {
		// Accounting only: no sleeping means sends never overlap in wall
		// time, so each is charged as the fluid model would charge a lone
		// send — the full link share. Probabilistic flap errors still
		// apply (the fast way for tests to exercise the retry path);
		// scheduled windows do not, as there is no advancing clock.
		if err := t.injector.SendError(0); err != nil {
			return nil, 0, err
		}
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		return t.injector.CorruptPayload(data), t.Link.PerFileOverheadSec + float64(len(data))/1e6/t.Link.BandwidthMBps, nil
	}

	// Fault check before admission: a send attempted during an outage (or
	// losing the flap coin toss) fails without consuming a link channel,
	// exactly like a connection that never establishes. A send already
	// mid-flight when an outage window opens is NOT killed — established
	// streams ride out short control-plane blips; dips (below) model the
	// data-plane degradation.
	if err := t.injector.SendError(t.simNow(scale)); err != nil {
		return nil, 0, err
	}

	if err := t.admit(ctx, weight); err != nil {
		return nil, 0, err
	}
	defer t.release(weight)

	simSec := t.Link.PerFileOverheadSec
	if err := sleepScaled(ctx, t.Link.PerFileOverheadSec, scale); err != nil {
		return nil, 0, err
	}
	remainingMB := float64(len(data)) / 1e6
	pacingWaits := t.metrics().Counter("wan_pacing_waits_total")
	for remainingMB > 1e-12 {
		pacingWaits.Inc()
		t.mu.Lock()
		share := weight / t.weight
		ch := t.change
		t.mu.Unlock()
		if share > 1 || share <= 0 {
			share = 1
		}
		simStart := t.simNow(scale)
		// Bandwidth dips scale the whole link while their window is open;
		// the pacing quantum is capped at the next dip boundary so the
		// degraded rate applies exactly on schedule.
		rate := t.Link.BandwidthMBps * share * t.injector.RateFactor(simStart) // MB per simulated second
		need := remainingMB / rate
		if next := t.injector.NextChange(simStart); next-simStart < need {
			need = next - simStart
		}
		start := time.Now()
		timer := time.NewTimer(time.Duration(need * scale * float64(time.Second)))
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, 0, ctx.Err()
		case <-timer.C:
			simSec += need
			remainingMB -= need * rate
			if remainingMB < 1e-12 {
				remainingMB = 0
			}
		case <-ch:
			timer.Stop()
			elapsedSim := time.Since(start).Seconds() / scale
			if elapsedSim > need {
				elapsedSim = need
			}
			simSec += elapsedSim
			remainingMB -= elapsedSim * rate
		}
	}
	// Corruption is injected only after the payload has been fully paced
	// through the link, so damaged deliveries still paid their bandwidth.
	return t.injector.CorruptPayload(data), simSec, nil
}

// sleepScaled sleeps sec simulated seconds at the given timescale,
// honouring ctx: a ctx that is already done returns its error at once.
func sleepScaled(ctx context.Context, sec, scale float64) error {
	if err := ctx.Err(); err != nil || sec <= 0 {
		return err
	}
	timer := time.NewTimer(time.Duration(sec * scale * float64(time.Second)))
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// GridFTPTransport ships archives over the repo's real wire protocol
// (CRC-32-checked frames, the server's verdict on the same connection),
// one connection per archive.
type GridFTPTransport struct {
	// Client is a dialled gridftp client bound to the destination server.
	Client *gridftp.Client
}

// Name implements Transport.
func (t *GridFTPTransport) Name() string { return "gridftp" }

// Send implements Transport. A checksum failure reported by the server is
// wire corruption, not a protocol bug: it is marked transient so the
// campaign's retry/failover budget re-sends the archive, the same contract
// simulated corruption gets from the verify stage.
func (t *GridFTPTransport) Send(ctx context.Context, name string, data []byte) (float64, error) {
	if t.Client == nil {
		return 0, errors.New("core: gridftp transport needs a client")
	}
	sum, err := t.Client.Transfer(ctx, []gridftp.File{{Name: name, Data: data}})
	if err != nil {
		wrapped := fmt.Errorf("core: gridftp send %s: %w", name, err)
		if errors.Is(err, gridftp.ErrChecksum) {
			return 0, sentinel.MarkTransient(wrapped)
		}
		return 0, wrapped
	}
	return sum.Seconds, nil
}

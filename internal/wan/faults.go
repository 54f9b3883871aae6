package wan

// Fault injection for the simulated WAN: scheduled outages, bandwidth
// dips, and a per-send error probability, all deterministic under a seeded
// RNG. The retry/failover path in the campaign engine is exercised against
// these faults in tests — a link flap must
// surface as a *transient* error (retryable), never as a silent stall.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"ocelot/internal/obs"
)

// FaultWindow is a half-open interval [StartSec, EndSec) on the link's
// simulated clock (seconds since the transport's first send).
type FaultWindow struct {
	// StartSec is when the fault begins.
	StartSec float64
	// EndSec is when the fault ends; must be > StartSec.
	EndSec float64
}

// contains reports whether the window covers simulated time t.
func (w FaultWindow) contains(t float64) bool {
	return t >= w.StartSec && t < w.EndSec
}

// BandwidthDip degrades the link to Factor × bandwidth inside a window —
// the "congested backbone" scenario, as opposed to an outage's hard down.
type BandwidthDip struct {
	FaultWindow
	// Factor scales the link bandwidth inside the window; (0, 1].
	Factor float64
}

// Faults describes the fault schedule injected into a link. The zero value
// (and a nil pointer) injects nothing.
type Faults struct {
	// Outages are windows during which every send attempt fails with a
	// transient *FaultError (the link is hard down).
	Outages []FaultWindow
	// Dips are windows during which the link's bandwidth is scaled by the
	// dip's Factor. Overlapping dips multiply.
	Dips []BandwidthDip
	// SendErrProb is the probability, per send attempt, of a transient
	// flap error drawn from the seeded RNG; [0, 1).
	SendErrProb float64
	// CorruptProb is the probability, per *delivered* send, that the
	// payload arrives corrupted; [0, 1). Corruption is injected after
	// pacing completes, so it consumes full link capacity and never
	// perturbs the throughput ≤ bandwidth invariant. Whether corruption is
	// detected or silent is decided downstream: campaigns with the
	// integrity frame enabled catch it at verify; campaigns without see
	// the garbage bytes (the silent-corruption testbed).
	CorruptProb float64
	// CorruptMode picks how a corrupted payload is damaged; the zero value
	// is CorruptBitFlip.
	CorruptMode CorruptMode
	// Seed makes the per-send error draws deterministic.
	Seed int64
}

// CorruptMode selects the damage model for injected payload corruption.
type CorruptMode int

const (
	// CorruptBitFlip flips one to eight random bits — the classic
	// undetected-by-TCP in-flight corruption.
	CorruptBitFlip CorruptMode = iota
	// CorruptTruncate cuts the payload short at a random offset — a
	// partial write or interrupted transfer.
	CorruptTruncate
	// CorruptGarble rewrites the whole payload with random bytes — a
	// wrong-object or torn-buffer delivery.
	CorruptGarble
	// CorruptMix draws one of the three modes above per corrupted send.
	CorruptMix
)

// Validate checks the fault schedule.
func (f *Faults) Validate() error {
	if f == nil {
		return nil
	}
	for i, w := range f.Outages {
		if w.EndSec <= w.StartSec || w.StartSec < 0 {
			return fmt.Errorf("wan: outage %d window [%g, %g) invalid", i, w.StartSec, w.EndSec)
		}
	}
	for i, d := range f.Dips {
		if d.EndSec <= d.StartSec || d.StartSec < 0 {
			return fmt.Errorf("wan: dip %d window [%g, %g) invalid", i, d.StartSec, d.EndSec)
		}
		if d.Factor <= 0 || d.Factor > 1 {
			return fmt.Errorf("wan: dip %d factor %g outside (0, 1]", i, d.Factor)
		}
	}
	if f.SendErrProb < 0 || f.SendErrProb >= 1 {
		return fmt.Errorf("wan: send error probability %g outside [0, 1)", f.SendErrProb)
	}
	if f.CorruptProb < 0 || f.CorruptProb >= 1 {
		return fmt.Errorf("wan: corruption probability %g outside [0, 1)", f.CorruptProb)
	}
	if f.CorruptMode < CorruptBitFlip || f.CorruptMode > CorruptMix {
		return fmt.Errorf("wan: unknown corruption mode %d", f.CorruptMode)
	}
	return nil
}

// FaultError is the transient error an injected fault raises. It
// implements the Transient marker the retry layer classifies on, so a flap
// is retried while a real transport bug is not.
type FaultError struct {
	// Reason describes the fault ("outage", "flap").
	Reason string
	// AtSec is the simulated link time of the failed attempt.
	AtSec float64
}

// Error implements error.
func (e *FaultError) Error() string {
	return fmt.Sprintf("wan: injected %s at t=%.3fs", e.Reason, e.AtSec)
}

// Transient marks injected faults retryable (sentinel.IsTransient).
func (e *FaultError) Transient() bool { return true }

// ErrNoFaults is returned by NewInjector when given a nil schedule; most
// callers should simply skip building an injector instead.
var ErrNoFaults = errors.New("wan: no fault schedule")

// Injector evaluates a fault schedule against the link's simulated clock.
// It is safe for concurrent use: the seeded RNG behind SendErrProb is
// mutex-protected, so concurrent transfer streams draw a deterministic
// global sequence (the *set* of failed sends depends on arrival order, but
// the failure rate and the schedule windows do not).
type Injector struct {
	faults Faults
	mu     sync.Mutex
	rng    *rand.Rand

	// Metric handles installed by SetMetrics (nil-safe no-ops otherwise).
	windowsHit  *obs.Counter
	flapDrops   *obs.Counter
	corruptions *obs.Counter
}

// SetMetrics installs a metrics registry: SendError counts every outage
// window hit (wan_fault_windows_hit_total) and flap drop
// (wan_flap_drops_total), and CorruptPayload counts every injected
// corruption (wan_corruptions_injected_total). Call before the injector is
// shared; a nil injector or registry is a no-op.
func (in *Injector) SetMetrics(reg *obs.Registry) {
	if in == nil {
		return
	}
	in.windowsHit = reg.Counter("wan_fault_windows_hit_total")
	in.flapDrops = reg.Counter("wan_flap_drops_total")
	in.corruptions = reg.Counter("wan_corruptions_injected_total")
}

// NewInjector builds an injector for a validated fault schedule.
func NewInjector(f *Faults) (*Injector, error) {
	if f == nil {
		return nil, ErrNoFaults
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &Injector{faults: *f, rng: rand.New(rand.NewSource(f.Seed))}, nil
}

// SendError reports the fault, if any, that kills a send attempted at
// simulated time t: an outage window covering t, or a flap drawn from the
// seeded RNG with probability SendErrProb. A nil injector never faults.
func (in *Injector) SendError(t float64) error {
	if in == nil {
		return nil
	}
	for _, w := range in.faults.Outages {
		if w.contains(t) {
			in.windowsHit.Inc()
			return &FaultError{Reason: "outage", AtSec: t}
		}
	}
	if p := in.faults.SendErrProb; p > 0 {
		in.mu.Lock()
		hit := in.rng.Float64() < p
		in.mu.Unlock()
		if hit {
			in.flapDrops.Inc()
			return &FaultError{Reason: "flap", AtSec: t}
		}
	}
	return nil
}

// RateFactor returns the bandwidth multiplier active at simulated time t:
// 1 outside every dip, the product of overlapping dip factors inside.
func (in *Injector) RateFactor(t float64) float64 {
	if in == nil {
		return 1
	}
	factor := 1.0
	for _, d := range in.faults.Dips {
		if d.contains(t) {
			factor *= d.Factor
		}
	}
	return factor
}

// CorruptPayload damages a delivered payload with probability CorruptProb
// using the schedule's CorruptMode, returning the (possibly new) delivered
// slice. The input is never mutated: a corrupted delivery is a fresh copy,
// so the sender's buffer — which the campaign may retransmit — stays
// intact. A nil injector, zero probability, or empty payload delivers the
// input unchanged. Draws come from the same seeded RNG as flap errors, so
// the corruption pattern is deterministic per schedule.
func (in *Injector) CorruptPayload(data []byte) []byte {
	if in == nil || in.faults.CorruptProb <= 0 || len(data) == 0 {
		return data
	}
	in.mu.Lock()
	if in.rng.Float64() >= in.faults.CorruptProb {
		in.mu.Unlock()
		return data
	}
	mode := in.faults.CorruptMode
	if mode == CorruptMix {
		mode = CorruptMode(in.rng.Intn(3))
	}
	out := append([]byte(nil), data...)
	switch mode {
	case CorruptTruncate:
		out = out[:in.rng.Intn(len(out))]
	case CorruptGarble:
		in.rng.Read(out)
	default: // CorruptBitFlip
		for k, flips := 0, 1+in.rng.Intn(8); k < flips; k++ {
			out[in.rng.Intn(len(out))] ^= 1 << uint(in.rng.Intn(8))
		}
	}
	in.mu.Unlock()
	in.corruptions.Inc()
	return out
}

// NextChange returns the earliest dip boundary strictly after t, or
// math.Inf(1) when the rate never changes again. A pacing loop caps its
// sleep quantum at this horizon so bandwidth dips take effect exactly on
// schedule instead of whenever membership happens to churn.
func (in *Injector) NextChange(t float64) float64 {
	next := math.Inf(1)
	if in == nil {
		return next
	}
	for _, d := range in.faults.Dips {
		for _, b := range [2]float64{d.StartSec, d.EndSec} {
			if b > t && b < next {
				next = b
			}
		}
	}
	return next
}

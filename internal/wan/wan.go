// Package wan models wide-area Globus/GridFTP-style transfers between
// endpoints. The model captures the paper's Table II behaviour: every file
// pays a fixed handling cost (control-channel round trips, filesystem
// metadata) in addition to its bandwidth time, and files flow through a
// bounded number of concurrent channels. Many small files therefore crater
// the effective throughput, while a few large files saturate the link.
package wan

import (
	"errors"
	"fmt"
	"math/rand"

	"ocelot/internal/sim"
)

// Link describes one WAN path between two endpoints.
type Link struct {
	// Name for reports, e.g. "Anvil->Cori".
	Name string
	// BandwidthMBps is the aggregate achievable bandwidth in MB/s.
	BandwidthMBps float64
	// PerFileOverheadSec is the fixed handling cost charged per file on its
	// assigned channel (GridFTP pipelining reduces but does not eliminate
	// this; the calibrated value reflects the paper's measurements).
	PerFileOverheadSec float64
	// Concurrency is the number of parallel file channels (Globus default 4,
	// DTN deployments often 8-32).
	Concurrency int
	// JitterFrac adds deterministic pseudo-random per-file bandwidth jitter
	// (0 disables). Jitter is seeded per transfer for reproducibility.
	JitterFrac float64
	// Faults, when non-nil, injects scheduled outages, bandwidth dips, and
	// per-send flap errors into transports that pace over this link (see
	// Faults). The estimate and event-loop paths ignore it: faults model
	// the live retry path, not the planning model.
	Faults *Faults
}

// Validate checks link parameters.
func (l *Link) Validate() error {
	if l.BandwidthMBps <= 0 {
		return errors.New("wan: bandwidth must be positive")
	}
	if l.Concurrency <= 0 {
		return errors.New("wan: concurrency must be positive")
	}
	if l.PerFileOverheadSec < 0 {
		return errors.New("wan: negative per-file overhead")
	}
	// Jitter multiplies per-file bandwidth by 1 + JitterFrac·U(−1, 1); a
	// fraction at or above 1 could draw a zero or negative bandwidth and
	// produce infinite or negative transfer costs.
	if l.JitterFrac < 0 || l.JitterFrac >= 1 {
		return fmt.Errorf("wan: jitter fraction %g outside [0, 1)", l.JitterFrac)
	}
	if err := l.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// TransferResult summarizes one simulated batch transfer.
type TransferResult struct {
	Files         int
	Bytes         int64
	Seconds       float64
	EffectiveMBps float64
}

// Estimate computes the completion time for transferring files (sizes in
// bytes) without running an event loop: files are assigned to channels
// greedily (longest processing time first), each channel's time is the sum
// of its files' overhead + bandwidth time, and the link bandwidth is shared
// among busy channels. The returned makespan matches the event-driven
// simulation for the common case and is what the experiment drivers use.
func (l *Link) Estimate(sizes []int64, seed int64) (*TransferResult, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if len(sizes) == 0 {
		return &TransferResult{}, nil
	}
	rng := rand.New(rand.NewSource(seed))
	var total int64
	for _, s := range sizes {
		if s < 0 {
			return nil, fmt.Errorf("wan: negative file size %d", s)
		}
		total += s
	}
	// Per-file cost at full channel share; bandwidth shared across channels.
	ch := l.Concurrency
	if ch > len(sizes) {
		ch = len(sizes)
	}
	perChannelMBps := l.BandwidthMBps / float64(ch)
	costs := make([]float64, len(sizes))
	for i, s := range sizes {
		bw := perChannelMBps
		if l.JitterFrac > 0 {
			bw *= 1 + l.JitterFrac*(rng.Float64()*2-1)
		}
		costs[i] = l.PerFileOverheadSec + float64(s)/1e6/bw
	}
	makespan := sim.Makespan(costs, ch)
	res := &TransferResult{
		Files:   len(sizes),
		Bytes:   total,
		Seconds: makespan,
	}
	if makespan > 0 {
		res.EffectiveMBps = float64(total) / 1e6 / makespan
	}
	return res, nil
}

// Transfer runs the event-driven version on a sim clock and invokes done
// with the result when the batch completes. onFile (optional) fires as each
// file lands, enabling the sentinel's bookkeeping.
func (l *Link) Transfer(clock *sim.Clock, sizes []int64, seed int64,
	onFile func(idx int, at float64), done func(*TransferResult)) error {
	if err := l.Validate(); err != nil {
		return err
	}
	if len(sizes) == 0 {
		clock.After(0, func() { done(&TransferResult{}) })
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	ch := l.Concurrency
	if ch > len(sizes) {
		ch = len(sizes)
	}
	perChannelMBps := l.BandwidthMBps / float64(ch)
	var total int64
	costs := make([]float64, len(sizes))
	for i, s := range sizes {
		if s < 0 {
			return fmt.Errorf("wan: negative file size %d", s)
		}
		total += s
		bw := perChannelMBps
		if l.JitterFrac > 0 {
			bw *= 1 + l.JitterFrac*(rng.Float64()*2-1)
		}
		costs[i] = l.PerFileOverheadSec + float64(s)/1e6/bw
	}
	start := clock.Now()
	next := 0
	remaining := len(sizes)
	var feed func(channel int)
	feed = func(channel int) {
		if next >= len(sizes) {
			return
		}
		idx := next
		next++
		clock.After(costs[idx], func() {
			if onFile != nil {
				onFile(idx, clock.Now())
			}
			remaining--
			if remaining == 0 {
				elapsed := clock.Now() - start
				res := &TransferResult{Files: len(sizes), Bytes: total, Seconds: elapsed}
				if elapsed > 0 {
					res.EffectiveMBps = float64(total) / 1e6 / elapsed
				}
				done(res)
				return
			}
			feed(channel)
		})
	}
	for c := 0; c < ch; c++ {
		feed(c)
	}
	return nil
}

// StandardLinks returns the calibrated links between the paper's three
// testbeds. Bandwidths are set so direct-transfer speeds match Table VIII's
// T(NP) column; the per-file overhead is calibrated to Table II.
func StandardLinks() map[string]*Link {
	return map[string]*Link{
		"Anvil->Cori": {
			Name: "Anvil->Cori", BandwidthMBps: 3760,
			PerFileOverheadSec: 0.02, Concurrency: 8,
		},
		"Anvil->Bebop": {
			Name: "Anvil->Bebop", BandwidthMBps: 960,
			PerFileOverheadSec: 0.02, Concurrency: 8,
		},
		"Bebop->Cori": {
			Name: "Bebop->Cori", BandwidthMBps: 1120,
			PerFileOverheadSec: 0.02, Concurrency: 8,
		},
		"Cori->Bebop": {
			Name: "Cori->Bebop", BandwidthMBps: 1120,
			PerFileOverheadSec: 0.02, Concurrency: 8,
		},
	}
}

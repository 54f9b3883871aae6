package core

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"ocelot/internal/wan"
)

// TestSimulatedTransportAggregateThroughput is the headline regression for
// the bandwidth-accounting bug: however many goroutines call Send
// concurrently, bytes must not move faster than the link's aggregate
// bandwidth. Before the fix, each send was paced at BandwidthMBps /
// Concurrency regardless of how many sends were in flight, so 16 streams
// on a concurrency-4 link simulated 4x the link's capacity.
func TestSimulatedTransportAggregateThroughput(t *testing.T) {
	const (
		bwMBps  = 1000.0
		scale   = 10.0 // wall seconds per simulated second: magnifies pacing
		archive = 1 << 21
	)
	for _, streams := range []int{1, 4, 16} {
		streams := streams
		t.Run(map[int]string{1: "streams=1", 4: "streams=4", 16: "streams=16"}[streams], func(t *testing.T) {
			t.Parallel()
			tr := &SimulatedWANTransport{
				Link:      &wan.Link{Name: "t", BandwidthMBps: bwMBps, Concurrency: 4},
				Timescale: scale,
			}
			data := make([]byte, archive)
			var wg sync.WaitGroup
			errs := make([]error, streams)
			start := time.Now()
			for i := 0; i < streams; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = tr.Send(context.Background(), "a", data)
				}(i)
			}
			wg.Wait()
			wallSec := time.Since(start).Seconds()
			for _, err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
			simSec := wallSec / scale
			totalMB := float64(streams) * float64(archive) / 1e6
			throughput := totalMB / simSec
			// Sleeps only ever run long, so measured throughput can only
			// fall below nominal; any excess means the pacing bug is back.
			if throughput > bwMBps*1.02 {
				t.Errorf("aggregate simulated throughput %.0f MB/s exceeds link bandwidth %.0f MB/s",
					throughput, bwMBps)
			}
			// Guard the other direction loosely: the link should still be
			// substantially used (catches accidental serialization at the
			// old per-channel rate).
			if streams >= 4 && throughput < bwMBps*0.5 {
				t.Errorf("aggregate simulated throughput %.0f MB/s is under half the link bandwidth", throughput)
			}
		})
	}
}

// A lone send owns the whole link, matching wan.Link.Estimate for a batch
// smaller than the channel count.
func TestSimulatedTransportSoloSendFullBandwidth(t *testing.T) {
	tr := &SimulatedWANTransport{
		Link:      &wan.Link{BandwidthMBps: 500, PerFileOverheadSec: 0.01, Concurrency: 8},
		Timescale: 1e-3,
	}
	data := make([]byte, 4<<20)
	sec, err := tr.Send(context.Background(), "a", data)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.01 + float64(len(data))/1e6/500
	if math.Abs(sec-want) > 1e-6 {
		t.Errorf("solo send charged %.6fs, want %.6fs (full link share)", sec, want)
	}
}

// Accounting-only mode (negative timescale) charges the solo full-link
// share — matching both a lone paced send and wan.Link.Estimate for a
// small batch — and returns immediately.
func TestSimulatedTransportAccountingOnly(t *testing.T) {
	tr := &SimulatedWANTransport{
		Link:      &wan.Link{BandwidthMBps: 800, PerFileOverheadSec: 0.02, Concurrency: 4},
		Timescale: -1,
	}
	data := make([]byte, 2<<20)
	start := time.Now()
	sec, err := tr.Send(context.Background(), "a", data)
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start).Seconds(); wall > 0.05 {
		t.Errorf("accounting-only send slept %.3fs", wall)
	}
	want := 0.02 + float64(len(data))/1e6/800.0
	if math.Abs(sec-want) > 1e-6 {
		t.Errorf("accounting-only send charged %.6fs, want %.6fs", sec, want)
	}
}

// Cancellation must release the link channel so later sends proceed.
func TestSimulatedTransportCancellation(t *testing.T) {
	tr := &SimulatedWANTransport{
		Link:      &wan.Link{BandwidthMBps: 1, Concurrency: 1},
		Timescale: 1,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := tr.Send(ctx, "slow", make([]byte, 8<<20)); err == nil {
		t.Fatal("want cancellation error")
	}
	tr.Timescale = -1
	if _, err := tr.Send(context.Background(), "next", []byte{1}); err != nil {
		t.Fatalf("link channel not released after cancellation: %v", err)
	}
}

// Two concurrent sends with a 3:1 weight split must see ~3:1 bandwidth:
// the heavy send finishes in about M/(0.75·BW) simulated seconds, the
// light one (which inherits the full link after the heavy one leaves) in
// about 2·M/BW — a ~1.5x ratio, against 1.33x for equal sharing.
func TestSimulatedTransportWeightedSharing(t *testing.T) {
	const (
		bwMBps = 1000.0
		scale  = 25.0
		bytes  = 8 << 20
	)
	tr := &SimulatedWANTransport{
		Link:      &wan.Link{BandwidthMBps: bwMBps, Concurrency: 2},
		Timescale: scale,
	}
	data := make([]byte, bytes)
	var heavySec, lightSec float64
	var heavyErr, lightErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		heavySec, heavyErr = tr.SendWeighted(context.Background(), "heavy", data, 3)
	}()
	go func() {
		defer wg.Done()
		lightSec, lightErr = tr.SendWeighted(context.Background(), "light", data, 1)
	}()
	wg.Wait()
	if heavyErr != nil || lightErr != nil {
		t.Fatal(heavyErr, lightErr)
	}
	if heavySec >= lightSec {
		t.Fatalf("weight-3 send charged %.4fs, not faster than weight-1 send's %.4fs", heavySec, lightSec)
	}
	// The exact ratio depends on how closely the two admissions coincide;
	// accept anything clearly past equal sharing's 1.33 midpoint region.
	if ratio := lightSec / heavySec; ratio < 1.25 || ratio > 2.2 {
		t.Errorf("light/heavy charged-time ratio %.2f outside [1.25, 2.2] (weights not honoured)", ratio)
	}
}

// A cancelled in-flight send must return promptly — within far less than
// its remaining transfer time — because every pacing select includes
// ctx.Done. This is the transport half of the mid-stage cancellation
// guarantee the serve daemon's cancel endpoint relies on.
func TestSimulatedTransportCancelLatencyMidSend(t *testing.T) {
	tr := &SimulatedWANTransport{
		// 1 MB/s: the 8 MB send below would pace for ~8 wall seconds.
		Link:      &wan.Link{BandwidthMBps: 1, Concurrency: 1},
		Timescale: 1,
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := tr.Send(ctx, "slow", make([]byte, 8<<20))
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the send enter its pacing loop
	canceledAt := time.Now()
	cancel()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("cancelled send returned nil error")
		}
		if lat := time.Since(canceledAt); lat > 250*time.Millisecond {
			t.Errorf("cancel latency %v, want well under the send's ~8s pacing", lat)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("send did not return after cancellation")
	}
}

// TransferStreams must default to the link's concurrency, not a constant
// chosen independently of it.
func TestTransferStreamsDefaultFollowsLinkConcurrency(t *testing.T) {
	fields := pipelineFields(t, 4, 40)
	link := &wan.Link{BandwidthMBps: 4000, Concurrency: 3}
	res, err := Run(context.Background(), fields, CampaignSpec{
		RelErrorBound: 1e-3, Workers: 2, GroupParam: 2,
		Transport: &SimulatedWANTransport{Link: link, Timescale: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Stages {
		if s.Name == "transfer" && s.Workers != link.Concurrency {
			t.Errorf("transfer stage ran %d workers, want link concurrency %d", s.Workers, link.Concurrency)
		}
	}
	// A transport without a hint keeps the Globus default of 4.
	if got := defaultStreams(NopTransport{}); got != 4 {
		t.Errorf("defaultStreams(nop) = %d, want 4", got)
	}
	if got := defaultStreams(&SimulatedWANTransport{Link: link}); got != 3 {
		t.Errorf("defaultStreams(sim) = %d, want 3", got)
	}
}

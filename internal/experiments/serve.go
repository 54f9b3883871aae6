package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"ocelot/internal/core"
	"ocelot/internal/datagen"
	"ocelot/internal/serve"
	"ocelot/internal/wan"
)

// serveTenantNames are the equal-weight tenants the fairness load test
// drives, in emission order.
var serveTenantNames = []string{"climate", "cosmology", "seismic"}

// servePerTenant is how many campaigns each tenant submits at once.
const servePerTenant = 2

// ServeFairness is the load test for the multi-tenant campaign scheduler
// behind `ocelot serve`: three equal-weight tenants each submit two
// identical campaigns at the same instant onto ONE shared simulated WAN
// link, sized so the transfer phase dominates. Because the scheduler
// propagates each tenant's weight to the transport's weighted-fair
// pacing, equal weights must yield near-equal per-tenant throughput —
// reported as the Jain fairness index (1.0 = perfectly fair) — while the
// aggregate across all six concurrent campaigns stays within the link's
// bandwidth. A second, drip-fed scheduler then measures cancellation
// latency: how long a mid-stage campaign takes to settle after Cancel.
func ServeFairness(scale Scale) (*Result, error) {
	scale = scale.withDefaults()
	res := newResult("ServeFairness")

	const nFields = 6
	fields, err := datagen.GenerateFirst("CESM", nFields, scale.Shrink, scale.Seed)
	if err != nil {
		return nil, err
	}
	spec := core.CampaignSpec{
		RelErrorBound: 1e-3,
		Workers:       2,
		GroupParam:    3,
		Codec:         scale.Codec,
	}

	// Calibration: an accounting-only run learns the shipped archive
	// volume, so the link bandwidth can be sized to make the transfer
	// phase dominate wall time at any Scale (fairness is a property of
	// bandwidth sharing; a compression-bound run would measure the CPU
	// scheduler instead).
	cal := spec
	cal.Transport = &core.SimulatedWANTransport{
		Link:      wan.StandardLinks()["Anvil->Bebop"],
		Timescale: -1,
	}
	calRes, err := core.Run(context.Background(), fields, cal)
	if err != nil {
		return nil, fmt.Errorf("serve fairness calibration: %w", err)
	}
	compMB := float64(calRes.GroupedBytes) / 1e6

	// Size the shared link so shipping all campaigns takes ~1.5 simulated
	// (= wall) seconds in aggregate.
	const transferSec = 1.5
	totalMB := compMB * float64(len(serveTenantNames)) * servePerTenant
	link := &wan.Link{Name: "serve-shared", BandwidthMBps: totalMB / transferSec, Concurrency: 6}

	tenants := make(map[string]serve.TenantConfig, len(serveTenantNames))
	for _, tn := range serveTenantNames {
		tenants[tn] = serve.TenantConfig{Weight: 1}
	}
	sched := serve.NewScheduler(serve.Config{
		Transport:  &core.SimulatedWANTransport{Link: link, Timescale: 1},
		Tenants:    tenants,
		MaxRunning: len(serveTenantNames) * servePerTenant,
	})
	defer sched.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	start := time.Now()
	jobs := make(map[string][]*serve.Job, len(serveTenantNames))
	for i := 0; i < servePerTenant; i++ {
		for _, tn := range serveTenantNames {
			j, err := sched.Submit(serve.Request{Tenant: tn, Fields: fields, Spec: spec})
			if err != nil {
				return nil, fmt.Errorf("serve fairness submit %s: %w", tn, err)
			}
			jobs[tn] = append(jobs[tn], j)
		}
	}

	// Completion times must be stamped when each job finishes, not when a
	// sequential Wait loop happens to reach it.
	type completion struct {
		tenant  string
		sentMB  float64
		wallSec float64
		err     error
	}
	var (
		mu          sync.Mutex
		completions []completion
		wg          sync.WaitGroup
	)
	for _, tn := range serveTenantNames {
		for _, j := range jobs[tn] {
			wg.Add(1)
			go func(tn string, j *serve.Job) {
				defer wg.Done()
				_, err := j.Wait(ctx)
				c := completion{tenant: tn, wallSec: time.Since(start).Seconds(), err: err}
				if st := j.Status(); st.Campaign != nil {
					c.sentMB = float64(st.Campaign.SentBytes) / 1e6
				}
				mu.Lock()
				completions = append(completions, c)
				mu.Unlock()
			}(tn, j)
		}
	}
	wg.Wait()

	var sb strings.Builder
	sb.WriteString("ServeFairness: 3 equal-weight tenants x 2 campaigns on one link\n")
	sb.WriteString(fmt.Sprintf("link %.2f MB/s, %.2f MB shipped per campaign\n\n", link.BandwidthMBps, compMB))
	sb.WriteString(fmt.Sprintf("%-12s %12s %12s %14s\n", "tenant", "sent (MB)", "wall (s)", "tput (MB/s)"))

	var totalSentMB, makespan float64
	tputs := make([]float64, 0, len(serveTenantNames))
	for _, tn := range serveTenantNames {
		var sentMB, wall float64
		for _, c := range completions {
			if c.err != nil {
				return nil, fmt.Errorf("serve fairness campaign (%s): %w", c.tenant, c.err)
			}
			if c.tenant != tn {
				continue
			}
			sentMB += c.sentMB
			if c.wallSec > wall {
				wall = c.wallSec
			}
		}
		tput := sentMB / wall
		tputs = append(tputs, tput)
		totalSentMB += sentMB
		if wall > makespan {
			makespan = wall
		}
		res.Values["tput_"+tn] = tput
		sb.WriteString(fmt.Sprintf("%-12s %12.2f %12.2f %14.2f\n", tn, sentMB, wall, tput))
	}
	aggregate := totalSentMB / makespan // Timescale 1: wall seconds are sim seconds
	jain := jainIndex(tputs)
	res.Values["jain"] = jain
	res.Values["aggregate_mbps"] = aggregate
	res.Values["link_mbps"] = link.BandwidthMBps
	res.Values["makespan_sec"] = makespan
	sb.WriteString(fmt.Sprintf("\nJain fairness index %.3f (1.0 = perfectly fair)\n", jain))
	sb.WriteString(fmt.Sprintf("aggregate %.2f MB/s on a %.2f MB/s link\n", aggregate, link.BandwidthMBps))

	// Cancellation latency: a lone campaign on a link ~30x too slow to
	// finish is cancelled once running; the handle must settle promptly
	// (the transport aborts mid-send on ctx.Done, it does not drain).
	latency, err := serveCancelLatency(ctx, fields, spec, compMB)
	if err != nil {
		return nil, err
	}
	res.Values["cancel_latency_sec"] = latency
	sb.WriteString(fmt.Sprintf("mid-stage cancel settled in %.3fs\n", latency))

	res.Text = sb.String()
	return res, nil
}

// serveCancelLatency runs one campaign on a deliberately undersized link,
// cancels it mid-flight, and returns the seconds from Cancel to terminal.
func serveCancelLatency(ctx context.Context, fields []*datagen.Field, spec core.CampaignSpec, compMB float64) (float64, error) {
	link := &wan.Link{Name: "serve-cancel", BandwidthMBps: compMB / 30, Concurrency: 2}
	sched := serve.NewScheduler(serve.Config{
		Transport: &core.SimulatedWANTransport{Link: link, Timescale: 1},
	})
	defer sched.Close()
	j, err := sched.Submit(serve.Request{Tenant: "climate", Fields: fields, Spec: spec})
	if err != nil {
		return 0, fmt.Errorf("serve cancel submit: %w", err)
	}
	for j.Status().State != core.CampaignRunning.String() {
		if err := ctx.Err(); err != nil {
			return 0, fmt.Errorf("serve cancel: campaign never started running: %w", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t0 := time.Now()
	j.Cancel()
	<-j.Done()
	latency := time.Since(t0).Seconds()
	if st := j.Status(); st.State != core.CampaignCanceled.String() {
		return 0, fmt.Errorf("serve cancel: campaign settled %s, want canceled", st.State)
	}
	return latency, nil
}

// jainIndex is Jain's fairness index (Σx)²/(n·Σx²): 1.0 when every share
// is equal, 1/n when one party has everything.
func jainIndex(xs []float64) float64 {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"ocelot/internal/core"
	"ocelot/internal/datagen"
	"ocelot/internal/serve"
)

// The serve-small tenants and their fair-share weights: "a" is entitled to
// two thirds of the service while both are backlogged.
var burstTenants = []struct {
	name   string
	weight float64
}{{"a", 2}, {"b", 1}}

// maxWindow bounds burstConfig.window: a submitter waits on its outstanding
// campaigns with one select, which needs a fixed number of cases.
const maxWindow = 4

// burstConfig describes one closed-loop burst of small campaigns through a
// serve.Scheduler. Exactly one of seconds and campaigns ends it.
type burstConfig struct {
	fields    []*datagen.Field // nil = the environment's fields
	seconds   float64          // submit until this much time has passed …
	campaigns int              // … or until this many campaigns were submitted
	transport core.Transport   // nil = in-process
}

// burstJob is one finished campaign of a burst.
type burstJob struct {
	tenant    string
	doneAt    float64 // seconds since the burst began
	latency   float64 // submit → done
	queueWait float64 // JobStatus.QueuedSec
	rawBytes  int64
	res       *core.CampaignResult
}

// burstResult is what a burst measured.
type burstResult struct {
	jobs      []burstJob
	latencies []float64 // seconds, completion order per tenant
	submitSec []float64 // wall of each Scheduler.Submit call
	seconds   float64   // the timed window (0 for a campaign-count burst)
	span      float64   // first submit → last completion counted in mbDone
	mbDone    float64   // 10⁶ float64 input bytes completed within the window
	attempted int       // submits tried
	failed    int       // campaigns refused, errored or failing an output check
	failures  []string
}

// runBurst drives one submitter goroutine per tenant, each keeping
// sc.window campaigns outstanding (closed loop: a completion triggers the
// next submit). Campaigns still running when a timed burst's clock is up
// are awaited and checked but do not count toward throughput.
func runBurst(ctx context.Context, e *env, cfg burstConfig) (*burstResult, error) {
	fields := cfg.fields
	if fields == nil {
		fields = e.fields
	}
	journalDir, err := os.MkdirTemp(e.tmp, "serve-journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(journalDir)
	tenants := make(map[string]serve.TenantConfig, len(burstTenants))
	for _, t := range burstTenants {
		tenants[t.name] = serve.TenantConfig{Weight: t.weight}
	}
	sched := serve.NewScheduler(serve.Config{
		Transport:   cfg.transport,
		Tenants:     tenants,
		MaxRunning:  2,
		QueueDepth:  4 * maxWindow,
		JournalDir:  journalDir,
		BaseContext: ctx,
	})
	defer sched.Close()

	spec := core.CampaignSpec{RelErrorBound: e.w.relEB, Codec: e.w.codec, Workers: 1, Engine: core.EnginePipelined}
	var rawBytes int64
	var rawMB float64
	for _, f := range fields {
		rawBytes += int64(f.RawBytes())
		rawMB += float64(f.NumPoints()) * 8 / 1e6
	}

	out := &burstResult{seconds: cfg.seconds}
	var mu sync.Mutex
	begin := time.Now()
	deadline := begin.Add(time.Duration(cfg.seconds * float64(time.Second)))
	submits := 0 // guarded by mu
	more := func() bool {
		if cfg.campaigns == 0 {
			return time.Now().Before(deadline)
		}
		mu.Lock()
		defer mu.Unlock()
		if submits == cfg.campaigns {
			return false
		}
		submits++
		return true
	}

	var wg sync.WaitGroup
	for _, t := range burstTenants {
		wg.Add(1)
		go func(tenant string) {
			defer wg.Done()
			var jobs [maxWindow]*serve.Job
			var submitted [maxWindow]time.Time
			outstanding := 0
			// fail records one campaign as failed, with every reason.
			fail := func(reasons ...string) {
				mu.Lock()
				out.failed++
				for _, r := range reasons {
					out.failures = append(out.failures, tenant+": "+r)
				}
				mu.Unlock()
			}
			submit := func(slot int) bool {
				t0 := time.Now()
				j, err := sched.Submit(serve.Request{Tenant: tenant, Fields: fields, Spec: spec})
				took := time.Since(t0).Seconds()
				mu.Lock()
				out.attempted++
				out.submitSec = append(out.submitSec, took)
				mu.Unlock()
				if err != nil {
					fail(fmt.Sprintf("submit: %v", err))
					return false
				}
				jobs[slot], submitted[slot] = j, t0
				outstanding++
				return true
			}
			for slot := 0; slot < e.sc.window && more(); slot++ {
				if !submit(slot) {
					return
				}
			}
			done := func(slot int) <-chan struct{} {
				if jobs[slot] == nil {
					return nil
				}
				return jobs[slot].Done()
			}
			for outstanding > 0 {
				var slot int
				select {
				case <-ctx.Done():
					fail(ctx.Err().Error())
					return
				case <-done(0):
					slot = 0
				case <-done(1):
					slot = 1
				case <-done(2):
					slot = 2
				case <-done(3):
					slot = 3
				}
				now := time.Now()
				j := jobs[slot]
				jobs[slot] = nil
				outstanding--
				res, err := j.Result()
				if err != nil {
					fail(fmt.Sprintf("campaign %s: %v", j.ID(), err))
				} else if bad := e.checkResult(res, 0); len(bad) > 0 {
					fail(fmt.Sprintf("campaign %s: %s", j.ID(), strings.Join(bad, "; ")))
				}
				mu.Lock()
				out.jobs = append(out.jobs, burstJob{tenant: tenant, doneAt: now.Sub(begin).Seconds(),
					latency: now.Sub(submitted[slot]).Seconds(), queueWait: j.Status().QueuedSec,
					rawBytes: rawBytes, res: res})
				mu.Unlock()
				if more() {
					submit(slot)
				}
			}
		}(t.name)
	}
	wg.Wait()

	if len(out.jobs) == 0 {
		return nil, fmt.Errorf("serve burst completed no campaign: %v", out.failures)
	}
	early := false
	for _, j := range out.jobs {
		early = early || out.counted(j)
	}
	if !early {
		// Not one campaign finished inside the window (a smoke run's window
		// is shorter than a campaign): rate the burst over all of them.
		out.seconds = 0
	}
	for _, j := range out.jobs {
		out.latencies = append(out.latencies, j.latency)
		if out.counted(j) {
			out.mbDone += rawMB
			if j.doneAt > out.span {
				out.span = j.doneAt
			}
		}
	}
	return out, nil
}

// counted reports whether j finished inside the burst's timed window; every
// campaign of a campaign-count burst does.
func (b *burstResult) counted(j burstJob) bool {
	return b.seconds <= 0 || j.doneAt <= b.seconds
}

// fairness reports how the burst's completed bytes split across the two
// tenants while both were backlogged (every campaign counted in mbDone):
// the distance of tenant a's share from its entitled 2/3, and Jain's index
// over the weight-normalised shares.
func (b *burstResult) fairness() (shareError, jainIndex float64) {
	bytes := make(map[string]float64)
	var total float64
	for _, j := range b.jobs {
		if b.counted(j) {
			bytes[j.tenant] += float64(j.rawBytes)
			total += float64(j.rawBytes)
		}
	}
	if total == 0 {
		return 0, 0
	}
	var weightSum float64
	norm := make([]float64, 0, len(burstTenants))
	for _, t := range burstTenants {
		weightSum += t.weight
		norm = append(norm, bytes[t.name]/t.weight)
	}
	first := burstTenants[0]
	share := bytes[first.name] / total
	want := first.weight / weightSum
	if share > want {
		shareError = share - want
	} else {
		shareError = want - share
	}
	return shareError, jain(norm)
}

package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"ocelot/internal/codec"
	"ocelot/internal/core"
	"ocelot/internal/metrics"
	"ocelot/internal/obs"
	"ocelot/internal/sz"
)

// memSnapshot is the slice of runtime.MemStats the runtime.* metrics use.
type memSnapshot struct {
	totalAlloc, mallocs, pauseNs uint64
}

func readMem() memSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnapshot{m.TotalAlloc, m.Mallocs, m.PauseTotalNs}
}

// peakRSSMB reads the process's resident high-water mark; 0 where /proc
// does not exist.
func peakRSSMB() float64 {
	blob, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64) // 0 on a malformed line, same as "unknown"
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// passStats is what one pass over a workload — untraced or traced —
// measured, in the shape both workload kinds share.
type passStats struct {
	walls     []float64 // seconds per campaign as its caller saw it
	attempted int
	failed    int
	failures  []string
	rawMBps   float64
	ratio     float64 // CampaignResult.Ratio, 4 B/point basis
	overhead  float64 // wire_overhead_frac
	digest    uint64
	mem       memSnapshot // deltas over the pass
	burst     *burstResult
}

func (p *passStats) fail(format string, args ...interface{}) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// untracedPass runs the workload's closed loop for about seconds with no
// decorator, registry or recorder attached: the numbers a user would see.
func untracedPass(ctx context.Context, e *env, seconds float64) (*passStats, error) {
	p := &passStats{}
	before := readMem()
	if e.w.serve {
		b, err := runBurst(ctx, e, burstConfig{seconds: seconds})
		if err != nil {
			return nil, err
		}
		p.foldBurst(b)
	} else {
		var ratios, overheads []float64
		begin := time.Now()
		for len(p.walls) < e.sc.minReps || time.Since(begin).Seconds() < seconds {
			p.attempted++
			res, wall, err := e.runRep(ctx, repOptions{})
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				p.failed++
				p.fail("rep %d: %v", p.attempted, err)
				continue
			}
			if bad := e.checkResult(res, e.refDigest); len(bad) > 0 {
				p.failed++
				p.fail("rep %d: %s", p.attempted, strings.Join(bad, "; "))
			}
			if len(p.walls) > 0 && res.ReconDigest != p.digest {
				p.fail("rep %d: ReconDigest %016x differs from the first rep's %016x", p.attempted, res.ReconDigest, p.digest)
			}
			p.digest = res.ReconDigest
			p.walls = append(p.walls, wall)
			ratios = append(ratios, res.Ratio)
			overheads = append(overheads, wireOverhead(res))
		}
		if len(p.walls) == 0 {
			return nil, fmt.Errorf("every campaign failed: %v", p.failures)
		}
		p.rawMBps = e.rawMB / median(p.walls)
		p.ratio, p.overhead = median(ratios), median(overheads)
	}
	after := readMem()
	p.mem = memSnapshot{after.totalAlloc - before.totalAlloc, after.mallocs - before.mallocs, after.pauseNs - before.pauseNs}
	return p, nil
}

// foldBurst turns a serve burst into pass statistics.
func (p *passStats) foldBurst(b *burstResult) {
	p.burst = b
	p.walls = b.latencies
	p.attempted = b.attempted
	p.failures = append(p.failures, b.failures...)
	p.failed = b.failed
	p.rawMBps = b.mbDone / b.span
	var ratios, overheads []float64
	for _, j := range b.jobs {
		if j.res == nil {
			continue
		}
		if len(ratios) > 0 && j.res.ReconDigest != p.digest {
			p.fail("ReconDigest differs between campaigns of the burst")
		}
		p.digest = j.res.ReconDigest
		ratios = append(ratios, j.res.Ratio)
		overheads = append(overheads, wireOverhead(j.res))
	}
	p.ratio, p.overhead = median(ratios), median(overheads)
}

// roundTrip compresses and decompresses every field once at the workload's
// codec and bound, outside any timed section, checks the pointwise bound in
// float64 and returns the worst field PSNR — the quality a speed-up must not
// quietly spend.
func roundTrip(e *env) (psnrMin float64, failures []string) {
	cdc, err := codec.Lookup(e.w.codec)
	if err != nil {
		return 0, []string{err.Error()}
	}
	psnrs := make([]float64, len(e.fields))
	errs := make([]error, len(e.fields))
	eachParallel(len(e.fields), func(i int) {
		psnrs[i], errs[i] = roundTripField(cdc, e.fields[i].Data, e.fields[i].Dims, e.w.relEB)
	})
	psnrMin = math.Inf(1)
	for i, err := range errs {
		if err != nil {
			failures = append(failures, fmt.Sprintf("round trip %s: %v", e.fields[i].ID(), err))
			continue
		}
		psnrMin = math.Min(psnrMin, psnrs[i])
	}
	return psnrMin, failures
}

// absBound resolves a range-relative bound against data the way the
// campaign engine does, through the one resolver the codecs share.
func absBound(data []float64, relEB float64) float64 {
	return sz.Config{ErrorBound: relEB, BoundMode: sz.BoundRelative}.AbsoluteBound(data)
}

func roundTripField(cdc codec.Codec, data []float64, dims []int, relEB float64) (float64, error) {
	abs := absBound(data, relEB)
	stream, err := cdc.Compress(data, dims, codec.Params{AbsErrorBound: abs})
	if err != nil {
		return 0, err
	}
	recon, _, err := codec.Decompress(stream)
	if err != nil {
		return 0, err
	}
	worst, err := metrics.MaxAbsError(data, recon)
	if err != nil {
		return 0, err
	}
	if worst > abs*(1+1e-9) {
		return 0, fmt.Errorf("pointwise error %g exceeds bound %g", worst, abs)
	}
	return metrics.PSNR(data, recon)
}

// stageNames are the engine's stages in pipeline order; core.critical_stage
// reports an index into it.
var stageNames = []string{"compress", "pack", "transfer", "decompress"}

// tracedStats is what the traced pass adds to passStats.
type tracedStats struct {
	passStats
	sendCount, sendBusy, sendBytes, sendInflight, sendRetries []float64
	stageBusy, stageSpan                                      map[string][]float64
	stageWorkers                                              map[string]int
	overlap, linkBusy, groupedBytes                           []float64
	archives                                                  map[string][]byte // last rep's payloads, for the layer pass
}

// tracedPass repeats the workload with the decorator on its transport and a
// metrics registry on the spec and link, records spans, and checks what the
// untraced pass cannot see: bytes on the wire, injected against detected
// corruption, files at the GridFTP server.
func tracedPass(ctx context.Context, e *env, rec *recorder, untraced *passStats) (*tracedStats, error) {
	t := &tracedStats{stageBusy: map[string][]float64{}, stageSpan: map[string][]float64{}, stageWorkers: map[string]int{}}
	foldStages := func(res *core.CampaignResult, campaign string, parent int) {
		for _, s := range res.Stages {
			t.stageBusy[s.Name] = append(t.stageBusy[s.Name], s.BusySec)
			t.stageSpan[s.Name] = append(t.stageSpan[s.Name], s.WallSec)
			t.stageWorkers[s.Name] = s.Workers
			if !s.FirstStart.IsZero() {
				rec.add("stage:"+s.Name, campaign, parent, s.FirstStart, s.LastEnd)
			}
		}
		t.overlap = append(t.overlap, res.OverlapSec)
	}

	if e.w.serve {
		root := rec.reserve("burst", e.w.name, -1)
		tt := newTracedTransport(core.NopTransport{}, rec, e.w.name, root)
		start := time.Now()
		b, err := runBurst(ctx, e, burstConfig{campaigns: 20 * e.sc.traceReps, transport: tt})
		if err != nil {
			return nil, err
		}
		rec.finish(root, start, time.Now())
		t.foldBurst(b)
		var wire int64
		for _, j := range b.jobs {
			if j.res != nil {
				foldStages(j.res, e.w.name, root)
				wire += j.res.GroupedBytes + j.res.RetransmitBytes + j.res.DegradedBytes
			}
		}
		if tt.bytes != wire {
			t.fail("decorator saw %d bytes, results account for %d", tt.bytes, wire)
		}
		n := float64(len(b.jobs))
		t.sendCount = []float64{float64(tt.count) / n}
		t.sendBusy = []float64{tt.busy / n}
		t.sendBytes = []float64{float64(tt.bytes) / n}
		t.sendInflight = []float64{float64(tt.maxInflight)}
		t.sendRetries = []float64{float64(tt.failed) / n}
		t.linkBusy = []float64{tt.busyUnion() / b.span}
		t.archives = tt.archives
	} else {
		for r := 0; r < e.sc.traceReps; r++ {
			campaign := fmt.Sprintf("%s#%d", e.w.name, r)
			root := rec.reserve("campaign", campaign, -1)
			reg := obs.NewRegistry()
			var tt *tracedTransport
			t.attempted++
			start := time.Now()
			res, wall, err := e.runRep(ctx, repOptions{reg: reg, wrap: func(inner core.Transport) core.Transport {
				tt = newTracedTransport(inner, rec, campaign, root)
				return tt
			}})
			rec.finish(root, start, time.Now())
			if err != nil {
				if ctx.Err() != nil {
					return nil, ctx.Err()
				}
				t.failed++
				t.fail("traced rep %d: %v", r, err)
				continue
			}
			bad := e.checkResult(res, e.refDigest)
			if wire := res.GroupedBytes + res.RetransmitBytes + res.DegradedBytes; tt.bytes != wire {
				bad = append(bad, fmt.Sprintf("decorator saw %d bytes, result accounts for %d", tt.bytes, wire))
			}
			snap := reg.Snapshot()
			if inj, det := snap["wan_corruptions_injected_total"], snap["campaign_corruption_detected_total"]; inj != det {
				bad = append(bad, fmt.Sprintf("%g corruptions injected, %g detected", inj, det))
			}
			if res.ReconDigest != untraced.digest {
				bad = append(bad, fmt.Sprintf("ReconDigest %016x differs from the untraced pass's %016x", res.ReconDigest, untraced.digest))
			}
			if e.serverDir != "" {
				bad = append(bad, checkServerFiles(e.serverDir, tt.archives)...)
			}
			if len(bad) > 0 {
				t.failed++
				t.fail("traced rep %d: %s", r, strings.Join(bad, "; "))
			}
			foldStages(res, campaign, root)
			t.walls = append(t.walls, wall)
			t.sendCount = append(t.sendCount, float64(tt.count))
			t.sendBusy = append(t.sendBusy, tt.busy)
			t.sendBytes = append(t.sendBytes, float64(tt.bytes))
			t.sendInflight = append(t.sendInflight, float64(tt.maxInflight))
			t.sendRetries = append(t.sendRetries, float64(tt.failed))
			t.linkBusy = append(t.linkBusy, tt.busyUnion()/wall)
			t.groupedBytes = append(t.groupedBytes, float64(res.GroupedBytes))
			t.archives = tt.archives
		}
		if len(t.walls) == 0 {
			return nil, fmt.Errorf("every traced campaign failed: %v", t.failures)
		}
	}
	return t, nil
}

// checkServerFiles verifies the GridFTP server's directory holds every
// archive the decorator saw delivered, at its sent size.
func checkServerFiles(dir string, archives map[string][]byte) []string {
	var bad []string
	for name, data := range archives {
		info, err := os.Stat(filepath.Join(dir, name))
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("gridftp server is missing %s: %v", name, err))
		case info.Size() != int64(len(data)):
			bad = append(bad, fmt.Sprintf("gridftp server holds %s at %d bytes, %d were sent", name, info.Size(), len(data)))
		}
	}
	return bad
}

// criticalStage names the stage whose workers were occupied longest per
// worker — the one the pipeline cannot finish before — and its index in
// stageNames.
func (t *tracedStats) criticalStage() (int, string) {
	best, bestLoad := 0, -1.0
	for i, name := range stageNames {
		w := t.stageWorkers[name]
		if w < 1 {
			w = 1
		}
		if load := median(t.stageBusy[name]) / float64(w); load > bestLoad {
			best, bestLoad = i, load
		}
	}
	return best, stageNames[best]
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ocelot"
	"ocelot/internal/core"
	"ocelot/internal/datagen"
	"ocelot/internal/gridftp"
	"ocelot/internal/obs"
	"ocelot/internal/sentinel"
	"ocelot/internal/wan"
)

// fieldRef names one generated field of a dataset.
type fieldRef struct {
	app, name string
	shrink    int
}

// appFields lists the first n fields of app (all when n ≤ 0) at shrink.
func appFields(app string, n, shrink int) []fieldRef {
	names := datagen.Fields(app)
	if n > 0 && n < len(names) {
		names = names[:n]
	}
	refs := make([]fieldRef, len(names))
	for i, name := range names {
		refs[i] = fieldRef{app, name, shrink}
	}
	return refs
}

// dataset returns the field list of a named dataset. Quick mode keeps the
// shapes and field counts and shrinks every field to a few thousand points.
func dataset(name string, quick bool) []fieldRef {
	pick := func(full, small int) int {
		if quick {
			return small
		}
		return full
	}
	switch name {
	case "sci": // 2-D climate + 3-D hydrodynamics, ≈ 213 MB
		return append(appFields("CESM", 0, pick(2, 24)), appFields("Miranda", 4, pick(4, 32))...)
	case "hacc": // 1-D particle noise, ≈ 201 MB, ratio ≈ 3.5
		return appFields("HACC", 0, pick(8, 2048))
	case "cesm8": // ≈ 104 MB
		return appFields("CESM", 8, pick(2, 24))
	case "tiny": // ≈ 3.2 MB per campaign
		return appFields("CESM", 4, pick(8, 32))
	}
	return nil
}

// Transports a workload can ship over.
const (
	viaNop       = "nop"
	viaGridFTP   = "gridftp"
	viaWAN       = "wan"
	viaWANFaulty = "wan-faulty"
)

// workload is one named set of inputs and settings the benchmark runs.
type workload struct {
	name, why string
	dataset   string
	codec     string
	relEB     float64
	groups    int64 // by-world-size group count; 0 = the engine's default
	journal   bool
	via       string
	serve     bool // many small campaigns through serve.Scheduler
	// setups is how many times a run sets the workload up, reporting the
	// median as setup_s: once where set-up takes several seconds and is
	// steady as it is, more where it is short enough for one page-fault
	// storm or scheduling hiccup to swing it.
	setups int
}

// workloads is the benchmark's fixed workload list; BENCHMARK.json repeats
// the names and reasons.
var workloads = []workload{
	{name: "nop-sz3", dataset: "sci", codec: "sz3", relEB: 1e-3, via: viaNop, setups: 1,
		why: "compute ceiling: sz3 on 2-D and 3-D fields over the no-op transport, so codec, Huffman, lossless and the bound audit do nearly all the work"},
	{name: "gridftp-szx", dataset: "hacc", codec: "szx", relEB: 1e-3, via: viaGridFTP, setups: 3,
		why: "cheap codec at low ratio over loopback GridFTP: packing, CRC framing, sockets, file writes and the audit dominate; bypasses sz3 and Huffman"},
	{name: "wan-paced", dataset: "cesm8", codec: "sz3", relEB: 1e-4, groups: 8, journal: true, via: viaWAN, setups: 1,
		why: "link-bound: a paced 5 MB/s simulated WAN with the journal on, so only ratio, grouping, overlap and pacing move it and codec speed should not"},
	{name: "wan-faulty", dataset: "cesm8", codec: "sz3", relEB: 1e-4, groups: 8, journal: true, via: viaWANFaulty, setups: 1,
		why: "wan-paced plus a fixed schedule of flaps and corrupted deliveries: the verify, retransmit and journal re-ack path that a clean run never takes"},
	{name: "serve-small", dataset: "tiny", codec: "sz3", relEB: 1e-3, journal: true, via: viaNop, serve: true, setups: 5,
		why: "many 3 MB campaigns through the multi-tenant scheduler: per-campaign fixed cost, journal fsync and admission dominate, codecs are a minority"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// benchLink is the simulated WAN of the wan-* workloads. The paper's links
// are faster than two cores can feed, so this one is scaled down until the
// transfer is at least 70 % of a campaign's wall time.
func benchLink() *wan.Link {
	return &wan.Link{Name: "bench-5MBps", BandwidthMBps: 5, PerFileOverheadSec: 0.02, Concurrency: 4}
}

// benchFaults is wan-faulty's schedule. The seed is a constant, not the
// workload seed: the schedule is part of the workload, like the link's
// bandwidth, and a metric must not depend on how many corruptions a seed
// happened to draw (see faultLink).
var benchFaults = wan.Faults{Seed: 20230717, CorruptProb: 0.25, SendErrProb: 0.1}

// scale holds the knobs quick mode turns down.
type scale struct {
	quick     bool
	timescale float64 // wall seconds per simulated WAN second
	warmups   int     // untimed reps before the timed section
	minReps   int     // timed reps to run even when the clock is up
	traceReps int     // reps of the traced pass
	window    int     // serve-small: outstanding campaigns per tenant
}

func scaleFor(quick bool) scale {
	if quick {
		return scale{quick: true, timescale: 0.01, warmups: 1, minReps: 2, traceReps: 1, window: 2}
	}
	return scale{timescale: 1, warmups: 2, minReps: 3, traceReps: 3, window: 4}
}

// env is one workload after set-up: generated fields, started servers and
// scratch directories. close releases all of it.
type env struct {
	w      workload
	sc     scale
	seed   int64
	fields []*datagen.Field
	rawMB  float64 // 10⁶ bytes of in-memory float64 input per campaign
	tmp    string  // scratch directory, removed by close

	server    *gridftp.Server
	serverDir string
	client    *gridftp.Client

	reps      int     // campaigns started, for unique journal names
	refDigest uint64  // ReconDigest of a clean, unpaced run (journaled workloads)
	setupSec  float64 // everything below, end to end
	genSec    float64 // datagen share of setupSec
	coldSec   float64 // first campaign in this process
}

// eachParallel calls fn(i) for every i in [0, n) from one goroutine per core
// and returns once all calls have.
func eachParallel(n int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// generate synthesizes refs on every core; datagen is deterministic per
// field, so the result does not depend on the goroutine count.
func generate(refs []fieldRef, seed int64) ([]*datagen.Field, error) {
	fields := make([]*datagen.Field, len(refs))
	errs := make([]error, len(refs))
	eachParallel(len(refs), func(i int) {
		fields[i], errs[i] = datagen.Generate(refs[i].app, refs[i].name, refs[i].shrink, seed)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return fields, nil
}

// setup generates the workload's dataset from seed, starts what the
// workload ships over, and runs the warm-up campaigns. Its wall time is the
// setup_s metric.
func setup(ctx context.Context, w workload, sc scale, seed int64, tmpRoot string) (*env, error) {
	start := time.Now()
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	e := &env{w: w, sc: sc, seed: seed, tmp: tmp}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()

	if e.fields, err = generate(dataset(w.dataset, sc.quick), seed); err != nil {
		return nil, err
	}
	e.genSec = time.Since(start).Seconds()
	for _, f := range e.fields {
		e.rawMB += float64(f.NumPoints()) * 8 / 1e6
	}

	if w.via == viaGridFTP {
		e.serverDir = filepath.Join(tmp, "gridftp")
		if err := os.MkdirAll(e.serverDir, 0o755); err != nil {
			return nil, err
		}
		if e.server, err = gridftp.NewServer(e.serverDir); err != nil {
			return nil, err
		}
		if e.client, err = gridftp.Dial(e.server.Addr(), 2); err != nil {
			return nil, err
		}
	}

	if w.serve {
		warm, err := runBurst(ctx, e, burstConfig{campaigns: 4 * sc.warmups})
		if err != nil {
			return nil, err
		}
		if len(warm.failures) > 0 {
			return nil, fmt.Errorf("warm-up: %s", warm.failures[0])
		}
		e.coldSec = warm.latencies[0]
	} else {
		warmups := sc.warmups
		if w.journal {
			// The reference run doubles as the first warm-up: same codec
			// work, no pacing, no faults.
			res, wall, err := e.runRep(ctx, repOptions{reference: true})
			if err != nil {
				return nil, fmt.Errorf("reference run: %w", err)
			}
			e.refDigest, e.coldSec = res.ReconDigest, wall
			warmups--
		}
		for i := 0; i < warmups; i++ {
			_, wall, err := e.runRep(ctx, repOptions{})
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if e.coldSec == 0 {
				e.coldSec = wall
			}
		}
	}
	e.setupSec = time.Since(start).Seconds()
	ok = true
	return e, nil
}

// steadySetup sets the workload up w.setups times (once in quick mode),
// keeps the last environment and returns the median set-up time.
func steadySetup(ctx context.Context, w workload, sc scale, seed int64, tmpRoot string) (*env, float64, error) {
	var secs []float64
	for {
		e, err := setup(ctx, w, sc, seed, tmpRoot)
		if err != nil {
			return nil, 0, err
		}
		secs = append(secs, e.setupSec)
		if sc.quick || len(secs) >= w.setups {
			return e, median(secs), nil
		}
		e.close()
	}
}

// close stops the workload's server and removes its scratch directory.
func (e *env) close() {
	if e.server != nil {
		_ = e.server.Close() // shutdown of a loopback listener; nothing to recover
	}
	_ = os.RemoveAll(e.tmp) // best effort: a leftover scratch dir is harmless
}

// repOptions vary one campaign of a batch workload.
type repOptions struct {
	// reference runs without pacing or faults, for the digest every other
	// rep must reproduce.
	reference bool
	// wrap, when set, decorates the workload's transport (traced pass).
	wrap func(core.Transport) core.Transport
	// reg, when set, goes on the spec and on the simulated link.
	reg *obs.Registry
}

// transport builds the workload's transport for one rep. Simulated links
// carry pacing state and fault draws, so each rep gets a fresh one.
func (e *env) transport(o repOptions) core.Transport {
	switch e.w.via {
	case viaGridFTP:
		return &core.GridFTPTransport{Client: e.client}
	case viaWAN, viaWANFaulty:
		sim := &core.SimulatedWANTransport{Link: benchLink(), Timescale: e.sc.timescale, Metrics: o.reg}
		if o.reference {
			sim.Timescale = -1
			return sim
		}
		if e.w.via == viaWANFaulty {
			return newFaultLink(sim, benchFaults, o.reg)
		}
		return sim
	}
	return core.NopTransport{}
}

// spec is the campaign description every rep of a batch workload runs:
// shipping defaults (pipelined engine, integrity frames, full bound audit)
// on two workers.
func (e *env) spec(o repOptions) core.CampaignSpec {
	tr := e.transport(o)
	if o.wrap != nil {
		tr = o.wrap(tr)
	}
	spec := core.CampaignSpec{
		RelErrorBound: e.w.relEB,
		Codec:         e.w.codec,
		Workers:       2,
		GroupParam:    e.w.groups,
		Engine:        core.EnginePipelined,
		Transport:     tr,
	}
	if e.w.via == viaWANFaulty && !o.reference {
		spec.Retry = sentinel.RetryPolicy{MaxAttempts: 8}
	}
	if o.reg != nil {
		spec.Obs = &obs.Obs{Metrics: o.reg}
	}
	return spec
}

// runRep runs one campaign through ocelot.Run and returns its result and
// the wall time a caller of Run waited.
func (e *env) runRep(ctx context.Context, o repOptions) (*core.CampaignResult, float64, error) {
	spec := e.spec(o)
	if e.w.journal {
		e.reps++
		spec.Journal = filepath.Join(e.tmp, fmt.Sprintf("rep-%04d.ocjl", e.reps))
		defer os.Remove(spec.Journal)
	}
	start := time.Now()
	res, err := ocelot.Run(ctx, e.fields, spec)
	return res, time.Since(start).Seconds(), err
}

// checkResult applies the output checks that need only a campaign's result
// (wantDigest 0 skips the digest check); it returns one line per failed
// check.
func (e *env) checkResult(res *core.CampaignResult, wantDigest uint64) []string {
	var bad []string
	if res.MaxRelError > e.w.relEB*(1+1e-9) {
		bad = append(bad, fmt.Sprintf("max relative error %g exceeds bound %g", res.MaxRelError, e.w.relEB))
	}
	if len(res.DegradedFields) > 0 {
		bad = append(bad, fmt.Sprintf("%d field(s) degraded to lossless: %v", len(res.DegradedFields), res.DegradedFields))
	}
	if wantDigest != 0 && res.ReconDigest != wantDigest {
		bad = append(bad, fmt.Sprintf("ReconDigest %016x differs from the clean run's %016x", res.ReconDigest, wantDigest))
	}
	return bad
}

// wireOverhead is the share of bytes on the wire beyond the compressed
// streams: pack headers, integrity frames, retransmits, quarantine escapes.
func wireOverhead(res *core.CampaignResult) float64 {
	wire := res.GroupedBytes + res.RetransmitBytes + res.DegradedBytes
	return float64(wire-res.CompressedBytes) / float64(res.CompressedBytes)
}

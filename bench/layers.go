package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ocelot/internal/core"
	"ocelot/internal/datagen"
	"ocelot/internal/dtree"
	"ocelot/internal/gridftp"
	"ocelot/internal/grouping"
	"ocelot/internal/huffman"
	"ocelot/internal/integrity"
	"ocelot/internal/journal"
	"ocelot/internal/lossless"
	"ocelot/internal/metrics"
	"ocelot/internal/planner"
	"ocelot/internal/sz"
	"ocelot/internal/szx"
)

// maxSamplePoints caps the fields the layer pass times single calls on, so
// one call stays well under a second on any workload.
const maxSamplePoints = 1 << 21

// sampleOf returns f cut along its slowest axis to at most maxPoints values:
// the leading rows of the real field, not a regenerated stand-in.
func sampleOf(f *datagen.Field, maxPoints int) *datagen.Field {
	if f.NumPoints() <= maxPoints {
		return f
	}
	rowPoints := f.NumPoints() / f.Dims[0]
	rows := maxPoints / rowPoints
	if rows < 4 {
		rows = 4
	}
	dims := append([]int{rows}, f.Dims[1:]...)
	return &datagen.Field{App: f.App, Name: f.Name, Dims: dims, Data: f.Data[:rows*rowPoints], ElementSize: f.ElementSize}
}

// sampleFields picks the first field of each dimensionality in the
// workload's dataset, so a 2-D and a 3-D field are both timed on sci.
func sampleFields(fields []*datagen.Field) []*datagen.Field {
	var out []*datagen.Field
	seen := map[int]bool{}
	for _, f := range fields {
		if !seen[len(f.Dims)] {
			seen[len(f.Dims)] = true
			out = append(out, sampleOf(f, maxSamplePoints))
		}
	}
	return out
}

// layerPass is the single-threaded pass that times each module's public
// functions on the workload's own fields and on the archives its traced
// campaigns shipped.
type layerPass struct {
	e      *env
	rec    *recorder
	root   int
	out    metricSet // metrics BENCHMARK.json declares
	extra  metricSet // per-dimensionality splits and other undeclared detail
	memcpy float64   // roofline, MB/s
	szSec  float64   // sz.Compress on the first sample field, seconds
}

// timed calls fn until it has run three times and for 0.15 s in total (once
// in quick mode) and returns the median seconds per call.
func (lp *layerPass) timed(name string, fn func() error) (float64, error) {
	const budget = 0.15
	var secs []float64
	begin := time.Now()
	for len(secs) == 0 || (!lp.e.sc.quick && (len(secs) < 3 || time.Since(begin).Seconds() < budget)) {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	lp.rec.add("layer:"+name, lp.e.w.name, lp.root, begin, time.Now())
	return median(secs), nil
}

func mbOf(f *datagen.Field) float64 { return float64(f.NumPoints()) * 8 / 1e6 }

// run executes every layer measurement.
func (lp *layerPass) run(ctx context.Context, untraced *passStats, traced *tracedStats) error {
	samples := sampleFields(lp.e.fields)
	steps := []func() error{
		func() error { return lp.roofline(samples[0]) },
		func() error { return lp.codecs(samples) },
		func() error { return lp.allocs(samples) },
		func() error { return lp.entropy(samples[0]) },
		func() error { return lp.archives(traced.archives) },
		lp.journal,
		func() error { return lp.gridftp(ctx, traced.archives) },
		func() error { return lp.pacing(ctx) },
		func() error { return lp.planner(untraced.ratio) },
		func() error { return lp.serve(ctx, traced) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// roofline times a plain copy of a field-sized slice: the memory-bandwidth
// ceiling every codec throughput is also reported as a fraction of.
func (lp *layerPass) roofline(f *datagen.Field) error {
	dst := make([]float64, len(f.Data))
	sec, err := lp.timed("roofline.memcpy", func() error { copy(dst, f.Data); return nil })
	if err != nil {
		return err
	}
	lp.memcpy = mbOf(f) / sec
	lp.out.put("roofline.memcpy_mbps", lp.memcpy, "MB/s")
	return nil
}

// codecRun is one codec's compress and decompress entry points at an
// absolute bound.
type codecRun struct {
	name       string
	compress   func(f *datagen.Field, abs float64) ([]byte, error)
	decompress func(stream []byte) ([]float64, error)
}

var codecRuns = []codecRun{
	{"sz",
		func(f *datagen.Field, abs float64) ([]byte, error) {
			stream, _, err := sz.Compress(f.Data, f.Dims, sz.DefaultConfig(abs))
			return stream, err
		},
		func(stream []byte) ([]float64, error) { recon, _, err := sz.Decompress(stream); return recon, err }},
	{"szx",
		func(f *datagen.Field, abs float64) ([]byte, error) { return szx.Compress(f.Data, f.Dims, abs) },
		func(stream []byte) ([]float64, error) { recon, _, err := szx.Decompress(stream); return recon, err }},
}

// codecs times both codecs on every sample field at the workload's bound,
// whichever codec the workload itself uses: the other one's row is what a
// switch would buy. The bound audit's kernel is timed on the first
// reconstruction.
func (lp *layerPass) codecs(samples []*datagen.Field) error {
	for _, c := range codecRuns {
		var mb, compSec, decSec, raw, packed float64
		psnrMin := math.Inf(1)
		for _, f := range samples {
			abs := absBound(f.Data, lp.e.w.relEB)
			var stream []byte
			cs, err := lp.timed(c.name+".compress", func() (err error) { stream, err = c.compress(f, abs); return err })
			if err != nil {
				return err
			}
			var recon []float64
			ds, err := lp.timed(c.name+".decompress", func() (err error) { recon, err = c.decompress(stream); return err })
			if err != nil {
				return err
			}
			psnr, err := metrics.PSNR(f.Data, recon)
			if err != nil {
				return err
			}
			dim := fmt.Sprintf("_%dd", len(f.Dims))
			lp.extra.put(c.name+".compress_mbps"+dim, mbOf(f)/cs, "MB/s")
			lp.extra.put(c.name+".decompress_mbps"+dim, mbOf(f)/ds, "MB/s")
			lp.extra.put(c.name+".ratio"+dim, float64(f.RawBytes())/float64(len(stream)), "x")
			lp.extra.put(c.name+".psnr_db"+dim, psnr, "dB")
			if c.name == "sz" && f == samples[0] {
				lp.szSec = cs
			}
			mb, compSec, decSec = mb+mbOf(f), compSec+cs, decSec+ds
			raw, packed = raw+float64(f.RawBytes()), packed+float64(len(stream))
			psnrMin = math.Min(psnrMin, psnr)

			if _, done := lp.out["metrics.max_abs_error_mbps"]; !done {
				audit, err := lp.timed("metrics.max_abs_error", func() error {
					_, err := metrics.MaxAbsErrorSampled(f.Data, recon, 0)
					return err
				})
				if err != nil {
					return err
				}
				lp.out.put("metrics.max_abs_error_mbps", mbOf(f)/audit, "MB/s")
			}
		}
		lp.out.put(c.name+".compress_mbps", mb/compSec, "MB/s")
		lp.out.put(c.name+".decompress_mbps", mb/decSec, "MB/s")
		lp.out.put(c.name+".compress_frac_memcpy", mb/compSec/lp.memcpy, "frac")
		lp.out.put(c.name+".decompress_frac_memcpy", mb/decSec/lp.memcpy, "frac")
		lp.out.put(c.name+".ratio", raw/packed, "x")
		lp.out.put(c.name+".psnr_db", psnrMin, "dB")
	}
	return nil
}

// allocs counts what one warm sz.Compress call allocates per field, after
// codecs has filled the codec's buffer pools.
func (lp *layerPass) allocs(samples []*datagen.Field) error {
	for i, f := range samples {
		cfg := sz.DefaultConfig(absBound(f.Data, lp.e.w.relEB))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := sz.Compress(f.Data, f.Dims, cfg); err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		count := float64(after.Mallocs - before.Mallocs)
		perMB := float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / mbOf(f)
		dim := fmt.Sprintf("_%dd", len(f.Dims))
		lp.extra.put("sz.allocs_per_field"+dim, count, "count")
		lp.extra.put("sz.alloc_mb_per_raw_mb"+dim, perMB, "MB/MB")
		if i == 0 {
			lp.out.put("sz.allocs_per_field", count, "count")
			lp.out.put("sz.alloc_mb_per_raw_mb", perMB, "MB/MB")
		}
	}
	return nil
}

// entropy isolates sz's back half on one field's full quantization-code
// stream — table build, Huffman encode and decode, the lossless backend on
// the Huffman output — and the planner's sampled feature pass. The
// predictor and quantizer are not callable alone, so their share of
// sz.Compress is an estimate: what is left after the timed back half.
func (lp *layerPass) entropy(f *datagen.Field) error {
	cfg := sz.DefaultConfig(absBound(f.Data, lp.e.w.relEB))
	sampled, err := lp.timed("sz.sampled_codes", func() error { _, err := sz.SampledCodes(f.Data, f.Dims, cfg, 100); return err })
	if err != nil {
		return err
	}
	lp.out.put("sz.sampled_codes_mbps", mbOf(f)/sampled, "MB/s")

	codes, err := sz.SampledCodes(f.Data, f.Dims, cfg, 1)
	if err != nil {
		return err
	}
	var syms huffman.SymbolStream
	syms.AppendInts(codes)
	freqs := make([]uint64, 1<<16)
	for _, c := range codes {
		if c >= len(freqs) {
			return fmt.Errorf("quantization code %d outside the 16-bit alphabet", c)
		}
		freqs[c]++
	}
	build, err := lp.timed("huffman.build_table", func() error {
		t, err := huffman.BuildTable(freqs)
		if err != nil {
			return err
		}
		t.Release()
		return nil
	})
	if err != nil {
		return err
	}
	table, err := huffman.BuildTable(freqs)
	if err != nil {
		return err
	}
	defer table.Release()
	bits, err := table.EncodedBitsStream(&syms)
	if err != nil {
		return err
	}
	var encoded []byte
	enc, err := lp.timed("huffman.encode", func() (err error) {
		encoded, err = huffman.EncodeToSized(encoded[:0], &syms, table, bits)
		return err
	})
	if err != nil {
		return err
	}
	var scratch huffman.SymbolStream
	dec, err := lp.timed("huffman.decode", func() error { return huffman.DecodeInto(&scratch, encoded) })
	if err != nil {
		return err
	}
	msyms := float64(len(codes)) / 1e6
	lp.out.put("huffman.build_table_us", build*1e6, "us")
	lp.out.put("huffman.encode_msyms", msyms/enc, "Msym/s")
	lp.out.put("huffman.decode_msyms", msyms/dec, "Msym/s")

	var squeezed []byte
	lc, err := lp.timed("lossless.compress", func() (err error) { squeezed, err = lossless.Compress(encoded, lossless.Deflate); return err })
	if err != nil {
		return err
	}
	ld, err := lp.timed("lossless.decompress", func() error { _, err := lossless.Decompress(squeezed); return err })
	if err != nil {
		return err
	}
	encMB := float64(len(encoded)) / 1e6
	lp.out.put("lossless.compress_mbps", encMB/lc, "MB/s")
	lp.out.put("lossless.decompress_mbps", encMB/ld, "MB/s")
	lp.out.put("lossless.gain", float64(len(encoded))/float64(len(squeezed)), "x")
	lp.out.put("sz.predict_quant_share_est", 1-(build+enc+lc)/lp.szSec, "frac")
	return nil
}

// archives times unframing, unpacking, repacking and reframing the very
// archives the traced campaigns shipped.
func (lp *layerPass) archives(shipped map[string][]byte) error {
	var verify, unpack, pack, wrap, mb float64
	for _, name := range sortedKeys(shipped) {
		framed := shipped[name]
		var payload []byte
		var sums []uint32
		sec, err := lp.timed("integrity.verify", func() (err error) { payload, sums, err = integrity.Verify(framed); return err })
		if err != nil {
			return err
		}
		verify += sec
		var members []grouping.Member
		if sec, err = lp.timed("grouping.unpack", func() (err error) { members, err = grouping.Unpack(payload); return err }); err != nil {
			return err
		}
		unpack += sec
		var packed []byte
		if sec, err = lp.timed("grouping.pack", func() (err error) { packed, err = grouping.Pack(members); return err }); err != nil {
			return err
		}
		pack += sec
		if sec, err = lp.timed("integrity.wrap", func() error { integrity.Wrap(packed, sums); return nil }); err != nil {
			return err
		}
		wrap += sec
		mb += float64(len(framed)) / 1e6
	}
	lp.out.put("integrity.verify_mbps", mb/verify, "MB/s")
	lp.out.put("grouping.unpack_mbps", mb/unpack, "MB/s")
	lp.out.put("grouping.pack_mbps", mb/pack, "MB/s")
	lp.out.put("integrity.wrap_mbps", mb/wrap, "MB/s")
	return nil
}

func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// journal times the three durable records a group costs a journaled
// campaign (packed, sent, acked — each write+fsync) and loading the result.
func (lp *layerPass) journal() error {
	path := filepath.Join(lp.e.tmp, "layer.ocjl")
	defer os.Remove(path)
	w, err := journal.Create(path)
	if err != nil {
		return err
	}
	defer w.Close()
	if err := w.Begin("bench", "pipelined", int(grouping.ByWorldSize), 1, []journal.FieldPlan{{Name: "field"}}, nil); err != nil {
		return err
	}
	cycles := 20
	if lp.e.sc.quick {
		cycles = 3
	}
	secs := make([]float64, cycles)
	begin := time.Now()
	for id := range secs {
		t0 := time.Now()
		if err := w.Group(id, []int{0}, uint64(id), uint32(id), 1); err != nil {
			return err
		}
		if err := w.Sent(id); err != nil {
			return err
		}
		if err := w.Ack(id, uint64(id), []uint64{1}); err != nil {
			return err
		}
		secs[id] = time.Since(t0).Seconds()
	}
	lp.rec.add("layer:journal.group_cycle", lp.e.w.name, lp.root, begin, time.Now())
	if err := w.Done(); err != nil {
		return err
	}
	load, err := lp.timed("journal.load", func() error { _, err := journal.Load(path); return err })
	if err != nil {
		return err
	}
	lp.out.put("journal.group_cycle_us", median(secs)*1e6, "us")
	lp.out.put("journal.load_ms", load*1e3, "ms")
	return nil
}

// gridftp ships the traced campaigns' archives to a loopback server in one
// Client.Transfer, and times a 1-byte session for the fixed cost.
func (lp *layerPass) gridftp(ctx context.Context, shipped map[string][]byte) error {
	dir := filepath.Join(lp.e.tmp, "layer-gridftp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := gridftp.NewServer(dir)
	if err != nil {
		return err
	}
	defer srv.Close()
	client, err := gridftp.Dial(srv.Addr(), 2)
	if err != nil {
		return err
	}
	var files []gridftp.File
	var mb float64
	for _, name := range sortedKeys(shipped) {
		files = append(files, gridftp.File{Name: name, Data: shipped[name]})
		mb += float64(len(shipped[name])) / 1e6
	}
	bulk, err := lp.timed("gridftp.transfer", func() error { _, err := client.Transfer(ctx, files); return err })
	if err != nil {
		return err
	}
	one := []gridftp.File{{Name: "one-byte", Data: []byte{0}}}
	session, err := lp.timed("gridftp.session_setup", func() error { _, err := client.Transfer(ctx, one); return err })
	if err != nil {
		return err
	}
	lp.out.put("gridftp.transfer_mbps", mb/bulk, "MB/s")
	lp.out.put("gridftp.session_setup_ms", session*1e3, "ms")
	return nil
}

// pacing sends one lone archive over the benchmark link and compares the
// wall time it took with the simulated seconds it was charged.
func (lp *layerPass) pacing(ctx context.Context) error {
	sim := &core.SimulatedWANTransport{Link: benchLink(), Timescale: lp.e.sc.timescale}
	payload := make([]byte, 250_000)
	var simSec float64
	wall, err := lp.timed("core.pacing", func() (err error) { simSec, err = sim.Send(ctx, "pacing-probe", payload); return err })
	if err != nil {
		return err
	}
	lp.out.put("core.pacing_error_frac", (wall/lp.e.sc.timescale-simSec)/simSec, "frac")
	return nil
}

// planner trains a quality model on shrunken stand-ins of the workload's
// first fields, for the one configuration the workload runs, and compares
// the plan's predicted ratio with the ratio the campaigns measured. It is
// kept out of every timed loop: the model's time tree regresses measured
// seconds, which would make decisions differ run to run.
func (lp *layerPass) planner(measuredRatio float64) error {
	refs := dataset(lp.e.w.dataset, lp.e.sc.quick)
	if len(refs) > 4 {
		refs = refs[:4]
	}
	for i := range refs {
		refs[i].shrink *= 8
	}
	begin := time.Now()
	train, err := generate(refs, lp.e.seed)
	if err != nil {
		return err
	}
	grid := []planner.Candidate{{RelEB: lp.e.w.relEB, Predictor: sz.PredictorInterp, Codec: lp.e.w.codec}}
	model, err := planner.TrainFromSweep(train, grid, dtree.Params{MaxDepth: 14})
	if err != nil {
		return err
	}
	lp.rec.add("layer:planner.train", lp.e.w.name, lp.root, begin, time.Now())
	var plan *planner.Plan
	build, err := lp.timed("planner.build", func() (err error) {
		plan, err = planner.Build(lp.e.fields, model, planner.Options{Candidates: grid, Workers: 2})
		return err
	})
	if err != nil {
		return err
	}
	lp.out.put("planner.build_ms", build*1e3, "ms")
	lp.out.put("planner.ratio_err_frac", math.Abs(plan.PredRatio-measuredRatio)/measuredRatio, "frac")
	return nil
}

// serve reports the scheduler's own costs. On serve-small they come from
// the traced burst; on the other workloads from a short burst of campaigns
// over the leading rows of the workload's first four fields.
func (lp *layerPass) serve(ctx context.Context, traced *tracedStats) error {
	b := traced.burst
	if b == nil {
		fields := lp.e.fields
		if len(fields) > 4 {
			fields = fields[:4]
		}
		small := make([]*datagen.Field, len(fields))
		for i, f := range fields {
			small[i] = sampleOf(f, 100_000)
		}
		begin := time.Now()
		var err error
		if b, err = runBurst(ctx, lp.e, burstConfig{fields: small, campaigns: 24}); err != nil {
			return err
		}
		lp.rec.add("layer:serve.burst", lp.e.w.name, lp.root, begin, time.Now())
		if len(b.failures) > 0 {
			return fmt.Errorf("serve layer burst: %s", b.failures[0])
		}
	}
	waits := make([]float64, len(b.jobs))
	for i, j := range b.jobs {
		waits[i] = j.queueWait
	}
	shareErr, jainIdx := b.fairness()
	lp.out.put("serve.submit_us", median(b.submitSec)*1e6, "us")
	lp.out.put("serve.queue_wait_p50_ms", median(waits)*1e3, "ms")
	lp.out.put("serve.queue_wait_p90_ms", percentile(waits, 90)*1e3, "ms")
	lp.out.put("serve.share_error", shareErr, "frac")
	lp.out.put("serve.jain", jainIdx, "index")
	return nil
}

package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ocelot/internal/codec"
	"ocelot/internal/datagen"
	"ocelot/internal/metrics"
	"ocelot/internal/sz"
)

// mustCodec resolves a registry codec or fails the test.
func mustCodec(t *testing.T, name string) codec.Codec {
	t.Helper()
	c, err := codec.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// probeCodec wraps the default codec so a test can watch and steer chunk
// compression. It numbers the chunks of its fields in field order, then
// chunk order, and recognises each Compress call's chunk by where its data
// starts. It records the chunks in the order they start and the peak
// number compressing at once, and runs each call through an optional
// around hook that may hold, reorder or fail it.
type probeCodec struct {
	codec.Codec // the default codec: stream format, decode and probes are its own
	name        string
	magic       uint32
	chunkAt     map[*float64]int
	around      func(idx int, compress func() ([]byte, error)) ([]byte, error)

	mu            sync.Mutex
	order         []int
	running, peak int
}

const probeMagic = 0x424F5250 // "PROB" little-endian

var probeSeq atomic.Uint32

func newProbe(t *testing.T, fields []*datagen.Field, chunkBytes int64,
	around func(idx int, compress func() ([]byte, error)) ([]byte, error)) *probeCodec {
	t.Helper()
	n := probeSeq.Add(1)
	p := &probeCodec{Codec: mustCodec(t, ""), name: fmt.Sprintf("probe%d", n), magic: probeMagic + n,
		chunkAt: map[*float64]int{}, around: around}
	for _, f := range fields {
		row := f.NumPoints() / f.Dims[0]
		for _, r := range sz.PlanChunksBytes(f.Dims, chunkBytes, f.ElementSize) {
			p.chunkAt[&f.Data[r.Start*row]] = len(p.chunkAt)
		}
	}
	return p
}

func (p *probeCodec) Name() string  { return p.name }
func (p *probeCodec) Magic() uint32 { return p.magic }

func (p *probeCodec) Compress(data []float64, dims []int, params codec.Params) ([]byte, error) {
	idx, ok := p.chunkAt[&data[0]]
	if !ok {
		idx = -1
	}
	p.mu.Lock()
	p.order = append(p.order, idx)
	p.running++
	p.peak = max(p.peak, p.running)
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.running--
		p.mu.Unlock()
	}()
	compress := func() ([]byte, error) { return p.Codec.Compress(data, dims, params) }
	if p.around == nil {
		return compress()
	}
	return p.around(idx, compress)
}

// started returns the chunks that have begun compressing, in start order.
func (p *probeCodec) started() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]int(nil), p.order...)
}

// gate holds every chunk that reaches it until open, reporting each
// arrival on entered. It opens when the test ends, so a failing test never
// leaves a worker held.
type gate struct {
	entered chan int
	release chan struct{}
	once    sync.Once
}

func newGate(t *testing.T) *gate {
	// More slots than any test has chunks, so reporting never blocks a worker.
	g := &gate{entered: make(chan int, 4096), release: make(chan struct{})}
	t.Cleanup(g.open)
	return g
}

func (g *gate) hold(idx int, compress func() ([]byte, error)) ([]byte, error) {
	g.entered <- idx
	<-g.release
	return compress()
}

func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

// startPool starts a chunk pool that stop closes; the test's end closes it
// too, after any gate made later has opened.
func startPool(t *testing.T, workers, depth int) (*chunkPool, func()) {
	p := newChunkPool(workers, depth)
	stop := sync.OnceFunc(p.close)
	t.Cleanup(stop)
	return p, stop
}

// awaitEnqueued yields until n chunks are either queued on p or started
// on probe. The chunks are already being enqueued, so this only waits for
// the senders to get there.
func awaitEnqueued(p *chunkPool, probe *probeCodec, n int) {
	for len(p.queue)+len(probe.started()) < n {
		runtime.Gosched()
	}
}

// poolWorkers counts live chunk pool worker goroutines.
func poolWorkers() int {
	buf := make([]byte, 1<<22)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*chunkPool).work(")
}

// assertNoPoolWorkers fails unless every pool worker has exited. A worker
// joined by close may still be unwinding its frame, so it is given a few
// scheduler yields to finish.
func assertNoPoolWorkers(t *testing.T) {
	t.Helper()
	for i := 0; poolWorkers() > 0; i++ {
		if i == 1000 {
			t.Fatalf("%d chunk pool workers outlived their campaign", poolWorkers())
		}
		runtime.Gosched()
	}
}

// chunkField is a CESM field and a chunk size that cuts it into n chunks.
func chunkField(t *testing.T, name string, n int) (*datagen.Field, int64) {
	t.Helper()
	f, err := datagen.Generate("CESM", name, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	rows := f.Dims[0]
	chunkBytes := int64((rows + n - 1) / n * (f.NumPoints() / rows) * f.ElementSize)
	if got := len(sz.PlanChunksBytes(f.Dims, chunkBytes, f.ElementSize)); got != n {
		t.Fatalf("%s splits into %d chunks, want %d", name, got, n)
	}
	return f, chunkBytes
}

// compressAsync runs compressField on its own goroutine.
func compressAsync(ctx context.Context, p *chunkPool, f *datagen.Field, cdc codec.Codec, chunkBytes int64) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, _, err := p.compressField(ctx, f, cdc, codec.Params{AbsErrorBound: 1e-3}, chunkBytes)
		done <- err
	}()
	return done
}

// TestChunkFanoutOutOfOrderBitIdentical: when pool workers finish chunks
// in reverse order (each chunk waits for the next one to finish), the
// assembled container must still be byte-identical to the serial
// reference, and every chunk must honour the field-level error bound.
func TestChunkFanoutOutOfOrderBitIdentical(t *testing.T) {
	f, chunkBytes := chunkField(t, "TMQ", 6)
	chunkPts := int(chunkBytes) / f.ElementSize
	cfg := sz.DefaultConfig(1e-3 * metrics.ComputeRange(f.Data).Range)

	finished := make([]chan struct{}, 6)
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	probe := newProbe(t, []*datagen.Field{f}, chunkBytes, func(idx int, compress func() ([]byte, error)) ([]byte, error) {
		if idx+1 < len(finished) {
			<-finished[idx+1]
		}
		defer close(finished[idx])
		return compress()
	})
	p, _ := startPool(t, 8, chunkQueueDepth)

	got, n, err := p.compressField(context.Background(), f, probe, codec.Params{AbsErrorBound: cfg.ErrorBound}, chunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("field split into %d chunks, want 6", n)
	}
	want, _, err := sz.CompressChunked(f.Data, f.Dims, cfg, chunkPts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fan-out container differs from the serial reference")
	}

	// Per-chunk bounds: each extracted chunk reconstructs its slice of the
	// field within the field-level absolute bound.
	chunks, err := sz.SplitChunked(got)
	if err != nil {
		t.Fatal(err)
	}
	plan := sz.PlanChunks(f.Dims, chunkPts)
	if len(chunks) != len(plan) {
		t.Fatalf("%d chunks in container, plan has %d", len(chunks), len(plan))
	}
	row := f.NumPoints() / f.Dims[0]
	for i, c := range chunks {
		recon, _, err := sz.Decompress(c)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		orig := f.Data[plan[i].Start*row : plan[i].End*row]
		maxErr, err := metrics.MaxAbsError(orig, recon)
		if err != nil {
			t.Fatal(err)
		}
		if maxErr > cfg.ErrorBound*(1+1e-9) {
			t.Errorf("chunk %d: error %g exceeds bound %g", i, maxErr, cfg.ErrorBound)
		}
	}
}

// TestChunkFanoutCodecErrorNamesChunk: one chunk's codec error — first,
// middle or last — fails the whole field, and the error names the chunk
// and the field.
func TestChunkFanoutCodecErrorNamesChunk(t *testing.T) {
	for _, bad := range []int{0, 2, 5} {
		t.Run(fmt.Sprintf("chunk%d", bad), func(t *testing.T) {
			f, chunkBytes := chunkField(t, "TMQ", 6)
			errCodec := errors.New("codec refused the chunk")
			probe := newProbe(t, []*datagen.Field{f}, chunkBytes, func(idx int, compress func() ([]byte, error)) ([]byte, error) {
				if idx == bad {
					return nil, errCodec
				}
				return compress()
			})
			p, _ := startPool(t, 3, chunkQueueDepth)
			_, _, err := p.compressField(context.Background(), f, probe, codec.Params{AbsErrorBound: 1e-3}, chunkBytes)
			if !errors.Is(err, errCodec) {
				t.Fatalf("want the codec error, got %v", err)
			}
			if want := fmt.Sprintf("chunk %d of %s", bad, f.ID()); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %q", err, want)
			}
		})
	}
}

// TestChunkPoolBoundsConcurrencyAcrossFields: two fields compressing at
// once share the pool's workers — no more than that many chunks ever
// compress together, however many fields have chunks queued.
func TestChunkPoolBoundsConcurrencyAcrossFields(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			a, chunkBytes := chunkField(t, "TMQ", 6)
			b, _ := chunkField(t, "TMQ", 6)
			g := newGate(t)
			probe := newProbe(t, []*datagen.Field{a, b}, chunkBytes, g.hold)
			p, _ := startPool(t, workers, chunkQueueDepth)

			doneA := compressAsync(context.Background(), p, a, probe, chunkBytes)
			doneB := compressAsync(context.Background(), p, b, probe, chunkBytes)
			for range workers {
				<-g.entered
			}
			awaitEnqueued(p, probe, 12)
			g.open()
			for _, done := range []<-chan error{doneA, doneB} {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			if got := len(probe.started()); got != 12 {
				t.Fatalf("%d chunks compressed, want 12", got)
			}
			if probe.peak != workers {
				t.Fatalf("%d chunks compressed at once on a %d-worker pool", probe.peak, workers)
			}
		})
	}
}

// TestChunkPoolStartsChunksInEnqueueOrder: on one worker, chunks start in
// the order they were enqueued — all of one field's chunks before those of
// a field enqueued after it, not interleaved.
func TestChunkPoolStartsChunksInEnqueueOrder(t *testing.T) {
	a, chunkBytes := chunkField(t, "TMQ", 6)
	b, _ := chunkField(t, "TMQ", 6)
	g := newGate(t)
	probe := newProbe(t, []*datagen.Field{a, b}, chunkBytes, g.hold)
	p, _ := startPool(t, 1, chunkQueueDepth)

	doneA := compressAsync(context.Background(), p, a, probe, chunkBytes)
	<-g.entered
	awaitEnqueued(p, probe, 6)
	doneB := compressAsync(context.Background(), p, b, probe, chunkBytes)
	awaitEnqueued(p, probe, 12)
	g.open()
	for _, done := range []<-chan error{doneA, doneB} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	got := probe.started()
	for i, idx := range got {
		if idx != i {
			t.Fatalf("chunks started in order %v, want 0..11", got)
		}
	}
}

// TestChunkPoolCancelledTaskSkipsCompress: a task whose ctx is done by the
// time a worker takes it returns context.Canceled and never compresses, so
// a cancelled field's queued chunks drain without work.
func TestChunkPoolCancelledTaskSkipsCompress(t *testing.T) {
	f, chunkBytes := chunkField(t, "TMQ", 1)
	probe := newProbe(t, []*datagen.Field{f}, chunkBytes, nil)
	p, stop := startPool(t, 1, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b := newFieldChunks(1)
	p.queue <- chunkTask{ctx: ctx, data: f.Data, dims: f.Dims, cdc: probe,
		params: codec.Params{AbsErrorBound: 1e-3}, rng: sz.ChunkRange{End: f.Dims[0]}, field: b}
	<-b.done
	if !errors.Is(b.errs[0], context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", b.errs[0])
	}
	stop()
	if got := probe.started(); len(got) != 0 {
		t.Fatalf("cancelled chunk compressed: %v", got)
	}
}

// TestChunkFanoutCancellationMidField: cancelling while one chunk is held
// mid-compress returns context.Canceled without waiting for it, and the
// chunks still queued at the cancel are never compressed.
func TestChunkFanoutCancellationMidField(t *testing.T) {
	f, chunkBytes := chunkField(t, "CLDHGH", 8)
	g := newGate(t)
	probe := newProbe(t, []*datagen.Field{f}, chunkBytes, g.hold)
	p, stop := startPool(t, 1, chunkQueueDepth)

	ctx, cancel := context.WithCancel(context.Background())
	done := compressAsync(ctx, p, f, probe, chunkBytes)
	<-g.entered
	awaitEnqueued(p, probe, 8)
	cancel()
	// The gate still holds chunk 0: returning proves compressField did not
	// wait for it.
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	g.open()
	stop() // drains the queue
	if got := probe.started(); len(got) != 1 {
		t.Fatalf("chunks %v started; only chunk 0 began before the cancel", got)
	}
}

// TestChunkPoolEnqueueHonoursCancel: a field blocked enqueueing onto a full
// queue returns context.Canceled on cancel, while the one worker is still
// held on an earlier chunk.
func TestChunkPoolEnqueueHonoursCancel(t *testing.T) {
	f, chunkBytes := chunkField(t, "TMQ", 6)
	g := newGate(t)
	probe := newProbe(t, []*datagen.Field{f}, chunkBytes, g.hold)
	p, stop := startPool(t, 1, 1)

	ctx, cancel := context.WithCancel(context.Background())
	done := compressAsync(ctx, p, f, probe, chunkBytes)
	<-g.entered // chunk 0 held by the worker
	awaitEnqueued(p, probe, 2)
	cancel() // chunk 1 fills the queue; chunk 2's enqueue is blocked
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	g.open()
	stop()
	if got := probe.started(); len(got) != 1 {
		t.Fatalf("chunks %v started; only chunk 0 began before the cancel", got)
	}
}

// TestChunkedCampaignWorkerCountInvariance: the full pipelined campaign
// with chunk fan-out must produce bit-identical decompressed output for 1,
// 2, 4 and 8 pool workers, split every field, and stay inside the bound.
func TestChunkedCampaignWorkerCountInvariance(t *testing.T) {
	fields := pipelineFields(t, 6, 28)
	run := func(t *testing.T, workers int) *CampaignResult {
		res, err := Run(context.Background(), fields, CampaignSpec{
			RelErrorBound:   1e-3,
			Workers:         4,
			GroupParam:      3,
			ChunkMB:         float64(fields[0].RawBytes()) / 4 / 1e6,
			CompressWorkers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	solo := run(t, 1)
	if solo.Chunks <= solo.Files {
		t.Fatalf("chunking did not split fields: %d chunks for %d files", solo.Chunks, solo.Files)
	}
	if solo.ReconDigest == 0 {
		t.Fatal("fan-out campaign reported no reconstruction digest")
	}
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			wide := run(t, workers)
			if solo.Chunks != wide.Chunks {
				t.Fatalf("chunk plan changed with workers: %d vs %d", solo.Chunks, wide.Chunks)
			}
			if solo.ReconDigest != wide.ReconDigest {
				t.Fatalf("decompressed output differs across worker counts: %x vs %x",
					solo.ReconDigest, wide.ReconDigest)
			}
			if wide.CompressWorkers != workers {
				t.Fatalf("CompressWorkers = %d, want %d", wide.CompressWorkers, workers)
			}
			if wide.MaxRelError > 1e-3*(1+1e-9) {
				t.Fatalf("max rel error %g exceeds bound", wide.MaxRelError)
			}
		})
	}
	assertNoPoolWorkers(t)
}

// TestChunkedCampaignDisabledByDefault: without ChunkMB a campaign runs
// monolithic and leaves the fan-out accounting empty.
func TestChunkedCampaignDisabledByDefault(t *testing.T) {
	fields := pipelineFields(t, 4, 32)
	res, err := Run(context.Background(), fields, CampaignSpec{
		RelErrorBound: 1e-3, Workers: 2, GroupParam: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 0 || res.CompressWorkers != 0 {
		t.Fatalf("fan-out accounting populated without ChunkMB: chunks=%d workers=%d",
			res.Chunks, res.CompressWorkers)
	}
	if res.ReconDigest != 0 {
		t.Fatal("monolithic campaign paid the recon-digest pass")
	}
}

// TestChunkedCampaignCancellationPromptness: cancelling a chunked campaign
// while both pool workers hold a chunk returns context.Canceled, none of
// the deep chunk backlog starts compressing after the cancel, and no pool
// worker outlives Run.
func TestChunkedCampaignCancellationPromptness(t *testing.T) {
	fields := pipelineFields(t, 8, 24)
	chunkMB := float64(fields[0].RawBytes()) / 24 / 1e6
	g := newGate(t)
	probe := newProbe(t, fields, int64(chunkMB*1e6), g.hold)
	codec.Register(probe)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, fields, CampaignSpec{
			RelErrorBound: 1e-3, Workers: 4, GroupParam: 4, Codec: probe.Name(),
			ChunkMB: chunkMB, CompressWorkers: 2,
		})
		done <- err
	}()
	<-g.entered
	<-g.entered
	cancel()
	atCancel := len(probe.started())
	g.open()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if after := len(probe.started()) - atCancel; after != 0 {
		t.Fatalf("%d chunks started compressing after the cancel", after)
	}
	assertNoPoolWorkers(t)
}

// TestChunkedCampaignJoinsPool: however a chunked campaign ends — finished,
// cancelled before it starts, or failed by a chunk's codec error, which
// fails it the way a monolithic codec error does — Run joins every pool
// worker before it returns.
func TestChunkedCampaignJoinsPool(t *testing.T) {
	fields := pipelineFields(t, 4, 32)
	chunkMB := float64(fields[0].RawBytes()) / 3 / 1e6
	errCodec := errors.New("codec refused the chunk")
	for _, tc := range []struct {
		name    string
		cancel  bool
		failAt  int // chunk whose compression fails; -1 = none
		wantErr error
	}{
		{"finished", false, -1, nil},
		{"cancelled", true, -1, context.Canceled},
		{"codec-error", false, 4, errCodec},
	} {
		t.Run(tc.name, func(t *testing.T) {
			probe := newProbe(t, fields, int64(chunkMB*1e6), func(idx int, compress func() ([]byte, error)) ([]byte, error) {
				if idx == tc.failAt {
					return nil, errCodec
				}
				return compress()
			})
			codec.Register(probe)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel {
				cancel()
			}
			res, err := Run(ctx, fields, CampaignSpec{
				RelErrorBound: 1e-3, Workers: 2, GroupParam: 2, Codec: probe.Name(),
				ChunkMB: chunkMB, CompressWorkers: 3,
			})
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("want %v, got %v", tc.wantErr, err)
			}
			if tc.failAt >= 0 && !strings.Contains(err.Error(), "chunk ") {
				t.Fatalf("codec error %q does not name the chunk", err)
			}
			if err == nil && res.Chunks <= res.Files {
				t.Fatalf("chunk fan-out inactive: %d chunks for %d files", res.Chunks, res.Files)
			}
			assertNoPoolWorkers(t)
		})
	}
}

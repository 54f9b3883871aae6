package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ocelot/internal/codec"
	"ocelot/internal/datagen"
	"ocelot/internal/grouping"
	"ocelot/internal/integrity"
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

// stageGoroutines counts live goroutines the pipeline package started:
// every stage worker, feeder and closer of a campaign's stage graph.
func stageGoroutines() int {
	buf := make([]byte, 1<<22)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by ocelot/internal/pipeline.")
}

// assertNoStageGoroutines fails unless every stage goroutine has exited. A
// goroutine Run joined may still be unwinding its frame, so it is given a
// few scheduler yields to finish.
func assertNoStageGoroutines(t *testing.T) {
	t.Helper()
	for i := 0; stageGoroutines() > 0; i++ {
		if i == 1000 {
			t.Fatalf("%d stage goroutines outlived their campaign", stageGoroutines())
		}
		runtime.Gosched()
	}
}

// chunkField is a CESM field and the ChunkMB that cuts it into n chunks.
// The chunk size carries half an element of slack, so the float round trip
// through ChunkMB cannot move the plan.
func chunkField(t *testing.T, name string, n int) (*datagen.Field, float64) {
	t.Helper()
	f, err := datagen.Generate("CESM", name, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	rows := f.Dims[0]
	chunkMB := float64((rows+n-1)/n*(f.NumPoints()/rows)*f.ElementSize+f.ElementSize/2) / 1e6
	if got := len(sz.PlanChunksBytes(f.Dims, int64(chunkMB*1e6), f.ElementSize)); got != n {
		t.Fatalf("%s splits into %d chunks, want %d", name, got, n)
	}
	return f, chunkMB
}

// runChunked runs a chunked campaign of fields through codec cdc and
// returns its result and error.
func runChunked(ctx context.Context, fields []*datagen.Field, cdc codec.Codec, workers int, chunkMB float64, tr Transport) (*CampaignResult, error) {
	return Run(ctx, fields, CampaignSpec{RelErrorBound: 1e-3, Workers: workers, GroupParam: int64(len(fields)),
		Codec: cdc.Name(), ChunkMB: chunkMB, Transport: tr})
}

// captureTransport keeps a copy of every archive it is sent, by name.
type captureTransport struct {
	mu   sync.Mutex
	sent map[string][]byte
}

func (c *captureTransport) Name() string { return "capture" }

func (c *captureTransport) Send(ctx context.Context, name string, data []byte) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sent[name] = append([]byte(nil), data...)
	return 0, nil
}

// TestChunkedCampaignOutOfOrderBitIdentical: when a field's chunks finish
// in reverse order (each waits for the next one to finish), the container
// the campaign ships must still be byte-identical to the serial reference,
// and every chunk must honour the field-level error bound.
func TestChunkedCampaignOutOfOrderBitIdentical(t *testing.T) {
	f, chunkMB := chunkField(t, "TMQ", 6)
	finished := make([]chan struct{}, 6)
	for i := range finished {
		finished[i] = make(chan struct{})
	}
	probe := newProbe(t, []*datagen.Field{f}, int64(chunkMB*1e6), func(idx int, compress func() ([]byte, error)) ([]byte, error) {
		if idx+1 < len(finished) {
			<-finished[idx+1]
		}
		defer close(finished[idx])
		return compress()
	})
	codec.Register(probe)
	tr := &captureTransport{sent: map[string][]byte{}}
	res, err := runChunked(context.Background(), []*datagen.Field{f}, probe, 6, chunkMB, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 6 {
		t.Fatalf("field split into %d chunks, want 6", res.Chunks)
	}
	if len(tr.sent) != 1 {
		t.Fatalf("%d archives sent, want 1", len(tr.sent))
	}
	var members []grouping.Member
	for _, arch := range tr.sent {
		payload, _, err := integrity.Verify(arch)
		if err != nil {
			t.Fatal(err)
		}
		if members, err = grouping.Unpack(payload); err != nil {
			t.Fatal(err)
		}
	}
	got := members[0].Data
	chunkPts := int(int64(chunkMB*1e6)) / f.ElementSize
	absEB := sz.Config{ErrorBound: 1e-3, BoundMode: sz.BoundRelative}.AbsoluteBound(f.Data)
	want, _, err := sz.CompressChunked(f.Data, f.Dims, sz.DefaultConfig(absEB), chunkPts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("shipped container differs from the serial reference")
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
		if maxErr > absEB*(1+1e-9) {
			t.Errorf("chunk %d: error %g exceeds bound %g", i, maxErr, absEB)
		}
	}
}

// TestChunkedCampaignCodecErrorNamesChunk: one chunk's codec error — first,
// middle or last — fails the campaign, and the error names the chunk and
// the field.
func TestChunkedCampaignCodecErrorNamesChunk(t *testing.T) {
	for _, bad := range []int{0, 2, 5} {
		t.Run(fmt.Sprintf("chunk%d", bad), func(t *testing.T) {
			f, chunkMB := chunkField(t, "TMQ", 6)
			errCodec := errors.New("codec refused the chunk")
			probe := newProbe(t, []*datagen.Field{f}, int64(chunkMB*1e6), func(idx int, compress func() ([]byte, error)) ([]byte, error) {
				if idx == bad {
					return nil, errCodec
				}
				return compress()
			})
			codec.Register(probe)
			_, err := runChunked(context.Background(), []*datagen.Field{f}, probe, 3, chunkMB, nil)
			if !errors.Is(err, errCodec) {
				t.Fatalf("want the codec error, got %v", err)
			}
			if want := fmt.Sprintf("compress %s: chunk %d:", f.ID(), bad); !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %q", err, want)
			}
		})
	}
}

// TestChunkedCampaignBoundsConcurrency: two fields' chunks share the
// compress stage's workers — with every worker held mid-chunk, no further
// chunk starts, and no more than Workers chunks ever compress together.
func TestChunkedCampaignBoundsConcurrency(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			a, chunkMB := chunkField(t, "TMQ", 6)
			b, _ := chunkField(t, "CLDHGH", 6)
			g := newGate(t)
			probe := newProbe(t, []*datagen.Field{a, b}, int64(chunkMB*1e6), g.hold)
			codec.Register(probe)
			done := make(chan error, 1)
			go func() {
				_, err := runChunked(context.Background(), []*datagen.Field{a, b}, probe, workers, chunkMB, nil)
				done <- err
			}()
			for range workers {
				<-g.entered
			}
			select {
			case idx := <-g.entered:
				t.Fatalf("chunk %d started while all %d workers were held", idx, workers)
			case <-time.After(20 * time.Millisecond):
			}
			g.open()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if got := len(probe.started()); got != 12 {
				t.Fatalf("%d chunks compressed, want 12", got)
			}
			if probe.peak != workers {
				t.Fatalf("%d chunks compressed at once on %d workers", probe.peak, workers)
			}
		})
	}
}

// TestChunkedCampaignStartsChunksInFieldOrder: on one worker, chunks start
// in field order, then chunk order — all of one field's chunks before
// those of the next field, not interleaved.
func TestChunkedCampaignStartsChunksInFieldOrder(t *testing.T) {
	a, chunkMB := chunkField(t, "TMQ", 6)
	b, _ := chunkField(t, "CLDHGH", 6)
	probe := newProbe(t, []*datagen.Field{a, b}, int64(chunkMB*1e6), nil)
	codec.Register(probe)
	if _, err := runChunked(context.Background(), []*datagen.Field{a, b}, probe, 1, chunkMB, nil); err != nil {
		t.Fatal(err)
	}
	got := probe.started()
	if len(got) != 12 {
		t.Fatalf("chunks started in order %v, want 0..11", got)
	}
	for i, idx := range got {
		if idx != i {
			t.Fatalf("chunks started in order %v, want 0..11", got)
		}
	}
}

// TestChunkedCampaignCancelledChunkSkipsCompress: a chunk the compress
// stage takes once the campaign is cancelled returns context.Canceled and
// never reaches the codec, so a cancelled campaign's backlog drains
// without work.
func TestChunkedCampaignCancelledChunkSkipsCompress(t *testing.T) {
	f, chunkMB := chunkField(t, "TMQ", 6)
	probe := newProbe(t, []*datagen.Field{f}, int64(chunkMB*1e6), nil)
	codec.Register(probe)
	h := &Campaign{fields: []*datagen.Field{f}, now: time.Now, led: newLedger(nil)}
	c, err := prepare(h, CampaignSpec{RelErrorBound: 1e-3, Codec: probe.Name(), ChunkMB: chunkMB}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	items := c.items()
	if len(items) != 6 {
		t.Fatalf("%d compress items planned, want 6", len(items))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, it := range items {
		if _, err := c.compress(ctx, it); !errors.Is(err, context.Canceled) {
			t.Fatalf("chunk %d: want context.Canceled, got %v", it.rng.Index, err)
		}
	}
	if got := probe.started(); len(got) != 0 {
		t.Fatalf("cancelled chunks compressed: %v", got)
	}
}

// TestChunkedCampaignCancelMidField: cancelling while one chunk in the
// middle of a field is held mid-compress returns context.Canceled once that
// chunk's codec call returns, and the field's later chunks never compress.
func TestChunkedCampaignCancelMidField(t *testing.T) {
	f, chunkMB := chunkField(t, "CLDHGH", 8)
	g := newGate(t)
	probe := newProbe(t, []*datagen.Field{f}, int64(chunkMB*1e6), func(idx int, compress func() ([]byte, error)) ([]byte, error) {
		if idx == 3 {
			return g.hold(idx, compress)
		}
		return compress()
	})
	codec.Register(probe)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := runChunked(ctx, []*datagen.Field{f}, probe, 1, chunkMB, nil)
		done <- err
	}()
	<-g.entered
	cancel()
	g.open()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled campaign did not return")
	}
	if got := probe.started(); !slices.Equal(got, []int{0, 1, 2, 3}) {
		t.Fatalf("chunks %v started; only chunks 0..3 began before the cancel", got)
	}
	assertNoStageGoroutines(t)
}

// TestChunkedCampaignWorkerCountInvariance: the full pipelined campaign
// with chunk fan-out must produce bit-identical decompressed output for 1,
// 2, 4 and 8 workers (the compress stage, which takes chunks as its items,
// is Workers wide), split every field, and stay inside the bound.
func TestChunkedCampaignWorkerCountInvariance(t *testing.T) {
	fields := pipelineFields(t, 6, 28)
	run := func(t *testing.T, workers int) *CampaignResult {
		res, err := Run(context.Background(), fields, CampaignSpec{
			RelErrorBound: 1e-3,
			Workers:       workers,
			GroupParam:    3,
			ChunkMB:       float64(fields[0].RawBytes()) / 4 / 1e6,
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
			if wide.MaxRelError > 1e-3*(1+1e-9) {
				t.Fatalf("max rel error %g exceeds bound", wide.MaxRelError)
			}
		})
	}
	assertNoStageGoroutines(t)
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
	if res.Chunks != 0 {
		t.Fatalf("fan-out accounting populated without ChunkMB: chunks=%d", res.Chunks)
	}
	if res.ReconDigest != 0 {
		t.Fatal("monolithic campaign paid the recon-digest pass")
	}
}

// TestChunkedCampaignCancellationPromptness: cancelling a chunked campaign
// while both compress workers hold a chunk returns context.Canceled, none
// of the deep chunk backlog starts compressing after the cancel, and no
// stage goroutine outlives Run.
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
			RelErrorBound: 1e-3, Workers: 2, GroupParam: 4, Codec: probe.Name(),
			ChunkMB: chunkMB,
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
	assertNoStageGoroutines(t)
}

// TestChunkedCampaignJoinsStageGoroutines: however a chunked campaign ends
// — finished, cancelled before it starts, or failed by a chunk's codec
// error, which fails it the way a monolithic codec error does — Run joins
// every stage goroutine before it returns.
func TestChunkedCampaignJoinsStageGoroutines(t *testing.T) {
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
				RelErrorBound: 1e-3, Workers: 3, GroupParam: 2, Codec: probe.Name(),
				ChunkMB: chunkMB,
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
			assertNoStageGoroutines(t)
		})
	}
}

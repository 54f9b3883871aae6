package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"ocelot/internal/codec"
	"ocelot/internal/datagen"
	"ocelot/internal/obs"
	"ocelot/internal/sz"
)

// chunkQueueDepth bounds the chunk pool's backlog. It holds many fields'
// chunks, so a field's chunks enqueue back to back and drain in order
// rather than interleaving with the chunks of fields enqueued after it.
const chunkQueueDepth = 1024

// chunkTask is one chunk of one field. The data slice is the WHOLE field;
// the range selects the chunk, so the pool moves no copies. The codec
// travels with the task, so one pool serves chunks of any registered codec.
type chunkTask struct {
	ctx    context.Context // the submitting compress stage's; carries its span
	data   []float64
	dims   []int
	cdc    codec.Codec
	params codec.Params // carries the field-level absolute bound
	rng    sz.ChunkRange
	field  *fieldChunks
}

// fieldChunks collects one field's chunk results by chunk index: each
// worker fills its own chunk's slot, and the last to finish closes done.
type fieldChunks struct {
	streams [][]byte
	errs    []error
	left    atomic.Int64
	done    chan struct{}
}

func newFieldChunks(n int) *fieldChunks {
	b := &fieldChunks{streams: make([][]byte, n), errs: make([]error, n), done: make(chan struct{})}
	b.left.Store(int64(n))
	if n == 0 {
		close(b.done) // a shapeless field plans no chunks; AssembleChunks reports it
	}
	return b
}

func (b *fieldChunks) finish(idx int, stream []byte, err error) {
	b.streams[idx], b.errs[idx] = stream, err
	if b.left.Add(-1) == 0 {
		close(b.done)
	}
}

// chunkPool is the campaign's chunk-parallel compression: one FIFO queue
// drained by a fixed number of workers. The worker count bounds
// compression parallelism across all fields at once.
type chunkPool struct {
	queue chan chunkTask
	wg    sync.WaitGroup
}

// newChunkPool starts workers goroutines draining a queue of depth tasks.
func newChunkPool(workers, depth int) *chunkPool {
	p := &chunkPool{queue: make(chan chunkTask, depth)}
	p.wg.Add(workers)
	for range workers {
		go p.work()
	}
	return p
}

// close stops the workers once the queue drains and joins them. Every
// compressField call must have returned; chunks a cancelled field left
// queued drain without compressing, so this never waits on abandoned work.
func (p *chunkPool) close() {
	close(p.queue)
	p.wg.Wait()
}

func (p *chunkPool) work() {
	defer p.wg.Done()
	for t := range p.queue {
		stream, err := t.run()
		t.field.finish(t.rng.Index, stream, err)
	}
}

// run compresses the task's chunk as a standalone field under the
// FIELD-level absolute bound (relative bounds were resolved against the
// whole field upstream — decomposition never changes the guarantee). A
// task whose ctx is already done returns its error without compressing.
func (t chunkTask) run() ([]byte, error) {
	if err := t.ctx.Err(); err != nil {
		return nil, err
	}
	_, span := obs.StartSpan(t.ctx, "chunk",
		obs.Int("start", int64(t.rng.Start)), obs.Int("end", int64(t.rng.End)))
	defer span.End()
	row := 1
	for _, d := range t.dims[1:] {
		row *= d
	}
	subDims := append([]int(nil), t.dims...)
	subDims[0] = t.rng.End - t.rng.Start
	return t.cdc.Compress(t.data[t.rng.Start*row:t.rng.End*row], subDims, t.params)
}

// compressField chunk-decomposes one field (sz.PlanChunksBytes — the same
// conversion the planner's chunk-count prediction uses), enqueues every
// chunk, waits for all of them — workers may finish them in any order —
// and assembles the framed container by chunk index. The container is
// therefore byte-identical for any worker count or completion order: only
// the chunk plan (shape × chunk size) determines the bytes. Returns the
// container and the chunk count.
func (p *chunkPool) compressField(ctx context.Context, f *datagen.Field, cdc codec.Codec, params codec.Params, chunkBytes int64) ([]byte, int, error) {
	ranges := sz.PlanChunksBytes(f.Dims, chunkBytes, f.ElementSize)
	b := newFieldChunks(len(ranges))
	for _, r := range ranges {
		select {
		case p.queue <- chunkTask{ctx: ctx, data: f.Data, dims: f.Dims, cdc: cdc, params: params, rng: r, field: b}:
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		}
	}
	select {
	case <-b.done:
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	for i, err := range b.errs {
		if err != nil {
			return nil, 0, fmt.Errorf("core: chunk %d of %s: %w", i, f.ID(), err)
		}
	}
	stream, err := sz.AssembleChunks(b.streams)
	if err != nil {
		return nil, 0, fmt.Errorf("core: assemble %s: %w", f.ID(), err)
	}
	return stream, len(ranges), nil
}

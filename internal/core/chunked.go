package core

import (
	"context"
	"errors"
	"fmt"

	"ocelot/internal/codec"
	"ocelot/internal/datagen"
	"ocelot/internal/faas"
	"ocelot/internal/obs"
	"ocelot/internal/sz"
)

// fnCompressChunk is the chunk-compression function registered on the
// fan-out fabric.
const fnCompressChunk = "ocelot.compressChunk"

// chunkFanoutEndpoint is the name of the endpoint the campaign deploys for
// chunk-parallel compression (the paper's funcX source endpoint).
const chunkFanoutEndpoint = "compress-pool"

// chunkPayload is one chunk-compression task shipped through the fabric.
// The data slice is the WHOLE field; the range selects the chunk, so the
// fabric moves no copies (in-process endpoints share memory, matching the
// paper's compress-at-the-source placement). The codec travels with the
// task, so one endpoint serves chunks of any registered codec.
type chunkPayload struct {
	data   []float64
	dims   []int
	cdc    codec.Codec
	params codec.Params // carries the field-level absolute bound
	rng    sz.ChunkRange
}

// compress encodes the task's chunk. The chunk is a contiguous row block,
// so it compresses as a standalone field under the FIELD-level absolute
// bound (relative bounds were resolved against the whole field upstream —
// decomposition never changes the guarantee).
func (p chunkPayload) compress() ([]byte, error) {
	row := 1
	for _, d := range p.dims[1:] {
		row *= d
	}
	sub := p.data[p.rng.Start*row : p.rng.End*row]
	subDims := append([]int(nil), p.dims...)
	subDims[0] = p.rng.End - p.rng.Start
	return p.cdc.Compress(sub, subDims, p.params)
}

// chunkFanout owns the in-process funcX-style fabric the campaign engine
// fans chunk compression out on: one service, one deployed endpoint whose
// worker count is the campaign's compression parallelism, and the
// registered chunk-compression function. The endpoint's warming model
// applies — the first chunk executed on the endpoint pays the configured
// cold-start cost (warming is per function per endpoint, not per worker),
// every later chunk the warm dispatch cost.
type chunkFanout struct {
	svc *faas.Service
	ep  *faas.Endpoint
}

// newChunkFanout deploys a fresh fabric with the given endpoint tuning.
func newChunkFanout(cfg faas.EndpointConfig) (*chunkFanout, error) {
	svc := faas.NewService()
	if err := svc.RegisterFunction(fnCompressChunk, func(ctx context.Context, payload interface{}) (interface{}, error) {
		p, ok := payload.(chunkPayload)
		if !ok {
			return nil, errors.New("ocelot.compressChunk: bad payload")
		}
		// The fabric hands the function the submitter's context, which
		// carries the compress stage's span — each chunk task traces as a
		// child of its field's compress span.
		_, span := obs.StartSpan(ctx, "chunk",
			obs.Int("start", int64(p.rng.Start)), obs.Int("end", int64(p.rng.End)))
		defer span.End()
		return p.compress()
	}); err != nil {
		return nil, err
	}
	ep, err := svc.DeployEndpoint(chunkFanoutEndpoint, cfg)
	if err != nil {
		return nil, err
	}
	return &chunkFanout{svc: svc, ep: ep}, nil
}

// close tears the fabric down. Abort before Close so a campaign unwinding
// from an error or cancellation is not held hostage by a deep chunk
// backlog: queued chunks finish with ErrEndpointClosed instead of
// compressing (on a clean run the queue is already empty and the abort is
// a no-op).
func (cf *chunkFanout) close() {
	if cf != nil && cf.ep != nil {
		cf.ep.Abort()
		cf.ep.Close()
	}
}

// compressField chunk-decomposes one field (sz.PlanChunksBytes — the same
// conversion the planner's chunk-count prediction uses), batch-submits
// every chunk to the endpoint (funcX batching), waits for completions —
// workers may finish chunks in any order — and assembles the framed
// container by chunk index. The container is therefore byte-identical for
// any worker count or completion order: only the chunk plan (shape × chunk
// size) determines the bytes. Task records are forgotten once collected so
// the fabric does not hold a second copy of every compressed chunk for the
// campaign's lifetime. Returns the container and the number of chunks.
func (cf *chunkFanout) compressField(ctx context.Context, f *datagen.Field, cdc codec.Codec, params codec.Params, chunkBytes int64) ([]byte, int, error) {
	ranges := sz.PlanChunksBytes(f.Dims, chunkBytes, f.ElementSize)
	payloads := make([]interface{}, len(ranges))
	for i, r := range ranges {
		payloads[i] = chunkPayload{data: f.Data, dims: f.Dims, cdc: cdc, params: params, rng: r}
	}
	// Context-aware submission: a cancelled campaign must not keep feeding
	// the endpoint backlog from behind a full queue.
	ids, err := cf.svc.SubmitBatchContext(ctx, chunkFanoutEndpoint, fnCompressChunk, payloads)
	defer cf.svc.Forget(ids...)
	if err != nil {
		return nil, 0, fmt.Errorf("core: submit chunks for %s: %w", f.ID(), err)
	}
	results, err := cf.svc.WaitAll(ctx, ids)
	if err != nil {
		return nil, 0, fmt.Errorf("core: compress chunks for %s: %w", f.ID(), err)
	}
	chunks := make([][]byte, len(results))
	for i, res := range results {
		stream, ok := res.([]byte)
		if !ok || len(stream) == 0 {
			return nil, 0, fmt.Errorf("core: chunk %d of %s returned no stream", i, f.ID())
		}
		chunks[i] = stream
	}
	stream, err := sz.AssembleChunks(chunks)
	if err != nil {
		return nil, 0, fmt.Errorf("core: assemble %s: %w", f.ID(), err)
	}
	return stream, len(ranges), nil
}

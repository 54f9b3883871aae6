package core

import (
	"context"
	"fmt"

	"ocelot/internal/codec"
	"ocelot/internal/obs"
	"ocelot/internal/sz"
)

// resolveBound is the campaign's one relative-to-absolute bound resolution.
// It goes through sz.Config.AbsoluteBound, so a degenerate value range
// (constant, NaN or ±Inf) falls back to 1 exactly as the codecs' own
// relative mode does; the range the audit reports errors against is derived
// from the resolved bound, so the two cannot disagree.
func (j *fieldJob) resolveBound() {
	j.absEB = sz.Config{ErrorBound: j.relEB, BoundMode: sz.BoundRelative}.AbsoluteBound(j.field.Data)
	j.valueRange = j.absEB / j.relEB
}

// compress is the compress stage: one field in, its stream out.
func (c *campaign) compress(ctx context.Context, i int) (compressedItem, error) {
	j := &c.jobs[i]
	f := j.field
	ctx, span := c.spec.Obs.StartSpan(ctx, "compress",
		obs.String("field", f.ID()), obs.String("codec", j.codec.Name()))
	defer span.End()
	j.resolveBound()
	params := codec.Params{AbsErrorBound: j.absEB, PredictorHint: j.pred.Hint()}
	var stream []byte
	var err error
	if c.pool != nil {
		// Chunk fan-out: this stage worker only enqueues the field's chunks
		// and assembles the results; the pool's workers are the actual
		// compression parallelism.
		var n int
		stream, n, err = c.pool.compressField(ctx, f, j.codec, params, c.spec.chunkBytes())
		c.h.led.chunks.add(int64(n))
		span.Annotate(obs.Int("chunks", int64(n)))
	} else {
		stream, err = j.codec.Compress(f.Data, f.Dims, params)
	}
	if err != nil {
		return compressedItem{}, fmt.Errorf("compress %s: %w", f.ID(), err)
	}
	c.h.led.compressedBytes.add(int64(len(stream)))
	span.Annotate(obs.Int("bytes", int64(len(stream))))
	return compressedItem{idx: i, stream: stream}, nil
}

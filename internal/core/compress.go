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
	if c.fan != nil {
		// Chunk fan-out: this stage worker only batches chunk tasks onto
		// the endpoint and assembles the completions; the endpoint's worker
		// pool is the actual compression parallelism. The chunk tasks carry
		// the field's codec. Transient fabric failures retry under the
		// campaign policy.
		var n, r int
		r, err = c.spec.Retry.Do(ctx, func(ctx context.Context) error {
			var cerr error
			stream, n, cerr = c.fan.compressField(ctx, f, j.codec, params, c.spec.chunkBytes())
			return cerr
		})
		c.h.led.retries.add(int64(r))
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

package core

import (
	"context"
	"fmt"

	"ocelot/internal/codec"
	"ocelot/internal/datagen"
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

// items is the compress stage's input: the active fields in order, each
// whole or chunk by chunk.
func (c *campaign) items() []chunk {
	var items []chunk
	for _, i := range c.active {
		if c.jobs[i].chunks == nil {
			items = append(items, chunk{idx: i})
		}
		for _, r := range c.jobs[i].chunks {
			items = append(items, chunk{idx: i, rng: r})
		}
	}
	return items
}

// compress is the compress stage: one item in, its stream out. A whole
// field compresses as one stream; a chunk compresses as a standalone field
// under the FIELD-level absolute bound (relative bounds resolve against
// the whole field, so decomposition never changes the guarantee), and the
// pack stage assembles its field's container. An item taken after the
// campaign was cancelled returns without compressing.
func (c *campaign) compress(ctx context.Context, it chunk) (compressedItem, error) {
	if err := ctx.Err(); err != nil {
		return compressedItem{}, err
	}
	j := &c.jobs[it.idx]
	f := j.field
	name, raw := "compress", f.RawBytes()
	if j.chunks != nil {
		name, raw = "chunk", it.rng.NumPoints(f.Dims)*f.ElementSize
	}
	_, span := c.spec.Obs.StartSpan(ctx, name, obs.String("field", f.ID()), obs.String("codec", j.codec.Name()))
	defer span.End()
	j.bound.Do(j.resolveBound)
	params := codec.Params{AbsErrorBound: j.absEB, PredictorHint: j.pred.Hint()}
	var stream []byte
	var err error
	if j.chunks == nil {
		stream, err = j.codec.Compress(f.Data, f.Dims, params)
	} else {
		span.Annotate(obs.Int("start", int64(it.rng.Start)), obs.Int("end", int64(it.rng.End)))
		stream, err = compressChunk(j.codec, f, it.rng, params)
	}
	if err != nil {
		return compressedItem{}, fmt.Errorf("compress %s: %w", f.ID(), err)
	}
	c.h.led.compressedRaw.add(int64(raw))
	span.Annotate(obs.Int("bytes", int64(len(stream))))
	return compressedItem{chunk: it, stream: stream}, nil
}

// compressChunk compresses rows [r.Start, r.End) of f as a standalone
// stream of the chunk's own shape, slicing f's data in place. Its error
// names the chunk.
func compressChunk(cdc codec.Codec, f *datagen.Field, r sz.ChunkRange, params codec.Params) ([]byte, error) {
	row := 1
	for _, d := range f.Dims[1:] {
		row *= d
	}
	dims := append([]int(nil), f.Dims...)
	dims[0] = r.End - r.Start
	stream, err := cdc.Compress(f.Data[r.Start*row:r.End*row], dims, params)
	if err != nil {
		return nil, fmt.Errorf("chunk %d: %w", r.Index, err)
	}
	return stream, nil
}

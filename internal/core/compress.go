package core

import (
	"context"
	"fmt"

	"ocelot/internal/codec"
	"ocelot/internal/datagen"
	"ocelot/internal/obs"
	"ocelot/internal/sz"
)

// resolveBound is the campaign's relative-to-absolute bound resolution for
// every field whose codec does not resolve it itself (sz3, and every
// chunked field, whose chunks compress under the whole field's bound). It
// goes through sz.Config.AbsoluteBound, so a degenerate value range
// (constant, NaN or ±Inf) falls back to 1 exactly as the codecs' own
// relative mode and a codec.Pooled codec's CompressRelative do
// (codec.RelativeBound).
func (j *fieldJob) resolveBound() {
	j.setBound(sz.Config{ErrorBound: j.relEB, BoundMode: sz.BoundRelative}.AbsoluteBound(j.field.Data))
}

// setBound records the field's absolute bound and the value range the
// audit reports errors against, derived from the bound, so the two cannot
// disagree.
func (j *fieldJob) setBound(absEB float64) {
	j.absEB = absEB
	j.valueRange = absEB / j.relEB
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
// pack stage assembles its field's container. A whole field whose codec
// lends its scratch (codec.Pooled, szx) takes the codec's relative entry,
// which resolves the bound from the codec's own block scan instead of a
// separate pass over the field. An item taken after the campaign was
// cancelled returns without compressing.
func (c *campaign) compress(ctx context.Context, it chunk, emit func(compressedItem)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	j := &c.jobs[it.idx]
	f := j.field
	name, raw := "compress", f.RawBytes()
	if j.chunks != nil {
		name, raw = "chunk", it.rng.NumPoints(f.Dims)*f.ElementSize
	}
	_, span := c.spec.Obs.StartSpan(ctx, name, obs.String("field", f.ID()), obs.String("codec", j.codec.Name()))
	defer span.End()
	params := codec.Params{PredictorHint: j.pred.Hint()}
	var stream []byte
	var release func()
	var err error
	if pooled, ok := j.codec.(codec.Pooled); ok && j.chunks == nil {
		// One item per whole field, so no other item writes its bound.
		var absEB float64
		stream, absEB, release, err = pooled.CompressRelative(f.Data, f.Dims, j.relEB, params)
		j.setBound(absEB)
	} else {
		j.bound.Do(j.resolveBound)
		params.AbsErrorBound = j.absEB
		if j.chunks == nil {
			stream, err = j.codec.Compress(f.Data, f.Dims, params)
		} else {
			span.Annotate(obs.Int("start", int64(it.rng.Start)), obs.Int("end", int64(it.rng.End)))
			stream, release, err = compressChunk(j.codec, f, it.rng, params)
		}
	}
	if err != nil {
		return fmt.Errorf("compress %s: %w", f.ID(), err)
	}
	c.h.led.compressedRaw.add(int64(raw))
	span.Annotate(obs.Int("bytes", int64(len(stream))))
	emit(compressedItem{chunk: it, stream: stream, release: release})
	//ocelotvet:ok poolsafe a lent stream crosses to the pack stage, which releases it once it is copied (packer.add, emitGroup)
	return nil
}

// compressChunk compresses rows [r.Start, r.End) of f as a standalone
// stream of the chunk's own shape, slicing f's data in place. A codec that
// lends its scratch (codec.Pooled) returns the stream with the release func
// that gives it back; any other returns a nil release. Its error names the
// chunk.
func compressChunk(cdc codec.Codec, f *datagen.Field, r sz.ChunkRange, params codec.Params) ([]byte, func(), error) {
	row := 1
	for _, d := range f.Dims[1:] {
		row *= d
	}
	dims := append([]int(nil), f.Dims...)
	dims[0] = r.End - r.Start
	data := f.Data[r.Start*row : r.End*row]
	var stream []byte
	var release func()
	var err error
	if pooled, ok := cdc.(codec.Pooled); ok {
		stream, release, err = pooled.CompressPooled(data, dims, params)
	} else {
		stream, err = cdc.Compress(data, dims, params)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("chunk %d: %w", r.Index, err)
	}
	return stream, release, nil
}

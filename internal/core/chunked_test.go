package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"ocelot/internal/codec"
	"ocelot/internal/datagen"
	"ocelot/internal/faas"
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

// slowFanout builds a fanout whose compression function delays each chunk
// by delay(chunkIndex) before compressing, so tests can force adversarial
// completion orders (e.g. the first chunk finishing last).
func slowFanout(t *testing.T, workers int, delay func(idx int) time.Duration) *chunkFanout {
	t.Helper()
	svc := faas.NewService()
	if err := svc.RegisterFunction(fnCompressChunk, func(ctx context.Context, payload interface{}) (interface{}, error) {
		p, ok := payload.(chunkPayload)
		if !ok {
			return nil, errors.New("bad payload")
		}
		if d := delay(p.rng.Index); d > 0 {
			time.Sleep(d)
		}
		return p.compress()
	}); err != nil {
		t.Fatal(err)
	}
	ep, err := svc.DeployEndpoint(chunkFanoutEndpoint, faas.EndpointConfig{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return &chunkFanout{svc: svc, ep: ep}
}

// TestChunkFanoutOutOfOrderBitIdentical: when endpoint workers finish
// chunks out of order (earlier chunks delayed longest), the assembled
// container must still be byte-identical to the serial reference, and every
// chunk must honour the field-level error bound.
func TestChunkFanoutOutOfOrderBitIdentical(t *testing.T) {
	f, err := datagen.Generate("CESM", "TMQ", 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sz.DefaultConfig(1e-3 * metrics.ComputeRange(f.Data).Range)
	chunkPts := f.NumPoints() / 6
	chunkBytes := int64(chunkPts * f.ElementSize)

	// Invert completion order: chunk 0 sleeps longest.
	fan := slowFanout(t, 8, func(idx int) time.Duration {
		return time.Duration(6-idx%7) * 2 * time.Millisecond
	})
	defer fan.close()

	got, n, err := fan.compressField(context.Background(), f, mustCodec(t, sz.CodecName),
		codec.Params{AbsErrorBound: cfg.ErrorBound}, chunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("field did not split: %d chunks", n)
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

// TestChunkFanoutCancellationMidField: cancelling the context while chunks
// are still queued must abort compressField promptly with the context
// error, not hang waiting for the remaining chunks.
func TestChunkFanoutCancellationMidField(t *testing.T) {
	f, err := datagen.Generate("CESM", "CLDHGH", 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	// One worker, slow chunks: the batch cannot finish before the cancel.
	fan := slowFanout(t, 1, func(int) time.Duration { return 30 * time.Millisecond })
	defer fan.close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, _, err := fan.compressField(ctx, f, mustCodec(t, sz.CodecName),
			codec.Params{AbsErrorBound: 1e-3}, int64(f.NumPoints()/8*f.ElementSize))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("compressField did not honour cancellation")
	}
}

// TestChunkedCampaignWorkerCountInvariance: the full pipelined campaign
// with chunk fan-out must produce bit-identical decompressed output for 1
// and 4 endpoint workers, split every field, and stay inside the bound.
func TestChunkedCampaignWorkerCountInvariance(t *testing.T) {
	fields := pipelineFields(t, 6, 28)
	run := func(workers int) *CampaignResult {
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
	solo := run(1)
	wide := run(4)
	if solo.Chunks <= solo.Files {
		t.Fatalf("chunking did not split fields: %d chunks for %d files", solo.Chunks, solo.Files)
	}
	if solo.Chunks != wide.Chunks {
		t.Fatalf("chunk plan changed with workers: %d vs %d", solo.Chunks, wide.Chunks)
	}
	if solo.ReconDigest == 0 || solo.ReconDigest != wide.ReconDigest {
		t.Fatalf("decompressed output differs across worker counts: %x vs %x",
			solo.ReconDigest, wide.ReconDigest)
	}
	if wide.CompressWorkers != 4 {
		t.Fatalf("CompressWorkers = %d, want 4", wide.CompressWorkers)
	}
	if wide.MaxRelError > 1e-3*(1+1e-9) {
		t.Fatalf("max rel error %g exceeds bound", wide.MaxRelError)
	}
}

// TestChunkedCampaignMatchesUnchunkedRecon: chunked and monolithic
// campaigns both verify against the same per-field bound; the chunked one
// must also report the same file/group accounting shape.
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
// must not block on the endpoint draining its backlog — the teardown
// aborts queued chunks instead of compressing them.
func TestChunkedCampaignCancellationPromptness(t *testing.T) {
	fields := pipelineFields(t, 8, 24)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Run(ctx, fields, CampaignSpec{
		RelErrorBound: 1e-3, Workers: 4, GroupParam: 4,
		// Tiny chunks on one slow-dispatch worker: a deep backlog that
		// would take many seconds to drain if teardown executed it.
		ChunkMB:         float64(fields[0].RawBytes()) / 24 / 1e6,
		CompressWorkers: 1,
		ChunkEndpoint:   faas.EndpointConfig{WarmStart: 25 * time.Millisecond},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("cancelled campaign took %v to return (backlog drained instead of aborted)", d)
	}
}

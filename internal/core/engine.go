package core

import (
	"context"

	"ocelot/internal/codec"
	"ocelot/internal/datagen"
	"ocelot/internal/journal"
	"ocelot/internal/obs"
	"ocelot/internal/pipeline"
	"ocelot/internal/sz"
)

// StageTiming is the per-stage ledger threaded into CampaignResult.
type StageTiming = pipeline.StageStats

// fieldSetting is one field's planned compression configuration; a zero
// relEB inherits the campaign-level bound, predictor and codec.
type fieldSetting struct {
	relEB     float64
	predictor sz.Predictor
	codec     string // registry name; "" inherits the campaign codec
}

// fieldJob is one field's work order and, as the stages pass over it, its
// outcome. Each field is compressed once and verified once, so its slot is
// written by one worker at a time and read only downstream of that write.
type fieldJob struct {
	field *datagen.Field
	name  string // archive member name
	relEB float64
	pred  sz.Predictor
	codec codec.Codec

	// Resolved by the compress stage: they need a scan of the field's
	// values, which runs in parallel there rather than in a serial prologue.
	absEB      float64
	valueRange float64

	// Written by the verify stage (digest is preloaded from the journal for
	// fields a resume skips).
	verified    bool
	quarantined bool    // bound audit failed; replaced bit-exactly via the lossless escape
	relErr      float64 // max |err| / valueRange
	psnr        float64 // adaptive campaigns only
	digest      uint64  // reconstruction digest, when digestOn
}

// Items flowing between stages.
type compressedItem struct {
	idx    int
	stream []byte
}

// group is one packed archive on its way through transfer and verify.
type group struct {
	id      int
	idxs    []int // member fields, ascending
	archive []byte
	// digest is byteDigest(archive), computed once at pack time for the
	// journal's group record and echoed by its ack (journaled runs only).
	digest uint64
	// delivered is what actually arrived at the destination, set by the
	// transfer stage — the verify stage checksums these bytes, not the send
	// buffer, so in-flight corruption is observable.
	delivered []byte
}

// campaign is one run of the compress → pack → transfer → decompress/verify
// stage graph. prepare builds it; the stages are its methods, one file
// each (compress.go, pack.go, shipper.go, verify.go, summarize.go).
type campaign struct {
	h    *Campaign    // lifecycle state and the ledger
	spec CampaignSpec // defaults resolved in place (CampaignSpec.resolved)
	jobs []fieldJob
	// byName maps archive member names back to jobs; active lists the
	// fields this incarnation executes (all of them, or on a resume the
	// ones no acked group covers).
	byName map[string]int
	active []int
	// planned marks per-field settings from a plan (or a journal's pinned
	// plan): it enters the spec fingerprint and turns PSNR scoring on.
	planned bool
	// digestOn enables the reconstruction digest pass: fan-out campaigns
	// pay it to prove worker-count invariance, journaled and resumed ones
	// so a resumed half compares digest-for-digest with an uninterrupted
	// run.
	digestOn bool

	manifest *journal.Manifest // resume state, nil on a fresh run
	specHash string            // journaled campaigns only
	jw       *journal.Writer   // nil unless spec.Journal is set
	pool     *chunkPool        // nil unless chunk fan-out is on
	ship     *shipper
	res      *CampaignResult
}

// execute runs the stage graph for one prepared spec. Barrier engines pack
// only after every stream exists (groups follow grouping.Plan); the
// pipelined engine packs and ships groups as soon as they fill.
func (h *Campaign) execute(ctx context.Context, spec CampaignSpec, settings []fieldSetting, m *journal.Manifest) (*CampaignResult, error) {
	c, err := prepare(h, spec, settings, m)
	if err != nil {
		return nil, err
	}
	if err := c.openJournal(); err != nil {
		return nil, err
	}
	if c.jw != nil {
		defer c.jw.Close()
	}
	h.led.fields.add(int64(len(c.active)))
	h.led.rawBytes.add(h.rawBytes)
	// The root span covers the whole stage graph: the ctx rebind parents
	// every stage and per-item span under it.
	ctx, root := c.spec.Obs.StartSpan(ctx, "campaign",
		obs.Int("fields", int64(len(c.jobs))), obs.String("engine", c.spec.Engine.String()))
	defer root.End()

	if len(c.active) == 0 {
		// Every field was acked before this incarnation started: nothing to
		// re-execute, and the fold over the journal's recorded digests is
		// identical to the uninterrupted campaign's.
		return c.finish()
	}

	wallStart := h.now()
	if c.spec.ChunkMB > 0 {
		// Joined after g.Wait: every compressField call has returned by then.
		c.pool = newChunkPool(c.spec.CompressWorkers, chunkQueueDepth)
		defer c.pool.close()
	}
	g := pipeline.NewGroupWithClock(ctx, h.now)
	h.advance(CampaignRunning, g)
	workers := c.spec.Workers
	buffer := workers // each inter-stage channel holds one item per worker
	p := newPacker(c)

	src := pipeline.Emit(g, buffer, c.active)
	compressed := pipeline.Stage(g, pipeline.Config{Name: "compress", Workers: workers, Buffer: buffer}, src, c.compress)
	packed := pipeline.Reduce(g, pipeline.Config{Name: "pack", Buffer: buffer}, compressed, p.add, p.flush)
	sent := pipeline.Stage(g, pipeline.Config{Name: "transfer", Workers: c.spec.TransferStreams, Buffer: buffer}, packed, c.transfer)
	if c.spec.Engine == EngineSequential {
		sent = holdUntilDrained(g, buffer, sent)
	}
	verified := pipeline.Stage(g, pipeline.Config{Name: "decompress", Workers: workers, Buffer: buffer}, sent, c.verify)
	pipeline.Collect(g, verified)

	if err := g.Wait(); err != nil {
		return nil, err
	}
	return c.summarize(g, p, h.now().Sub(wallStart).Seconds())
}

// holdUntilDrained is the sequential engine's hard barrier: it holds every
// transferred group until the transfer phase completes, so decompression
// cannot overlap it.
func holdUntilDrained(g *pipeline.Group, buffer int, in <-chan group) <-chan group {
	var held []group
	return pipeline.Reduce(g, pipeline.Config{Name: "barrier", Buffer: buffer}, in,
		func(ctx context.Context, sg group, emit func(group) error) error {
			held = append(held, sg)
			return nil
		},
		func(ctx context.Context, emit func(group) error) error {
			for _, sg := range held {
				if err := emit(sg); err != nil {
					return err
				}
			}
			return nil
		})
}

package core

import (
	"context"
	"sync"
	"sync/atomic"

	"ocelot/internal/codec"
	"ocelot/internal/datagen"
	"ocelot/internal/grouping"
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

	// chunks is the field's chunk plan (sz.PlanChunksBytes — the plan the
	// planner's chunk-count prediction uses); nil for a whole field.
	chunks []sz.ChunkRange

	// Resolved by the compress stage, by whichever of the field's items
	// runs first: they need a scan of the field's values, which runs in
	// parallel there rather than in a serial prologue.
	bound      sync.Once
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

// Items flowing between stages. A chunk is one compress-stage work item:
// rows [rng.Start, rng.End) of field idx, or the whole field when the
// field has no chunk plan.
type chunk struct {
	idx int
	rng sz.ChunkRange
}

type compressedItem struct {
	chunk
	stream []byte
	// release gives stream back to its codec's pool (codec.Pooled) once
	// the pack stage has copied it; nil when the stream is the item's own.
	release func()
}

// free releases the item's stream to its codec, if the codec lent it; the
// stream must not be read afterwards.
func (it compressedItem) free() {
	if it.release != nil {
		it.release()
	}
}

// group is one packed archive on its way through transfer.
type group struct {
	id      int
	idxs    []int // member fields, ascending
	archive []byte
	// digest is byteDigest(archive), computed once at pack time for the
	// journal's group record and echoed by its ack (journaled runs only).
	digest uint64
}

// member is one decompress-stage item: a member of a delivered archive
// whose frame checked out — the bytes that arrived, not the send buffer,
// so in-flight corruption is observable — with the checksum the frame
// records for it and its group's countdown.
type member struct {
	grouping.Member
	sum uint32
	grp *delivery
}

// delivery is a group whose members are being verified: left counts down
// the members still to verify, and the one that brings it to zero acks
// the group.
type delivery struct {
	group
	left atomic.Int32
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
	g := pipeline.NewGroupWithClock(ctx, h.now)
	h.advance(CampaignRunning, g)
	workers := c.spec.Workers
	buffer := workers // each inter-stage channel holds one item per worker
	p := newPacker(c)

	src := pipeline.Emit(g, buffer, c.items())
	compressed := pipeline.Stage(g, pipeline.Config{Name: "compress", Workers: workers, Buffer: buffer}, src, c.compress)
	packed := pipeline.Reduce(g, pipeline.Config{Name: "pack", Buffer: buffer}, compressed, p.add, p.flush)
	// The transfer stage checks each delivered frame and hands the decode
	// workers one archive member at a time, so a group's members decode
	// side by side, at most Workers at once.
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
// transferred member until the transfer phase completes, so decompression
// cannot overlap it.
func holdUntilDrained(g *pipeline.Group, buffer int, in <-chan member) <-chan member {
	var held []member
	return pipeline.Reduce(g, pipeline.Config{Name: "barrier", Buffer: buffer}, in,
		func(ctx context.Context, m member, emit func(member) error) error {
			held = append(held, m)
			return nil
		},
		func(ctx context.Context, emit func(member) error) error {
			for _, m := range held {
				if err := emit(m); err != nil {
					return err
				}
			}
			return nil
		})
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"ocelot/internal/codec"
	"ocelot/internal/datagen"
	"ocelot/internal/grouping"
	"ocelot/internal/obs"
	"ocelot/internal/planner"
	"ocelot/internal/quality"
	"ocelot/internal/sentinel"
	"ocelot/internal/sz"
)

// Engine selects how a campaign's stages execute.
type Engine uint8

const (
	// EnginePipelined streams compress → pack → transfer → decompress
	// through bounded channels, so a packed group ships while later fields
	// are still compressing (the default).
	EnginePipelined Engine = iota
	// EngineBarrier packs only after every field has compressed, so groups
	// follow grouping.Plan exactly.
	EngineBarrier
	// EngineSequential adds a hard barrier between the transfer and
	// decompress phases too: the pre-pipelining baseline overlap
	// benchmarks compare against.
	EngineSequential
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EnginePipelined:
		return "pipelined"
	case EngineBarrier:
		return "barrier"
	case EngineSequential:
		return "sequential"
	default:
		return fmt.Sprintf("engine(%d)", uint8(e))
	}
}

// ParseEngine resolves an engine by name ("" selects pipelined).
func ParseEngine(name string) (Engine, error) {
	switch name {
	case "", "pipelined":
		return EnginePipelined, nil
	case "barrier":
		return EngineBarrier, nil
	case "sequential":
		return EngineSequential, nil
	default:
		return 0, fmt.Errorf("core: unknown engine %q (have: pipelined, barrier, sequential)", name)
	}
}

// CampaignSpec is the single description of a campaign: what to compress
// (bounds, predictor, codec), how to pack it, which engine executes the
// stages, which transport ships the archives, how compression fans out,
// and whether the predictive planner chooses per-field configurations
// first. It is what Submit, Run, and the serve daemon's scheduler all
// consume, and what the engine executes directly.
//
// The zero value is not runnable: RelErrorBound must be positive unless
// Adaptive is set (the planner then assigns per-field bounds).
type CampaignSpec struct {
	// RelErrorBound is applied relative to each field's value range.
	// Adaptive campaigns may leave it zero: the plan assigns bounds.
	RelErrorBound float64
	// Predictor for the SZ pipeline; 0 = interp. Ignored by codecs without
	// a predictor stage.
	Predictor sz.Predictor
	// Codec names the registered compressor every field uses ("" = sz3).
	// Adaptive campaigns override it per field with the plan's decisions.
	Codec string
	// Workers bounds compression/decompression parallelism; ≤ 0 = 4.
	Workers int

	// GroupStrategy and GroupParam control packing; 0 = ByWorldSize with
	// world = Workers.
	GroupStrategy grouping.Strategy
	GroupParam    int64

	// Engine selects barrier, pipelined, or sequential stage execution.
	Engine Engine
	// Transport ships packed archives; nil means NopTransport (in-process).
	Transport Transport
	// TransferStreams is the number of goroutines offering archives to the
	// transport at once — the Globus "concurrency" knob; ≤ 0 defaults to
	// the transport's own hint (a simulated WAN hints its link's
	// concurrency), else 4. Streams beyond the link's concurrency do not
	// add bandwidth: SimulatedWANTransport admits at most
	// Link.Concurrency sends at a time and queues the rest.
	TransferStreams int
	// TransportWeight is the campaign's fair-share weight on transports
	// implementing WeightedTransport (≤ 0 = unweighted Send). The serve
	// scheduler sets it to the owning tenant's weight so concurrent
	// campaigns split a shared link proportionally.
	TransportWeight float64

	// ChunkMB, when > 0, enables chunk-parallel compression: every field is
	// decomposed into ~ChunkMB-of-raw-data blocks (sz.PlanChunks) that are
	// queued on the campaign's chunk pool and compressed by its workers
	// concurrently, so a single wide field no longer serializes on one
	// worker. The assembled chunked container is byte-identical for any
	// worker count (see sz.AssembleChunks).
	ChunkMB float64
	// CompressWorkers is the chunk pool's worker count (the effective
	// compression parallelism when ChunkMB > 0); ≤ 0 defaults to Workers.
	CompressWorkers int

	// Adaptive runs the predictive planner first: per-field bounds,
	// predictors, codecs, and the grouping knob come from the plan, and
	// the result reports predicted vs. actual.
	Adaptive bool
	// Model is the trained quality model adaptive campaigns predict with.
	// nil degenerates gracefully to the most conservative candidate.
	Model *quality.Model
	// Planner tunes the adaptive decision pass; Link and Workers default
	// from the campaign context when unset.
	Planner planner.Options

	// Journal, when non-empty, is the path of a durable campaign manifest
	// (internal/journal): every packed, sent, and verified group is recorded
	// with write+fsync before the campaign proceeds, so a crashed or
	// canceled campaign can later be resumed from exactly what completed.
	// Journaling also enables the per-field reconstruction digest pass
	// (CampaignResult.ReconDigest).
	Journal string
	// ResumeFrom, when non-empty, loads an existing journal and re-executes
	// only the fields no acked group covers, reproducing the uninterrupted
	// campaign's ReconDigest. The journal's spec fingerprint must match this
	// spec (journal.ErrSpecMismatch otherwise). Usually set equal to Journal
	// so the resumed incarnation extends the same file.
	ResumeFrom string
	// JournalMeta is caller bookkeeping stamped into the journal's begin
	// record — the serve daemon stores the original submit request here so
	// its recovery pass can reconstruct campaigns from journals alone.
	JournalMeta map[string]string
	// Retry tunes transient-failure retry with exponential backoff for the
	// transfer stage. The zero value keeps fail-fast semantics (a single
	// attempt).
	Retry sentinel.RetryPolicy
	// Obs attaches an observability bundle (internal/obs): when set, the
	// campaign records spans for every lifecycle step — plan, per-field
	// compress (down to chunk fan-out), pack, per-group transfer including
	// each retry/failover attempt and journal ack, decompress, verify —
	// on Obs.Tracer, and instruments counters/histograms on Obs.Metrics
	// (snapshotted into CampaignResult.Metrics). nil costs only pointer
	// checks on the instrumented paths.
	Obs *obs.Obs
	// FallbackTransports are failover endpoints: when the primary Transport
	// exhausts its retry budget — or fails permanently — each fallback is
	// tried in order under the same policy. The terminal error is a
	// classified *sentinel.PermanentError.
	FallbackTransports []Transport

	// NoIntegrity disables the end-to-end checksum layer: packed archives
	// ship unframed and the verify stage decompresses whatever arrives. On
	// a corrupting link this is the silent-corruption testbed — garbage
	// bytes reach the codecs undetected. The default (false) frames every
	// archive with CRC-32C digests at pack time and verifies the frame
	// before decompressing, so in-flight corruption is detected and the
	// affected group retransmitted under Retry.
	NoIntegrity bool
	// BoundAudit tunes the post-decompress pointwise bound audit and its
	// quarantine escape; the zero value audits every point and fails the
	// campaign on a violation (the historical behaviour).
	BoundAudit BoundAudit

	// Now injects a clock for tests; nil = time.Now.
	Now func() time.Time
}

// BoundAudit is the SpecOption controlling the post-decompress audit: after
// each field decompresses, its reconstruction is checked pointwise against
// the promised absolute error bound — the codec's contract is verified
// against the data, not trusted.
type BoundAudit struct {
	// Stride samples every Stride-th point (plus the final point); ≤ 1
	// audits every point. Sampling weakens the per-point guarantee in
	// exchange for less verify-stage CPU on very large fields.
	Stride int
	// Quarantine, when set, converts a bound violation from a campaign
	// failure into a degraded-field recovery: the offending field is
	// re-shipped lossless (raw float64 bits through the deflate escape,
	// integrity-framed), replaces the lossy reconstruction bit-exactly,
	// and is recorded in CampaignResult.DegradedFields.
	Quarantine bool
}

// MaxFanOut caps the knobs that size worker pools, channels and retry
// loops — Workers, TransferStreams, CompressWorkers and Retry.MaxAttempts —
// so a remote submitter cannot ask for a channel the runtime cannot make.
const MaxFanOut = 1024

// DefaultWorkers is the worker count of a spec that leaves Workers unset.
const DefaultWorkers = 4

// Validate is the one validation site: everything about a spec that can be
// rejected without looking at the data is rejected here, at submit time,
// so a daemon never admits and queues a campaign that cannot run (empty
// codec names and the zero strategy resolve to their defaults; unknown
// codecs, engines and strategies, missing bounds, NaN or infinite numbers,
// and fan-out above MaxFanOut do not wait until mid-pipeline).
func (s CampaignSpec) Validate() error {
	for _, k := range []struct {
		name string
		n    int
	}{{"workers", s.Workers}, {"transfer streams", s.TransferStreams},
		{"compress workers", s.CompressWorkers}, {"retry attempts", s.Retry.MaxAttempts}} {
		if k.n > MaxFanOut {
			return fmt.Errorf("core: %s %d above the cap of %d", k.name, k.n, MaxFanOut)
		}
	}
	if math.IsNaN(s.RelErrorBound) || math.IsInf(s.RelErrorBound, 0) {
		return fmt.Errorf("core: relative error bound %v is not finite", s.RelErrorBound)
	}
	if s.RelErrorBound <= 0 && !s.Adaptive {
		return errors.New("core: relative error bound must be positive")
	}
	if math.IsNaN(s.ChunkMB) || math.IsInf(s.ChunkMB, 0) {
		return fmt.Errorf("core: chunk size %v MB is not finite", s.ChunkMB)
	}
	if _, err := codec.Normalize(s.Codec); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if s.Engine > EngineSequential {
		return fmt.Errorf("core: unknown engine %v", s.Engine)
	}
	switch s.GroupStrategy {
	case 0, grouping.ByWorldSize, grouping.ByTargetSize, grouping.SingleArchive:
	default:
		return fmt.Errorf("core: unknown strategy %v", s.GroupStrategy)
	}
	if s.BoundAudit.Stride < 0 {
		return fmt.Errorf("core: bound audit stride %d is negative", s.BoundAudit.Stride)
	}
	return nil
}

// resolved returns the spec with every defaulted knob filled in, so the
// engine reads one value per knob: Workers (also every inter-stage
// channel's capacity), the grouping strategy and parameter, the canonical
// codec name, the transport and its stream count, and — when chunk fan-out
// is on — the chunk pool's worker count; with an observability bundle, the
// retry policy reports to its registry. Adaptive campaigns apply the plan's
// grouping before resolving.
func (s CampaignSpec) resolved() (CampaignSpec, error) {
	var err error
	if s.Codec, err = codec.Normalize(s.Codec); err != nil {
		return s, fmt.Errorf("core: %w", err)
	}
	if s.Workers <= 0 {
		s.Workers = DefaultWorkers
	}
	if s.GroupStrategy == 0 {
		s.GroupStrategy = grouping.ByWorldSize
	}
	if s.GroupParam <= 0 {
		s.GroupParam = int64(s.Workers)
	}
	if s.Transport == nil {
		s.Transport = NopTransport{}
	}
	if s.TransferStreams <= 0 {
		s.TransferStreams = defaultStreams(s.Transport)
	}
	if s.ChunkMB <= 0 {
		s.ChunkMB, s.CompressWorkers = 0, 0
	} else if s.CompressWorkers <= 0 {
		s.CompressWorkers = s.Workers
	}
	if s.Obs != nil {
		s.Retry.Metrics = s.Obs.Metrics
	}
	return s, nil
}

// chunkBytes is the chunk fan-out granularity in raw bytes; 0 = off.
func (s CampaignSpec) chunkBytes() int64 {
	if s.ChunkMB <= 0 {
		return 0
	}
	return int64(s.ChunkMB * 1e6)
}

// Run executes a campaign described by spec and blocks until it finishes:
// Submit, then wait on the handle's Done — the one entry path every
// one-shot caller (CLI, examples, benchmarks) shares with the serve
// daemon. Cancellation via ctx unwinds the stages promptly, including
// mid-send on simulated WAN transports, and Run returns once they have.
func Run(ctx context.Context, fields []*datagen.Field, spec CampaignSpec) (*CampaignResult, error) {
	c, err := Submit(ctx, fields, spec)
	if err != nil {
		return nil, err
	}
	<-c.Done()
	return c.Result()
}

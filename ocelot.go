// Package ocelot is a Go reproduction of "Optimizing Scientific Data
// Transfer on Globus with Error-Bounded Lossy Compression" (ICDCS 2023).
//
// It provides:
//
//   - a pluggable codec registry with two error-bounded lossy
//     compressors: an SZ3-style prediction pipeline (Lorenzo / multilevel
//     interpolation / block regression) and an SZx-style ultra-fast block
//     codec; streams decode transparently by magic;
//   - the paper's compression-quality predictor: feature extraction plus
//     decision-tree models for compression ratio and PSNR, and one
//     measured compression throughput per codec;
//   - a streaming campaign engine (compress → pack → transfer → verify)
//     with chunk-parallel compression of wide fields, a file-grouping
//     optimizer, and the node-waiting sentinel;
//   - calibrated models of the paper's testbed (Anvil/Bebop/Cori machines,
//     Globus-style WAN links) for end-to-end what-if simulation;
//   - synthetic generators for the paper's seven scientific datasets.
//
// This file is the public facade; subsystems live under internal/ and the
// experiment reproductions under internal/experiments (driven by
// cmd/ocelot-bench and the root benchmark suite).
package ocelot

import (
	"context"

	"ocelot/internal/cluster"
	"ocelot/internal/codec"
	"ocelot/internal/core"
	"ocelot/internal/datagen"
	"ocelot/internal/dtree"
	"ocelot/internal/journal"
	"ocelot/internal/metrics"
	"ocelot/internal/obs"
	"ocelot/internal/planner"
	"ocelot/internal/quality"
	"ocelot/internal/sentinel"
	"ocelot/internal/sz"
	"ocelot/internal/wan"
)

// --- Compression ---

// Config re-exports the compressor configuration.
type Config = sz.Config

// Predictor selects the decorrelation stage.
type Predictor = sz.Predictor

// Compressor pipeline predictors.
const (
	PredictorLorenzo    = sz.PredictorLorenzo
	PredictorInterp     = sz.PredictorInterp
	PredictorRegression = sz.PredictorRegression
)

// CompressionStats re-exports per-run compressor statistics.
type CompressionStats = sz.Stats

// DefaultConfig returns the SZ3-interp default pipeline at an absolute
// error bound.
func DefaultConfig(absErrorBound float64) Config {
	return sz.DefaultConfig(absErrorBound)
}

// Compress encodes a row-major field (dims[0] slowest) under cfg. Every
// reconstructed value is guaranteed within cfg.ErrorBound of the original.
func Compress(data []float64, dims []int, cfg Config) ([]byte, *CompressionStats, error) {
	return sz.Compress(data, dims, cfg)
}

// Decompress decodes a stream produced by any registered codec (sz3, szx,
// …) or by CompressChunked — the codec registry dispatches on each
// stream's 4-byte magic, and chunked containers are reassembled
// transparently.
func Decompress(stream []byte) (data []float64, dims []int, err error) {
	return codec.Decompress(stream)
}

// --- Codec registry ---

// Codec is one registered error-bounded lossy compressor (see
// internal/codec): sz3 is the high-ratio prediction pipeline, szx the
// SZx-style ultra-fast block codec.
type Codec = codec.Codec

// CodecParams is the codec-neutral compression request (absolute bound
// plus an optional predictor hint).
type CodecParams = codec.Params

// Codecs lists the registered codec names in sorted order.
func Codecs() []string { return codec.Names() }

// LookupCodec resolves a codec by registry name ("" selects sz3); unknown
// names error with the valid list.
func LookupCodec(name string) (Codec, error) { return codec.Lookup(name) }

// CompressWith encodes a field with the named codec under an absolute
// error bound. Decompress reads the result back regardless of codec.
func CompressWith(codecName string, data []float64, dims []int, absErrorBound float64) ([]byte, error) {
	c, err := codec.Lookup(codecName)
	if err != nil {
		return nil, err
	}
	return c.Compress(data, dims, codec.Params{AbsErrorBound: absErrorBound})
}

// --- Chunk-parallel compression ---

// ChunkRange is one block of a chunk-decomposed field: rows [Start, End)
// along the slowest axis.
type ChunkRange = sz.ChunkRange

// PlanChunks splits a field shape into independently compressible chunks
// of roughly targetPoints values each. The plan depends only on the shape
// and target, so campaigns decompose identically run to run.
func PlanChunks(dims []int, targetPoints int) []ChunkRange {
	return sz.PlanChunks(dims, targetPoints)
}

// CompressChunked compresses a field as a chunked container: independent
// ~targetPoints blocks under the field-level error bound, framed for
// bit-exact reassembly. Decompress reads the container transparently.
func CompressChunked(data []float64, dims []int, cfg Config, targetPoints int) ([]byte, *CompressionStats, error) {
	return sz.CompressChunked(data, dims, cfg, targetPoints)
}

// IsChunkedStream reports whether a stream is a chunked container (as
// opposed to a plain Compress stream).
func IsChunkedStream(stream []byte) bool { return sz.IsChunked(stream) }

// --- Quality metrics ---

// PSNR computes the peak signal-to-noise ratio in dB.
func PSNR(original, reconstructed []float64) (float64, error) {
	return metrics.PSNR(original, reconstructed)
}

// MaxAbsError returns the L∞ distance between two fields.
func MaxAbsError(original, reconstructed []float64) (float64, error) {
	return metrics.MaxAbsError(original, reconstructed)
}

// CompressionRatio returns originalBytes / compressedBytes.
func CompressionRatio(originalBytes, compressedBytes int) float64 {
	return metrics.CompressionRatio(originalBytes, compressedBytes)
}

// --- Synthetic datasets ---

// Field is a named synthetic scientific dataset variable.
type Field = datagen.Field

// Applications lists the supported dataset generators.
func Applications() []string { return datagen.Apps() }

// FieldsOf lists an application's field names.
func FieldsOf(app string) []string { return datagen.Fields(app) }

// GenerateField synthesizes one dataset field; shrink divides the paper's
// full dimensions.
func GenerateField(app, field string, shrink int, seed int64) (*Field, error) {
	return datagen.Generate(app, field, shrink, seed)
}

// --- Quality prediction (paper Section VI) ---

// QualityModel bundles the trained ratio/PSNR regressors and the measured
// compression throughput.
type QualityModel = quality.Model

// QualityEstimate is a predicted compression outcome.
type QualityEstimate = quality.Estimate

// TrainQualityModel compresses the given fields across the paper's error
// bound sweep (optionally measuring PSNR), fits the decision trees and
// pools the measured compression speed.
func TrainQualityModel(fields []*Field, withPSNR bool) (*QualityModel, error) {
	samples, err := quality.Collect(fields, quality.CollectOptions{WithPSNR: withPSNR})
	if err != nil {
		return nil, err
	}
	return quality.Train(samples, dtree.Params{MaxDepth: 14})
}

// EstimateQuality predicts ratio/time/PSNR for compressing data at a
// value-range-relative error bound, from a cheap sampling pass.
func EstimateQuality(m *QualityModel, data []float64, dims []int, relErrorBound float64) (*QualityEstimate, error) {
	return m.EstimateField(data, dims, relErrorBound, 0)
}

// LoadQualityModel deserializes a model saved with (*QualityModel).Save.
func LoadQualityModel(blob []byte) (*QualityModel, error) { return quality.Load(blob) }

// --- End-to-end pipeline ---

// TransferMode selects the strategy (direct / compressed / grouped).
type TransferMode = core.Mode

// Transfer strategies, matching the paper's NP / CP / OP columns.
const (
	TransferDirect     = core.ModeDirect
	TransferCompressed = core.ModeCompressed
	TransferGrouped    = core.ModeGrouped
)

// Pipeline binds source and destination machines with a WAN link.
type Pipeline = core.Pipeline

// TransferPlan configures a simulated transfer.
type TransferPlan = core.Plan

// TransferReport is the simulated outcome.
type TransferReport = core.Report

// FileSet describes a dataset campaign for simulation.
type FileSet = core.FileSet

// Machine models one HPC system.
type Machine = cluster.Machine

// Link models one WAN path.
type Link = wan.Link

// StandardMachines returns the calibrated paper testbed (Anvil, Bebop,
// BebopKNL, Cori).
func StandardMachines() map[string]*Machine { return cluster.Standard() }

// StandardLinks returns the calibrated WAN paths between the testbeds.
func StandardLinks() map[string]*Link { return wan.StandardLinks() }

// UniformFileSet builds a campaign of n equal files with an expected
// compression ratio.
func UniformFileSet(app string, n int, fileBytes int64, ratio float64) *FileSet {
	return core.UniformFileSet(app, n, fileBytes, ratio)
}

// --- Campaigns (unified API) ---

// CampaignSpec is the single description of a campaign — bounds, codec,
// packing, engine, transport, chunk fan-out, and the optional adaptive
// plan pass.
type CampaignSpec = core.CampaignSpec

// CampaignEngine selects how a campaign's stages execute.
type CampaignEngine = core.Engine

// Campaign stage engines.
const (
	// EnginePipelined streams compress → pack → transfer → decompress
	// through bounded channels (the default).
	EnginePipelined = core.EnginePipelined
	// EngineBarrier packs only after every field compressed, so groups
	// follow the grouping plan exactly.
	EngineBarrier = core.EngineBarrier
	// EngineSequential adds hard barriers between every phase — the
	// pre-pipelining baseline.
	EngineSequential = core.EngineSequential
)

// ParseCampaignEngine resolves an engine by name ("" = pipelined).
func ParseCampaignEngine(name string) (CampaignEngine, error) { return core.ParseEngine(name) }

// Campaign is a re-entrant handle to a submitted campaign: watch it with
// Status, await it with Wait or Done, stop it mid-stage with Cancel.
type Campaign = core.Campaign

// CampaignState is a campaign handle's lifecycle position.
type CampaignState = core.CampaignState

// CampaignStatus is a live snapshot of a submitted campaign.
type CampaignStatus = core.CampaignStatus

// CampaignResult reports a finished campaign run.
type CampaignResult = core.CampaignResult

// BoundAudit tunes the post-decompress pointwise error-bound audit; set
// it on CampaignSpec.BoundAudit. Quarantine converts a bound violation
// from a campaign failure into a degraded-field recovery (the field is
// re-shipped lossless and recorded in CampaignResult.DegradedFields).
type BoundAudit = core.BoundAudit

// Run executes a campaign described by spec and blocks until it finishes
// (Submit, then wait): compress, pack, transfer, and decompress/verify run
// as concurrently-connected bounded stages, so a packed group starts its
// WAN transfer while later fields are still compressing. Pick the engine
// via CampaignSpec.Engine and the plan pass via CampaignSpec.Adaptive; the
// result carries per-stage timings and the measured overlap.
func Run(ctx context.Context, fields []*Field, spec CampaignSpec) (*CampaignResult, error) {
	return core.Run(ctx, fields, spec)
}

// Submit starts a campaign asynchronously and returns its re-entrant
// handle; hundreds may run concurrently on a shared transport. This is
// the primitive the `ocelot serve` daemon schedules multi-tenant
// campaigns with.
func Submit(ctx context.Context, fields []*Field, spec CampaignSpec) (*Campaign, error) {
	return core.Submit(ctx, fields, spec)
}

// --- Observability: tracing, metrics, profiling ---

// Observability bundles a span tracer and a metrics registry. Set it on
// CampaignSpec.Obs to trace and meter a campaign end to end; a nil
// bundle (the default) keeps every instrumentation site at pointer-check
// cost.
type Observability = obs.Obs

// Tracer records spans. A disabled tracer costs one atomic load per
// StartSpan, so instrumented code paths may leave tracing wired in.
type Tracer = obs.Tracer

// Span is one traced operation; End it exactly once on every return
// path.
type Span = obs.Span

// SpanRecord is one finished span as exported to Chrome trace / NDJSON.
type SpanRecord = obs.SpanRecord

// TraceAttr is a typed span attribute.
type TraceAttr = obs.Attr

// NewTracer returns an enabled span tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// TraceString builds a string span attribute.
func TraceString(key, value string) TraceAttr { return obs.String(key, value) }

// TraceInt builds an integer span attribute.
func TraceInt(key string, value int64) TraceAttr { return obs.Int(key, value) }

// TraceFloat builds a float span attribute.
func TraceFloat(key string, value float64) TraceAttr { return obs.Float(key, value) }

// MetricsRegistry is an atomic counter/gauge/histogram registry with
// Prometheus text exposition (WritePrometheus) and snapshotting.
type MetricsRegistry = obs.Registry

// MetricLabel is one name=value metric label.
type MetricLabel = obs.Label

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricL builds a metric label.
func MetricL(name, value string) MetricLabel { return obs.L(name, value) }

// --- Fault tolerance: journal, retry, fault injection ---

// RetryPolicy bounds transient-failure retries with exponential backoff;
// set it on CampaignSpec.Retry to let transfer sends and chunk fan-out
// survive link flaps. See also CampaignSpec.FallbackTransports for
// endpoint failover.
type RetryPolicy = sentinel.RetryPolicy

// PermanentError is the classified terminal failure a retried operation
// surfaces once its budget (and every fallback endpoint) is exhausted —
// or immediately, when the underlying error is not transient.
type PermanentError = sentinel.PermanentError

// MarkTransient classifies an error as retryable for RetryPolicy.
func MarkTransient(err error) error { return sentinel.MarkTransient(err) }

// LinkFaults schedules deterministic fault injection on a wan.Link:
// outage windows, bandwidth dips, a seeded per-send error probability,
// and seeded corruption of delivered payloads (CorruptProb/CorruptMode).
// Set it on Link.Faults to exercise campaign retry and
// verify-and-retransmit paths under a simulated hostile WAN.
type LinkFaults = wan.Faults

// CorruptMode selects how LinkFaults mutates a delivered payload.
type CorruptMode = wan.CorruptMode

// Corruption modes for LinkFaults.CorruptMode.
const (
	// CorruptBitFlip flips a single random bit (the default).
	CorruptBitFlip = wan.CorruptBitFlip
	// CorruptTruncate drops a random-length tail.
	CorruptTruncate = wan.CorruptTruncate
	// CorruptGarble overwrites a random span with random bytes.
	CorruptGarble = wan.CorruptGarble
	// CorruptMix picks one of the above per corrupted delivery.
	CorruptMix = wan.CorruptMix
)

// FaultWindow is one scheduled outage in simulated link time.
type FaultWindow = wan.FaultWindow

// BandwidthDip is one scheduled bandwidth reduction in simulated link
// time.
type BandwidthDip = wan.BandwidthDip

// CampaignJournal is a loaded campaign journal manifest: which groups
// were packed, sent, and acked, and the per-field plan the campaign ran
// under. Campaigns write one when CampaignSpec.Journal is set and resume
// from one via CampaignSpec.ResumeFrom.
type CampaignJournal = journal.Manifest

// LoadCampaignJournal reads and folds a journal file written by a
// journaled campaign. Unreadable or torn journals (beyond a torn final
// line, which is tolerated) return journal.ErrCorrupt.
func LoadCampaignJournal(path string) (*CampaignJournal, error) { return journal.Load(path) }

// --- Campaign stages and transports ---

// StageTiming is one pipeline stage's timing ledger.
type StageTiming = core.StageTiming

// Transport ships packed group archives between endpoints.
type Transport = core.Transport

// NopTransport moves archives instantaneously (in-process campaigns).
type NopTransport = core.NopTransport

// SimulatedWANTransport paces sends at a calibrated wan.Link's rate in
// (scaled) real time, so pipelining overlap shows up in wall time.
type SimulatedWANTransport = core.SimulatedWANTransport

// GridFTPTransport ships archives over the repo's real wire protocol.
type GridFTPTransport = core.GridFTPTransport

// PredictParallelCompressSec is the planner's parallelism-aware compression
// wall model: fields with single-worker seconds secs and chunk counts
// chunks spread across workers. See planner.ParallelCompressSec.
func PredictParallelCompressSec(secs []float64, chunks []int, workers int, overheadFrac float64) float64 {
	return planner.ParallelCompressSec(secs, chunks, workers, overheadFrac)
}

// --- Predictive campaign planner ---

// PlannerOptions tunes the plan pass (candidate grid, quality floor, link
// model, assumed parallelism).
type PlannerOptions = planner.Options

// PlannerCandidate is one (error bound × predictor) configuration the
// planner may assign to a field.
type PlannerCandidate = planner.Candidate

// CampaignPlan is the planner's decision: per-field configurations, the
// grouping knob, and the predicted end-to-end accounting.
type CampaignPlan = planner.Plan

// TrainPlannerModel trains a quality model from a quick compression sweep
// over the given (typically shrunken stand-in) fields, covering every
// predictor and bound in the default candidate grid with PSNR ground
// truth — the train-on-the-fly path of the planner.
func TrainPlannerModel(train []*Field) (*QualityModel, error) {
	return planner.TrainFromSweep(train, nil, dtree.Params{MaxDepth: 14})
}

// TrainPlannerModelCandidates is TrainPlannerModel over an explicit
// candidate grid: every codec in the grid gets its own tree set, so a
// grid from PlannerCodecCandidates yields a model the planner can pick
// codecs with.
func TrainPlannerModelCandidates(train []*Field, candidates []PlannerCandidate) (*QualityModel, error) {
	return planner.TrainFromSweep(train, candidates, dtree.Params{MaxDepth: 14})
}

// PlannerCodecCandidates builds the rel-EB × predictor × codec candidate
// grid over the named registered codecs (e.g. {"sz3", "szx"}), turning
// the planner into a codec-picker: speed-optimized codecs win on fast
// links, high-ratio codecs on slow ones.
func PlannerCodecCandidates(codecNames []string) ([]PlannerCandidate, error) {
	return planner.CodecCandidates(codecNames)
}

// PlanCampaignSpec runs only the plan stage of an adaptive spec and
// returns the decision table an Adaptive Run or Submit would execute.
func PlanCampaignSpec(fields []*Field, spec CampaignSpec) (*CampaignPlan, error) {
	return core.PlanSpec(fields, spec)
}

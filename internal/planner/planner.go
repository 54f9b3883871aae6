// Package planner closes the paper's sample → predict → decide loop
// (Section VI + VII): before a campaign commits to a configuration, the
// planner runs the quality predictor's cheap sampling pass over every
// field, predicts compression ratio and PSNR across a candidate grid of
// (error bound × predictor × codec) configurations, prices compression at
// each codec's measured throughput, combines the predictions with the WAN
// link model, and emits a Plan — a per-field sz configuration
// plus a grouping decision — that minimizes predicted end-to-end seconds
// subject to a quality floor. Configuration becomes a decision the system
// takes, not an input the user guesses.
package planner

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"ocelot/internal/codec"
	"ocelot/internal/datagen"
	"ocelot/internal/dtree"
	"ocelot/internal/grouping"
	"ocelot/internal/quality"
	"ocelot/internal/sz"
	"ocelot/internal/wan"
)

// Candidate is one configuration the planner may assign to a field.
type Candidate struct {
	// RelEB is the value-range-relative error bound.
	RelEB float64
	// Predictor selects the SZ pipeline; 0 means interp. Ignored by codecs
	// without a predictor stage.
	Predictor sz.Predictor
	// Codec names the registered codec; empty means sz3. The grid is
	// therefore rel-EB × predictor × codec, and the planner becomes a
	// genuine codec-picker: a speed-optimized codec wins on links fast
	// enough that compression time dominates, the high-ratio codec on
	// links where every byte moved is expensive.
	Codec string
}

// defaultRelEBs is the relative-error-bound sweep shared by every
// candidate grid builder, so sz3 and non-sz3 candidates always cover the
// same bounds.
var defaultRelEBs = []float64{1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2}

// DefaultCandidates spans four decades of relative error bound in
// half-decade steps for both the interpolation (high-ratio) and Lorenzo
// (high-speed) pipelines — the grid the paper's Section VI predictor is
// evaluated over. Half-decade resolution matters: PSNR moves ~10 dB per
// half-decade of bound, so a coarser grid would park every field on the
// same side of any quality floor.
func DefaultCandidates() []Candidate {
	out := make([]Candidate, 0, 2*len(defaultRelEBs))
	for _, p := range []sz.Predictor{sz.PredictorInterp, sz.PredictorLorenzo} {
		for _, eb := range defaultRelEBs {
			out = append(out, Candidate{RelEB: eb, Predictor: p})
		}
	}
	return out
}

// CodecCandidates builds the cross grid over the given registered codecs:
// for sz3 the usual predictor × bound sweep (DefaultCandidates), for
// codecs without predictor support one candidate per bound. sz3 (when
// present) is emitted first so the no-model fallback degrades to the most
// conservative high-fidelity pipeline. Names are trimmed of surrounding
// space, "" is the default codec, and unknown names error with the
// registry's valid list.
func CodecCandidates(codecNames []string) ([]Candidate, error) {
	seen := map[string]bool{}
	norm := make([]string, 0, len(codecNames))
	for _, name := range codecNames {
		c, err := codec.Lookup(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("planner: %w", err)
		}
		if !seen[c.Name()] {
			seen[c.Name()] = true
			norm = append(norm, c.Name())
		}
	}
	if len(norm) == 0 {
		return nil, errors.New("planner: no codecs for candidate grid")
	}
	sort.SliceStable(norm, func(i, j int) bool {
		if (norm[i] == codec.DefaultName) != (norm[j] == codec.DefaultName) {
			return norm[i] == codec.DefaultName
		}
		return norm[i] < norm[j]
	})
	var out []Candidate
	for _, name := range norm {
		if name == codec.DefaultName {
			out = append(out, DefaultCandidates()...)
			continue
		}
		c, _ := codec.Lookup(name)
		preds := []sz.Predictor{0}
		if c.Caps().Predictors {
			preds = []sz.Predictor{sz.PredictorInterp, sz.PredictorLorenzo}
		}
		for _, p := range preds {
			for _, eb := range defaultRelEBs {
				out = append(out, Candidate{RelEB: eb, Predictor: p, Codec: name})
			}
		}
	}
	return out, nil
}

// Options tunes the planning pass.
type Options struct {
	// Candidates is the configuration grid; nil selects DefaultCandidates.
	Candidates []Candidate
	// MinPSNR is the quality floor in dB: a candidate whose predicted PSNR
	// falls below it is infeasible for that field. 0 disables the floor.
	MinPSNR float64
	// MaxRelEB caps the relative error bound any field may be assigned
	// (the alternative quality floor); 0 disables the cap.
	MaxRelEB float64
	// Link models the WAN the campaign will cross; nil plans on
	// compression cost alone (no transfer term, no grouping search).
	Link *wan.Link
	// Workers is the compression parallelism assumed when converting
	// per-field compression seconds into campaign wall time; ≤ 0 means 4.
	Workers int
	// Seed drives the link estimate's deterministic jitter.
	Seed int64
	// ChunkBytes is the raw-byte chunk size the campaign will use for
	// chunk-parallel compression (CampaignSpec.ChunkMB × 1e6); 0 plans
	// for monolithic per-field compression. With chunking, a wide field's
	// predicted seconds divide across up to min(Workers, its chunk count)
	// workers instead of serializing on one — see ParallelCompressSec.
	ChunkBytes int64
	// Done marks fields already completed by a previous incarnation (one
	// entry per field; nil means none). Done fields are excluded from the
	// wall model, the grouping decision, and every campaign-level
	// prediction — a resumed campaign's plan prices only the remaining
	// work. Their FieldPlan entries carry Done: true and no candidate
	// decision: on resume the engine pins their settings from the journal,
	// never from a fresh plan.
	Done []bool
}

// DefaultChunkOverheadFrac is the fractional cost the planner adds to a
// field's predicted compression seconds when it is split (per-chunk
// framing and lost cross-chunk prediction context), calibrated against the
// chunk fan-out's measured cost of framing + dispatch on multi-chunk
// fields.
const DefaultChunkOverheadFrac = 0.03

// FieldPlan is the planner's decision for one field.
type FieldPlan struct {
	Field     string       `json:"field"`
	RelEB     float64      `json:"relEb"`
	Predictor sz.Predictor `json:"predictor"`
	// Codec is the registry name of the chosen compressor ("sz3", "szx").
	Codec    string `json:"codec"`
	RawBytes int64  `json:"rawBytes"`

	// Predictions for the chosen configuration (zero when Fallback).
	PredRatio float64 `json:"predRatio"`
	PredPSNR  float64 `json:"predPsnr"`
	PredSec   float64 `json:"predSec"`   // single-worker compression seconds
	PredBytes int64   `json:"predBytes"` // predicted compressed size

	// Fallback marks a decision made without (or against) the model: an
	// untrained predictor, or no candidate meeting the quality floor.
	Fallback bool `json:"fallback,omitempty"`
	// Done marks a field completed by a previous incarnation
	// (Options.Done): no decision was made and no cost was priced.
	Done bool `json:"done,omitempty"`
}

// Plan is a complete campaign decision: per-field configurations plus the
// grouping strategy, with the predicted end-to-end accounting the decision
// was based on.
type Plan struct {
	Fields        []FieldPlan       `json:"fields"`
	GroupStrategy grouping.Strategy `json:"groupStrategy"`
	GroupParam    int64             `json:"groupParam"`
	MinPSNR       float64           `json:"minPsnr,omitempty"`
	// Workers is the compression parallelism the predictions assume.
	Workers int `json:"workers,omitempty"`
	// ChunkBytes echoes the chunk-parallel granularity the plan assumed
	// (0 = monolithic fields), and Chunks the resulting total chunk count,
	// so planned artifacts are comparable across configurations.
	ChunkBytes int64 `json:"chunkBytes,omitempty"`
	Chunks     int   `json:"chunks,omitempty"`

	RawBytes        int64   `json:"rawBytes"`
	PredBytes       int64   `json:"predBytes"`
	PredRatio       float64 `json:"predRatio"`
	PredCompressSec float64 `json:"predCompressSec"` // Workers-parallel wall
	PredTransferSec float64 `json:"predTransferSec"` // grouped archives over Link
	// PredWallSec approximates the pipelined engine's end-to-end wall with
	// the plan's group count G: the longer stage runs in full and the
	// shorter hides inside it except for its first/last group,
	// max(C, T) + min(C, T)/G — fully serial at G=1, fully overlapped as
	// G grows. The grouping decision minimizes exactly this quantity.
	PredWallSec float64 `json:"predWallSec"`
}

// Config materializes the sz.Config for field i: a range-relative bound at
// the planned RelEB with the planned predictor. Only meaningful for
// fields planned onto the sz3 codec; other codecs take the bound alone
// (see FieldPlan.Codec).
func (p *Plan) Config(i int) sz.Config {
	fp := p.Fields[i]
	cfg := sz.DefaultConfig(fp.RelEB)
	cfg.BoundMode = sz.BoundRelative
	cfg.Predictor = fp.Predictor
	return cfg
}

// String renders the plan as the per-field decision table the CLI prints.
func (p *Plan) String() string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("%-22s %10s %6s %12s %10s %10s %10s\n",
		"field", "rel-eb", "codec", "predictor", "ratio", "PSNR(dB)", "comp(s)"))
	for _, fp := range p.Fields {
		note := ""
		if fp.Fallback {
			note = "  (fallback)"
		}
		if fp.Done {
			note = "  (done)"
		}
		pred := "-"
		if fp.Codec == "" || fp.Codec == codec.DefaultName {
			pred = fp.Predictor.String()
		}
		sb.WriteString(fmt.Sprintf("%-22s %10.0e %6s %12s %10.1f %10.1f %10.3f%s\n",
			fp.Field, fp.RelEB, normCodec(fp.Codec), pred, fp.PredRatio, fp.PredPSNR, fp.PredSec, note))
	}
	sb.WriteString(fmt.Sprintf("grouping: %s param=%d\n", p.GroupStrategy, p.GroupParam))
	if p.ChunkBytes > 0 {
		sb.WriteString(fmt.Sprintf("chunking: %.1f MB chunks (%d total) across %d workers\n",
			float64(p.ChunkBytes)/1e6, p.Chunks, p.Workers))
	}
	sb.WriteString(fmt.Sprintf("predicted: %.1f MB -> %.1f MB (ratio %.1f), compress %.2fs, transfer %.2fs, wall %.2fs\n",
		float64(p.RawBytes)/1e6, float64(p.PredBytes)/1e6, p.PredRatio,
		p.PredCompressSec, p.PredTransferSec, p.PredWallSec))
	return sb.String()
}

func (o Options) withDefaults() Options {
	if o.Candidates == nil {
		o.Candidates = DefaultCandidates()
	}
	if o.Workers <= 0 {
		o.Workers = 4
	}
	return o
}

// feasibleCandidates filters the grid by the MaxRelEB cap, sorted by
// ascending bound so "most conservative" is always index 0.
func feasibleCandidates(opts Options) ([]Candidate, error) {
	cands := make([]Candidate, 0, len(opts.Candidates))
	for _, c := range opts.Candidates {
		if c.RelEB <= 0 {
			return nil, fmt.Errorf("planner: non-positive candidate bound %g", c.RelEB)
		}
		if opts.MaxRelEB > 0 && c.RelEB > opts.MaxRelEB {
			continue
		}
		cands = append(cands, c)
	}
	if len(cands) == 0 {
		return nil, errors.New("planner: no candidates under the MaxRelEB cap")
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].RelEB < cands[j].RelEB })
	return cands, nil
}

// Build runs the sample→predict→decide pass and returns the campaign plan.
//
// With a trained model, every field is scored across the candidate grid by
// the model's ratio/PSNR predictions and its codec's throughput, and
// assigned the feasible candidate minimizing its predicted contribution to
// end-to-end time (compression share plus bandwidth share). Every candidate
// of one codec costs the same compression seconds, so within a codec the
// choice is by predicted bytes under the floor, and between codecs by the
// measured speed gap against the bytes it saves. With a nil model — or
// when the quality floor requires a PSNR tree the model lacks — the
// planner degenerates gracefully: the field gets the most conservative
// candidate (smallest relative bound) and is marked Fallback, so an
// untrained deployment is never less safe than the fixed-bound default.
func Build(fields []*datagen.Field, model *quality.Model, opts Options) (*Plan, error) {
	if len(fields) == 0 {
		return nil, errors.New("planner: no fields")
	}
	opts = opts.withDefaults()
	if opts.Done != nil && len(opts.Done) != len(fields) {
		return nil, fmt.Errorf("planner: %d done marks for %d fields", len(opts.Done), len(fields))
	}
	cands, err := feasibleCandidates(opts)
	if err != nil {
		return nil, err
	}
	// A candidate is only scoreable when the model carries a ratio tree for
	// its codec — and, under a PSNR floor, a PSNR tree for that codec. Filter
	// up front so a grid mentioning an untrained codec degrades exactly
	// like an untrained model instead of erroring mid-plan.
	// Resolve candidate codec names before consulting the model: an empty
	// Candidate.Codec means sz3 (normCodec), NOT "whatever codec the model
	// happens to default to" — a model trained only for szx must never
	// silently score sz3 candidates with szx trees.
	scoreable := cands
	if model != nil {
		scoreable = make([]Candidate, 0, len(cands))
		for _, c := range cands {
			sub, err := model.ForCodec(normCodec(c.Codec))
			if err != nil || sub.Ratio == nil {
				continue
			}
			if opts.MinPSNR > 0 && sub.PSNR == nil {
				continue
			}
			scoreable = append(scoreable, c)
		}
	}
	canScore := model != nil && len(scoreable) > 0
	canFloor := opts.MinPSNR <= 0 || canScore

	plan := &Plan{
		Fields:        make([]FieldPlan, len(fields)),
		GroupStrategy: grouping.ByWorldSize,
		MinPSNR:       opts.MinPSNR,
	}
	predSizes := make([]int64, len(fields))
	for i, f := range fields {
		raw := int64(f.RawBytes())
		fp := FieldPlan{Field: f.ID(), RawBytes: raw}

		if opts.Done != nil && opts.Done[i] {
			// Already completed by a previous incarnation: record the field
			// so the plan's shape matches the campaign, but price nothing —
			// the resume's wall model covers only the remaining work.
			fp.Done = true
			plan.Fields[i] = fp
			continue
		}
		plan.RawBytes += raw

		if !canScore || !canFloor {
			// No usable model: most conservative candidate, no predictions.
			fp.RelEB, fp.Predictor = cands[0].RelEB, normPred(cands[0].Predictor)
			fp.Codec = normCodec(cands[0].Codec)
			fp.Fallback = true
			fp.PredBytes = raw
			plan.Fields[i] = fp
			predSizes[i] = raw
			continue
		}

		best := -1
		bestScore := math.Inf(1)
		var bestEst, floorEst *quality.Estimate
		floorIdx, floorPSNR := -1, math.Inf(-1)
		// Sparse trees can predict a *lower* ratio or a *higher* PSNR at a
		// looser bound — both physically impossible for this compressor
		// family. Repair predictions to be monotone in the bound (cands is
		// sorted ascending) per (codec, predictor) pipeline, so training
		// noise can never trick the planner into assigning a tighter bound
		// while predicting it cheaper, or let a loose bound game the PSNR
		// floor by out-predicting a tighter one.
		type pipeKey struct {
			codec string
			pred  sz.Predictor
		}
		monoRatio := map[pipeKey]float64{}
		monoPSNR := map[pipeKey]float64{}
		for ci, c := range scoreable {
			est, err := model.EstimateFieldCodec(f.Data, f.Dims, c.RelEB, c.Predictor, normCodec(c.Codec))
			if err != nil {
				return nil, fmt.Errorf("planner: estimate %s @%g: %w", f.ID(), c.RelEB, err)
			}
			k := pipeKey{codec: normCodec(c.Codec), pred: normPred(c.Predictor)}
			if prev, ok := monoRatio[k]; ok && est.Ratio < prev {
				est.Ratio = prev
			}
			monoRatio[k] = est.Ratio
			if prev, ok := monoPSNR[k]; ok && est.PSNR > prev {
				est.PSNR = prev
			}
			monoPSNR[k] = est.PSNR
			if est.PSNR > floorPSNR {
				floorIdx, floorPSNR, floorEst = ci, est.PSNR, est
			}
			if opts.MinPSNR > 0 && est.PSNR < opts.MinPSNR {
				continue
			}
			score := scoreCandidate(est, raw, opts)
			// Ties are common: tree plateaus, and without a link every
			// candidate of one codec costs the same seconds. They resolve to
			// the fewer predicted bytes, then to the looser bound, so the
			// higher-ratio predictor wins whatever the candidate order.
			better := score < bestScore*(1-1e-9)
			if !better && best >= 0 && score <= bestScore*(1+1e-9) {
				nb, bb := predBytes(raw, est.Ratio), predBytes(raw, bestEst.Ratio)
				better = nb < bb || (nb == bb && c.RelEB > scoreable[best].RelEB)
			}
			if better {
				best, bestScore, bestEst = ci, math.Min(bestScore, score), est
			}
		}
		if best < 0 {
			// No candidate meets the floor even by prediction: take the
			// candidate predicted closest to it and flag the compromise.
			best, bestEst = floorIdx, floorEst
			fp.Fallback = true
		}
		fp.RelEB, fp.Predictor = scoreable[best].RelEB, normPred(scoreable[best].Predictor)
		fp.Codec = normCodec(scoreable[best].Codec)
		fp.PredRatio = bestEst.Ratio
		fp.PredPSNR = bestEst.PSNR
		fp.PredSec = bestEst.Seconds
		fp.PredBytes = predBytes(raw, bestEst.Ratio)
		plan.Fields[i] = fp
		predSizes[i] = fp.PredBytes
	}

	// Campaign-level accounting + the grouping decision. Compression wall
	// time is parallelism-aware: per-field seconds spread over the workers,
	// with a field's divisibility limited by its chunk count — a monolithic
	// wide field floors the wall at its own duration, chunking lifts that
	// floor (the tentpole win on wide endpoints).
	secs := make([]float64, 0, len(plan.Fields))
	chunks := make([]int, 0, len(plan.Fields))
	remSizes := make([]int64, 0, len(plan.Fields))
	for i, fp := range plan.Fields {
		if fp.Done {
			continue
		}
		plan.PredBytes += fp.PredBytes
		secs = append(secs, fp.PredSec)
		nChunks := len(sz.PlanChunksBytes(fields[i].Dims, opts.ChunkBytes, fields[i].ElementSize))
		chunks = append(chunks, nChunks)
		remSizes = append(remSizes, predSizes[i])
		if opts.ChunkBytes > 0 {
			// Monolithic plans keep Chunks at 0: the artifact field means
			// "fan-out chunks", not "one pseudo-chunk per field".
			plan.Chunks += nChunks
		}
	}
	plan.Workers = opts.Workers
	plan.ChunkBytes = opts.ChunkBytes
	if len(remSizes) == 0 {
		// Everything already done: a degenerate resume plan with nothing to
		// price and nothing to group.
		plan.GroupParam = 1
		return plan, nil
	}
	plan.PredCompressSec = ParallelCompressSec(secs, chunks, opts.Workers, DefaultChunkOverheadFrac)
	if plan.PredBytes > 0 {
		plan.PredRatio = float64(plan.RawBytes) / float64(plan.PredBytes)
	}
	if err := decideGrouping(plan, remSizes, opts); err != nil {
		return nil, err
	}
	return plan, nil
}

// ParallelCompressSec predicts the wall seconds to compress fields whose
// single-worker times are secs[i] on `workers` parallel workers, when field
// i is divisible into chunks[i] independent tasks. It is the standard
// list-scheduling lower bound, max(total work / workers, longest
// indivisible task), with a fractional overhead charged to every field that
// actually splits (chunks[i] > 1):
//
//	task_i = secs[i]·(1+overhead)/chunks[i]
//	wall   = max(Σ chunks[i]·task_i / workers, max_i task_i)
//
// With chunks[i] = 1 everywhere this reduces to the monolithic model: a
// single wide field floors the wall at its own duration no matter how many
// workers there are. Chunking divides that floor by the chunk count —
// which is exactly why the planner's grouping and adaptive decisions shift
// when wide endpoints can be exploited.
// overheadFrac ≤ 0 selects DefaultChunkOverheadFrac.
func ParallelCompressSec(secs []float64, chunks []int, workers int, overheadFrac float64) float64 {
	if workers < 1 {
		workers = 1
	}
	if overheadFrac <= 0 {
		overheadFrac = DefaultChunkOverheadFrac
	}
	var total, maxTask float64
	for i, s := range secs {
		c := 1
		if i < len(chunks) && chunks[i] > 1 {
			c = chunks[i]
			s *= 1 + overheadFrac
		}
		task := s / float64(c)
		total += s
		if task > maxTask {
			maxTask = task
		}
	}
	return math.Max(total/float64(workers), maxTask)
}

// scoreCandidate is the per-field share of predicted end-to-end seconds:
// its compression time divided across the workers, plus its bytes at the
// link's aggregate bandwidth. Per-file WAN overhead is deliberately left
// out here — grouping amortizes it, and decideGrouping accounts for it on
// the realized archives.
func scoreCandidate(est *quality.Estimate, rawBytes int64, opts Options) float64 {
	score := est.Seconds / float64(opts.Workers)
	if opts.Link != nil {
		score += float64(predBytes(rawBytes, est.Ratio)) / 1e6 / opts.Link.BandwidthMBps
	}
	return score
}

// normPred resolves the candidate convention that a zero predictor means
// interp, so plans always record the pipeline that actually runs.
func normPred(p sz.Predictor) sz.Predictor {
	if p == 0 {
		return sz.PredictorInterp
	}
	return p
}

// normCodec resolves the candidate convention that an empty codec means
// the default, so plans always record the codec that actually runs.
func normCodec(name string) string {
	if name == "" {
		return codec.DefaultName
	}
	return name
}

// predBytes converts a predicted ratio into a predicted compressed size.
func predBytes(raw int64, ratio float64) int64 {
	if ratio <= 1 {
		return raw
	}
	b := int64(float64(raw) / ratio)
	if b < 1 {
		b = 1
	}
	return b
}

// decideGrouping chooses the group count minimizing the predicted
// pipelined wall, making the grouping knob part of the plan. For each
// candidate count (1, Workers, 2·Workers, and one group per field) it
// estimates the transfer makespan T(G) over the predicted archive sizes
// with the link model, then scores the pipelined wall
// max(C, T) + min(C, T)/G: one archive (G=1) serializes compression
// and transfer, while more archives let the shorter stage hide inside the
// longer — at the cost of per-archive WAN overhead, which T(G) already
// charges. Ties resolve to the larger count (more overlap headroom).
// Without a link the compute-parallel default (one group per worker) is
// used and the plan predicts no transfer time.
func decideGrouping(plan *Plan, predSizes []int64, opts Options) error {
	n := len(predSizes)
	if opts.Link == nil {
		plan.GroupParam = int64(min(opts.Workers, n))
		plan.PredWallSec = plan.PredCompressSec
		return nil
	}
	tried := map[int]bool{}
	bestWall := math.Inf(1)
	for _, g := range []int{1, opts.Workers, 2 * opts.Workers, n} {
		g = min(g, n)
		if tried[g] {
			continue
		}
		tried[g] = true
		idxPlan, err := grouping.Plan(predSizes, grouping.ByWorldSize, int64(g))
		if err != nil {
			return fmt.Errorf("planner: grouping %d: %w", g, err)
		}
		est, err := opts.Link.Estimate(grouping.GroupSizes(predSizes, idxPlan), opts.Seed)
		if err != nil {
			return err
		}
		c, tr := plan.PredCompressSec, est.Seconds
		wall := math.Max(c, tr) + math.Min(c, tr)/float64(g)
		better := wall < bestWall*(1-1e-9)
		tied := !better && wall <= bestWall*(1+1e-9)
		if better || (tied && int64(g) > plan.GroupParam) {
			bestWall = math.Min(bestWall, wall)
			plan.GroupParam = int64(g)
			plan.PredTransferSec = tr
			plan.PredWallSec = wall
		}
	}
	return nil
}

// FixedBaseline returns the largest candidate relative error bound whose
// predicted PSNR meets the quality floor for every field — the best a
// single global-bound campaign can do under the same constraint, and the
// honest baseline an adaptive plan is compared against. With no usable
// model or floor it returns the most conservative candidate bound.
func FixedBaseline(fields []*datagen.Field, model *quality.Model, opts Options) (float64, error) {
	if len(fields) == 0 {
		return 0, errors.New("planner: no fields")
	}
	opts = opts.withDefaults()
	cands, err := feasibleCandidates(opts)
	if err != nil {
		return 0, err
	}
	// Distinct bounds, descending.
	bounds := make([]float64, 0, len(cands))
	for _, c := range cands {
		if len(bounds) == 0 || bounds[len(bounds)-1] != c.RelEB {
			bounds = append(bounds, c.RelEB)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(bounds)))
	if opts.MinPSNR <= 0 || model == nil || model.PSNR == nil {
		return bounds[len(bounds)-1], nil
	}
	for _, eb := range bounds {
		ok := true
		for _, f := range fields {
			est, err := model.EstimateField(f.Data, f.Dims, eb, 0)
			if err != nil {
				return 0, err
			}
			if est.PSNR < opts.MinPSNR {
				ok = false
				break
			}
		}
		if ok {
			return eb, nil
		}
	}
	return bounds[len(bounds)-1], nil
}

// TrainFromSweep collects ground truth for every distinct codec,
// predictor, and error bound in the candidate grid over the training
// fields (with PSNR, since the floor needs it) and fits the quality model
// — the "train one from a quick sweep" path when no pre-trained predictor
// is available. Each codec in the grid gets its own tree set (the default
// codec's at the model's top level), because the feature→outcome mapping
// is codec-specific. Training fields are typically shrunken stand-ins;
// the features generalize across scales. The ratio and PSNR trees are
// deterministic in the inputs. Speed is one measured throughput per codec,
// so only a codec choice near a link's szx/sz3 crossover can move between
// sweeps; the bound and predictor inside a codec never do.
func TrainFromSweep(train []*datagen.Field, candidates []Candidate, params dtree.Params) (*quality.Model, error) {
	if candidates == nil {
		candidates = DefaultCandidates()
	}
	if params.MaxDepth == 0 {
		params.MaxDepth = 14
	}
	byCodec := map[string]map[sz.Predictor][]float64{}
	for _, c := range candidates {
		name := normCodec(c.Codec)
		if byCodec[name] == nil {
			byCodec[name] = map[sz.Predictor][]float64{}
		}
		p := normPred(c.Predictor)
		byCodec[name][p] = append(byCodec[name][p], c.RelEB)
	}
	// Deterministic codec/predictor order: sample order feeds the tree
	// trainer, whose tie-breaks depend on it, and plans must reproduce run
	// to run. The default codec trains first and owns the top-level trees.
	codecNames := make([]string, 0, len(byCodec))
	for name := range byCodec {
		codecNames = append(codecNames, name)
	}
	sort.SliceStable(codecNames, func(i, j int) bool {
		if (codecNames[i] == codec.DefaultName) != (codecNames[j] == codec.DefaultName) {
			return codecNames[i] == codec.DefaultName
		}
		return codecNames[i] < codecNames[j]
	})
	var model *quality.Model
	for _, name := range codecNames {
		byPred := byCodec[name]
		preds := make([]sz.Predictor, 0, len(byPred))
		for p := range byPred {
			preds = append(preds, p)
		}
		sort.Slice(preds, func(i, j int) bool { return preds[i] < preds[j] })
		var samples []quality.Sample
		for _, p := range preds {
			ebs := byPred[p]
			sort.Float64s(ebs)
			dedup := ebs[:0]
			for _, eb := range ebs {
				if len(dedup) == 0 || dedup[len(dedup)-1] != eb {
					dedup = append(dedup, eb)
				}
			}
			s, err := quality.Collect(train, quality.CollectOptions{
				ErrorBounds: dedup,
				Predictor:   p,
				Codec:       name,
				WithPSNR:    true,
			})
			if err != nil {
				return nil, err
			}
			samples = append(samples, s...)
		}
		sub, err := quality.Train(samples, params)
		if err != nil {
			return nil, fmt.Errorf("planner: train %s: %w", name, err)
		}
		if model == nil {
			model = sub
			model.DefaultCodec = name
			continue
		}
		if model.Codecs == nil {
			model.Codecs = map[string]*quality.Model{}
		}
		model.Codecs[name] = sub
	}
	return model, nil
}

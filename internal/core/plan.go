package core

import (
	"context"
	"fmt"

	"ocelot/internal/datagen"
	"ocelot/internal/grouping"
	"ocelot/internal/journal"
	"ocelot/internal/obs"
	"ocelot/internal/planner"
	"ocelot/internal/sz"
)

// resolvedPlanner fills Planner defaults from the campaign context: the
// assumed parallelism is Workers (the compress stage's width, over fields
// or chunks alike), the chunk granularity follows ChunkMB, and the link
// defaults to the simulated transport's, so the plan predicts the campaign
// that will actually run.
func (s CampaignSpec) resolvedPlanner() planner.Options {
	p := s.Planner
	if p.Workers <= 0 {
		p.Workers = s.Workers
	}
	if p.ChunkBytes == 0 {
		p.ChunkBytes = s.chunkBytes()
	}
	if p.Link == nil {
		if st, ok := s.Transport.(*SimulatedWANTransport); ok {
			p.Link = st.Link
		}
	}
	return p
}

// PlanSpec runs only the plan stage of an adaptive spec: the cheap
// sampling pass over every field, quality predictions across the
// candidate grid, and the grouping decision. The returned plan is what an
// Adaptive Submit/Run would execute.
func PlanSpec(fields []*datagen.Field, spec CampaignSpec) (*planner.Plan, error) {
	return planner.Build(fields, spec.Model, spec.resolvedPlanner())
}

// run executes the handle's campaign end to end: load the journal a resume
// names, run the adaptive plan pass when the spec asks for one, then the
// stage graph.
func (h *Campaign) run(ctx context.Context, spec CampaignSpec) (*CampaignResult, error) {
	var m *journal.Manifest
	if spec.ResumeFrom != "" {
		var err error
		if m, err = journal.Load(spec.ResumeFrom); err != nil {
			return nil, fmt.Errorf("core: resume: %w", err)
		}
		if len(m.Fields) != len(h.fields) {
			return nil, fmt.Errorf("core: journal %s records %d fields, campaign has %d",
				spec.ResumeFrom, len(m.Fields), len(h.fields))
		}
	}
	if !spec.Adaptive {
		return h.execute(ctx, spec, nil, m)
	}

	h.advance(CampaignPlanning, nil)
	planStart := h.now()
	plan, settings, err := planPass(ctx, h.fields, &spec, m)
	if err != nil {
		return nil, err
	}
	planSec := h.now().Sub(planStart).Seconds()
	if err := ctx.Err(); err != nil {
		// A campaign cancelled during its plan pass must not start moving
		// bytes.
		return nil, err
	}

	res, err := h.execute(ctx, spec, settings, m)
	if err != nil {
		return nil, err
	}
	res.Planned = true
	res.PlanSec = planSec
	res.Plan = plan
	res.PredRatio = plan.PredRatio
	res.PredCompressSec = plan.PredCompressSec
	res.PredTransferSec = plan.PredTransferSec
	res.PredWallSec = plan.PredWallSec
	if link := spec.resolvedPlanner().Link; link != nil && len(res.GroupBytes) > 0 {
		est, err := link.Estimate(res.GroupBytes, spec.Planner.Seed)
		if err != nil {
			return nil, err
		}
		res.LinkEstSec = est.Seconds
	}
	return res, nil
}

// planPass builds the plan and turns it into what the engine executes:
// per-field settings, and the grouping knobs written into spec. A resumed
// adaptive campaign is never re-planned — its settings and grouping are
// pinned from the journal's begin record, so the resumed half is
// byte-compatible with the completed half — and the plan only re-prices
// the REMAINING work (Done mask), so predicted-vs-actual stays meaningful
// for the resume itself.
func planPass(ctx context.Context, fields []*datagen.Field, spec *CampaignSpec, m *journal.Manifest) (*planner.Plan, []fieldSetting, error) {
	_, span := spec.Obs.StartSpan(ctx, "plan", obs.Int("fields", int64(len(fields))))
	defer span.End()
	popts := spec.resolvedPlanner()
	if m != nil {
		popts.Done, _ = m.DoneFields()
	}
	plan, err := planner.Build(fields, spec.Model, popts)
	if err != nil {
		return nil, nil, err
	}
	settings := make([]fieldSetting, len(fields))
	if m != nil {
		spec.GroupStrategy, spec.GroupParam = grouping.Strategy(m.Strategy), m.GroupParam
		for i, fp := range m.Fields {
			settings[i] = fieldSetting{relEB: fp.RelEB, predictor: sz.Predictor(fp.Predictor), codec: fp.Codec}
		}
	} else {
		spec.GroupStrategy, spec.GroupParam = plan.GroupStrategy, plan.GroupParam
		for i, fp := range plan.Fields {
			settings[i] = fieldSetting{relEB: fp.RelEB, predictor: fp.Predictor, codec: fp.Codec}
		}
	}
	return plan, settings, nil
}

package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"strings"

	"ocelot/internal/codec"
	"ocelot/internal/core"
	"ocelot/internal/datagen"
	"ocelot/internal/journal"
	"ocelot/internal/planner"
	"ocelot/internal/sentinel"
	"ocelot/internal/sz"
)

// SubmitRequest is the one campaign request: the POST /v1/campaigns body,
// what `ocelot campaign`, `submit` and `plan` bind their flags onto, and
// what every journal stores, so a campaign can be rebuilt from its journal
// alone (LoadJournal). It names the submitting tenant, how to synthesize
// the campaign's fields, and the campaign spec.
type SubmitRequest struct {
	// Tenant names the submitting tenant ("" = "default").
	Tenant string `json:"tenant"`
	// Priority orders the tenant's queue; higher runs first.
	Priority int `json:"priority"`
	// App, Fields, Shrink, Seed parameterize the synthetic dataset
	// (datagen.GenerateFirst over the app's field list). Fields ≤ 0 means
	// 4, Shrink ≤ 0 means 24, App "" means CESM. The daemon rejects Shrink
	// values in [1, MinShrink): they ask it to materialize near-paper-scale
	// fields on behalf of a remote caller.
	App    string `json:"app"`
	Fields int    `json:"fields"`
	Shrink int    `json:"shrink"`
	Seed   int64  `json:"seed"`
	// Spec describes the campaign itself.
	Spec SpecRequest `json:"spec"`
}

// SpecRequest is the wire form of core.CampaignSpec: the knobs a submitter
// controls. The front end owns the rest (transport, tenant weight,
// tracing, the trained model of an adaptive campaign). Keys it does not
// name are ignored, so bodies and stored requests that still carry a key
// an earlier build read (such as "engine") decode.
type SpecRequest struct {
	// RelErrorBound is the relative error bound (> 0 unless Adaptive).
	RelErrorBound float64 `json:"relErrorBound"`
	// Codec names the compressor ("" = sz3); with Adaptive, a
	// comma-separated candidate grid.
	Codec string `json:"codec"`
	// Predictor is the sz predictor name ("" = interp).
	Predictor string `json:"predictor"`
	// Workers bounds compression parallelism; ≤ 0 = 4.
	Workers int `json:"workers"`
	// Groups is the by-world-size group count (0 = worker count).
	Groups int64 `json:"groups"`
	// Streams is the transfer-stream count (0 = link concurrency).
	Streams int `json:"streams"`
	// ChunkMB > 0 fans compression out chunk-wise (raw MB per chunk) over
	// the Workers-wide compress stage.
	ChunkMB float64 `json:"chunkMB"`
	// Retries bounds attempts per transient or corrupted send (≤ 1 = one).
	Retries int `json:"retries,omitempty"`
	// Quarantine re-ships bound-violating fields lossless, not failing.
	Quarantine bool `json:"quarantine,omitempty"`
	// Adaptive has the planner choose per-field settings. It needs a
	// trained model, which the daemon does not have, so it refuses it.
	Adaptive bool `json:"adaptive,omitempty"`
	// MinPSNR is the adaptive quality floor in dB (0 disables).
	MinPSNR float64 `json:"minPSNR,omitempty"`
	// MaxRelEB caps any adaptive field's relative bound (0 disables).
	MaxRelEB float64 `json:"maxRelEB,omitempty"`
}

// The request's defaults: Resolve (or core, for Workers) fills an unset
// knob with these, and BindFlags shows them as the flag defaults.
const (
	defaultApp    = "CESM"
	defaultFields = 4
	defaultShrink = 24
)

// Flag groups for BindFlags. Every command binds the dataset and
// parallelism flags; RunFlags adds how a campaign runs (-eb, -predictor,
// -groups, -streams, -retries, -quarantine), PlanFlags the planner's
// limits (-min-psnr, -max-releb), and the two together -adaptive.
const (
	RunFlags = 1 << iota
	PlanFlags
)

// metaSubmit is the journal-meta key under which a campaign's request is
// stored, so LoadJournal can rebuild its fields and spec from the journal
// alone.
const metaSubmit = "submit"

var (
	// ErrNoRequest marks a journal that stores no campaign request (one
	// written by an older build): only the caller can say what it was.
	ErrNoRequest = errors.New("serve: journal stores no campaign request")
	// ErrJournalDone marks a journal whose campaign finished: there is
	// nothing left to resume.
	ErrJournalDone = errors.New("serve: journal's campaign already finished")
)

// BindFlags registers the request's flags in the groups a command reads:
// `ocelot campaign` binds both, `submit` RunFlags, `plan` PlanFlags. A
// flag defaults to what Resolve makes of an unset knob, but the seed,
// bound and quality floor, which the wire format leaves at zero, start at
// 3, 1e-3 and 70 dB.
func (r *SubmitRequest) BindFlags(fs *flag.FlagSet, groups int) {
	s := &r.Spec
	fs.StringVar(&r.App, "app", defaultApp, "application whose fields to campaign (CESM, Miranda, RTM, Nyx, ISABEL, QMCPACK, HACC)")
	fs.IntVar(&r.Fields, "fields", defaultFields, "number of fields")
	fs.IntVar(&r.Shrink, "shrink", defaultShrink, "divide paper dimensions by this factor")
	fs.Int64Var(&r.Seed, "seed", 3, "generator seed")
	fs.StringVar(&s.Codec, "codec", codec.DefaultName, "compressor; an adaptive plan takes a comma-separated candidate grid (e.g. sz3,szx); valid: "+strings.Join(codec.Names(), ", "))
	fs.IntVar(&s.Workers, "workers", core.DefaultWorkers, "compression/decompression workers")
	fs.Float64Var(&s.ChunkMB, "chunk-mb", 0, "chunk-parallel compression: raw MB per chunk, each chunk one compress-worker item (0 = monolithic fields)")
	if groups&RunFlags != 0 {
		fs.Float64Var(&s.RelErrorBound, "eb", 1e-3, "relative error bound")
		fs.StringVar(&s.Predictor, "predictor", sz.PredictorInterp.String(), "sz3 predictor: "+strings.Join(sz.PredictorNames(), " | "))
		fs.Int64Var(&s.Groups, "groups", 0, "group count, by-world-size packing (0 = -workers; an adaptive plan decides its own)")
		fs.IntVar(&s.Streams, "streams", 0, "archives in flight at once (0 = link concurrency)")
		fs.IntVar(&s.Retries, "retries", 0, "max attempts per transient failure, including retransmits of corrupted archives (0 = one attempt)")
		fs.BoolVar(&s.Quarantine, "quarantine", false, "re-ship bound-violating fields lossless instead of failing the campaign")
	}
	if groups&PlanFlags != 0 {
		fs.Float64Var(&s.MinPSNR, "min-psnr", 70, "adaptive quality floor in dB (0 disables)")
		fs.Float64Var(&s.MaxRelEB, "max-releb", 0, "adaptive cap on any field's relative error bound (0 disables)")
	}
	if groups == RunFlags|PlanFlags {
		fs.BoolVar(&s.Adaptive, "adaptive", false, "plan per-field bounds/predictors/codecs/grouping with the quality predictor")
	}
}

// Resolve turns the request into the fields it describes and the spec
// that moves them, filling every unset knob with its one default. The
// spec is validated before any field is synthesized, and carries the
// request as journal metadata, so a journaled run can be rebuilt from its
// journal (LoadJournal). An adaptive spec has no Model: the caller trains
// one, or resumes, which pins the plan from the journal.
func (r SubmitRequest) Resolve() ([]*datagen.Field, core.CampaignSpec, error) {
	s := r.Spec
	pred, err := sz.ParsePredictor(s.Predictor)
	if err != nil {
		return nil, core.CampaignSpec{}, err
	}
	spec := core.CampaignSpec{
		RelErrorBound:   s.RelErrorBound,
		Predictor:       pred,
		Codec:           s.Codec,
		Workers:         s.Workers,
		GroupParam:      s.Groups,
		TransferStreams: s.Streams,
		ChunkMB:         s.ChunkMB,
		Retry:           sentinel.RetryPolicy{MaxAttempts: s.Retries},
		BoundAudit:      core.BoundAudit{Quarantine: s.Quarantine},
	}
	if s.Adaptive {
		// The plan decides per-field codecs; the list is its candidate grid.
		if spec.Planner.Candidates, err = planner.CodecCandidates(strings.Split(s.Codec, ",")); err != nil {
			return nil, spec, err
		}
		spec.Codec = ""
		spec.Adaptive = true
		spec.Planner.MinPSNR, spec.Planner.MaxRelEB, spec.Planner.Seed = s.MinPSNR, s.MaxRelEB, r.Seed
	} else if strings.Contains(s.Codec, ",") {
		return nil, spec, fmt.Errorf("serve: codec accepts a list only with adaptive (got %q)", s.Codec)
	}
	if err := spec.Validate(); err != nil {
		return nil, spec, err
	}
	raw, err := json.Marshal(r)
	if err != nil {
		return nil, spec, fmt.Errorf("serve: %w", err)
	}
	spec.JournalMeta = map[string]string{metaSubmit: string(raw)}

	fields, err := datagen.GenerateFirst(cmp.Or(r.App, defaultApp),
		cmp.Or(max(r.Fields, 0), defaultFields), cmp.Or(max(r.Shrink, 0), defaultShrink), r.Seed)
	if err != nil {
		return nil, spec, fmt.Errorf("serve: %w", err)
	}
	return fields, spec, nil
}

// LoadJournal rebuilds the campaign the journal at path records: it
// decodes the request the journal stores and resolves it, with the spec
// set to resume from path and to keep journaling there. It is the one way
// back from a journal to a campaign, shared by Server.Recover and `ocelot
// campaign -resume`. A finished journal gives ErrJournalDone, one without
// a stored request ErrNoRequest.
func LoadJournal(path string) (req SubmitRequest, fields []*datagen.Field, spec core.CampaignSpec, err error) {
	m, err := journal.Load(path)
	if err != nil {
		return req, nil, spec, err
	}
	if m.Done {
		return req, nil, spec, ErrJournalDone
	}
	raw, ok := m.Meta[metaSubmit]
	if !ok {
		return req, nil, spec, ErrNoRequest
	}
	if err := json.Unmarshal([]byte(raw), &req); err != nil {
		return req, nil, spec, fmt.Errorf("serve: stored request: %w", err)
	}
	if fields, spec, err = req.Resolve(); err != nil {
		return req, nil, spec, err
	}
	spec.Journal, spec.ResumeFrom = path, path
	return req, fields, spec, nil
}

package core

import (
	"fmt"

	"ocelot/internal/codec"
	"ocelot/internal/journal"
	"ocelot/internal/sz"
)

// prepare resolves the spec's defaults and builds the run: one fieldJob per
// field (campaign-level settings, overridden per field by plan decisions,
// and with ChunkMB its chunk plan), the set of fields to execute, and —
// for journaled campaigns — the spec fingerprint, checked against the
// manifest on a resume. Every codec name is resolved against the registry
// here, before any compression starts.
func prepare(h *Campaign, spec CampaignSpec, settings []fieldSetting, m *journal.Manifest) (*campaign, error) {
	spec, err := spec.resolved()
	if err != nil {
		return nil, err
	}
	journaling := spec.Journal != "" || m != nil
	c := &campaign{
		h:        h,
		spec:     spec,
		jobs:     make([]fieldJob, len(h.fields)),
		byName:   make(map[string]int, len(h.fields)),
		active:   make([]int, 0, len(h.fields)),
		planned:  settings != nil,
		digestOn: spec.ChunkMB > 0 || journaling,
		manifest: m,
		res:      &CampaignResult{Files: len(h.fields), RawBytes: h.rawBytes, Codec: spec.Codec},
	}
	for i, f := range h.fields {
		j := &c.jobs[i]
		*j = fieldJob{field: f, name: f.ID() + ".sz", relEB: spec.RelErrorBound, pred: spec.Predictor}
		codecName := spec.Codec
		if settings != nil && settings[i].relEB > 0 {
			s := settings[i]
			j.relEB = s.relEB
			if s.predictor != 0 {
				j.pred = s.predictor
			}
			if s.codec != "" {
				codecName = s.codec
			}
		}
		if j.relEB <= 0 {
			return nil, fmt.Errorf("core: field %d has no error bound", i)
		}
		if j.codec, err = codec.Lookup(codecName); err != nil {
			return nil, fmt.Errorf("core: field %d: %w", i, err)
		}
		if chunkBytes := spec.chunkBytes(); chunkBytes > 0 {
			// A shapeless field plans no chunks: it compresses whole, and
			// its codec reports the shape.
			j.chunks = sz.PlanChunksBytes(f.Dims, chunkBytes, f.ElementSize)
		}
		// Report the codec the campaign actually ran: the common per-field
		// codec, or "mixed" when a plan split the fields across codecs.
		if i == 0 {
			c.res.Codec = codecName
		} else if codecName != c.res.Codec {
			c.res.Codec = "mixed"
		}
		c.byName[j.name] = i
	}
	c.ship = &shipper{
		transports: append([]Transport{spec.Transport}, spec.FallbackTransports...),
		spec:       &c.spec,
		now:        h.now,
		led:        h.led,
	}
	if o := spec.Obs; o != nil {
		for _, tr := range c.ship.transports {
			if st, ok := tr.(*SimulatedWANTransport); ok {
				st.adoptMetrics(o.Metrics)
			}
		}
	}

	if journaling {
		c.specHash = c.fingerprint()
	}
	if m == nil {
		for i := range c.jobs {
			c.active = append(c.active, i)
		}
		return c, nil
	}
	// Resume: the manifest says which fields acked groups already cover;
	// only the rest is re-executed, and the fingerprint refuses a journal
	// written under a different spec.
	for i, fp := range m.Fields {
		if fp.Name != c.jobs[i].name {
			return nil, fmt.Errorf("core: journal field %d is %q, campaign has %q", i, fp.Name, c.jobs[i].name)
		}
	}
	if err := m.CheckSpec(c.specHash); err != nil {
		return nil, fmt.Errorf("core: resume %s: %w", spec.ResumeFrom, err)
	}
	done, digests, degraded := m.DoneFields()
	for i := range c.jobs {
		c.jobs[i].digest = digests[i]
		c.jobs[i].quarantined = degraded[i]
		if !done[i] {
			c.active = append(c.active, i)
		} else if degraded[i] {
			// A skipped field's quarantine happened in an earlier
			// incarnation; the books count it, as the result lists it.
			h.led.degradedFields.add(1)
		}
	}
	c.res.Resumed = true
	c.res.SkippedGroups = m.AckedGroups()
	c.res.SkippedBytes = m.AckedBytes()
	return c, nil
}

// openJournal opens the run's journal writer, if the spec names one. A
// resumed incarnation extending its own journal appends to it; anything
// else starts a fresh journal, replaying the manifest's acked state into it
// on a resume so the new file stands alone.
func (c *campaign) openJournal() error {
	path, m := c.spec.Journal, c.manifest
	if path == "" {
		return nil
	}
	var jw *journal.Writer
	var err error
	if m != nil && path == c.spec.ResumeFrom {
		if jw, err = journal.OpenAppend(path); err == nil {
			err = jw.Resume()
		}
	} else {
		plans := make([]journal.FieldPlan, len(c.jobs))
		for i := range c.jobs {
			j := &c.jobs[i]
			plans[i] = journal.FieldPlan{Name: j.name, RelEB: j.relEB, Predictor: int(j.pred), Codec: j.codec.Name()}
		}
		if jw, err = journal.Create(path); err == nil {
			err = jw.Begin(c.specHash, "pipelined", int(c.spec.GroupStrategy), c.spec.GroupParam, plans, c.spec.JournalMeta)
		}
		if err == nil && m != nil {
			err = replayAcked(jw, m)
		}
	}
	if err != nil {
		if jw != nil {
			jw.Close()
		}
		return fmt.Errorf("core: journal %s: %w", path, err)
	}
	if o := c.spec.Obs; o != nil {
		jw.SetMetrics(o.Metrics)
	}
	c.jw = jw
	return nil
}

package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ocelot/internal/codec"
	"ocelot/internal/datagen"
	"ocelot/internal/faas"
	"ocelot/internal/grouping"
	"ocelot/internal/integrity"
	"ocelot/internal/journal"
	"ocelot/internal/lossless"
	"ocelot/internal/metrics"
	"ocelot/internal/obs"
	"ocelot/internal/pipeline"
	"ocelot/internal/sentinel"
	"ocelot/internal/sz"
)

// StageTiming is the per-stage ledger threaded into CampaignResult.
type StageTiming = pipeline.StageStats

// PipelineOptions configures the streaming campaign engine.
//
// Deprecated: new code should build a CampaignSpec and call Run or Submit;
// PipelineOptions survives as the compatibility surface for the original
// RunPipelinedCampaign / RunSequentialCampaign API.
type PipelineOptions struct {
	CampaignOptions
	// Transport ships packed archives; nil means NopTransport (in-process).
	Transport Transport
	// TransferStreams is the number of goroutines offering archives to the
	// transport at once — the Globus "concurrency" knob. ≤ 0 defaults to
	// the transport's own hint (a simulated WAN hints its link's
	// concurrency), else 4. Streams beyond the link's concurrency do not
	// add bandwidth: SimulatedWANTransport admits at most
	// Link.Concurrency sends at a time and queues the rest.
	TransferStreams int
	// StageBuffer is the capacity of the channels between stages; ≤ 0
	// means the worker count (enough slack to decouple stage cadences
	// without unbounded buffering).
	StageBuffer int
	// ChunkMB, when > 0, enables chunk-parallel compression: every field is
	// decomposed into ~ChunkMB-of-raw-data blocks (sz.PlanChunks) that are
	// batch-submitted to an in-process funcX-style endpoint and compressed
	// by its workers concurrently, so a single wide field no longer
	// serializes on one worker. The assembled chunked container is
	// byte-identical for any worker count (see sz.AssembleChunks).
	ChunkMB float64
	// CompressWorkers is the fan-out endpoint's worker count (the effective
	// compression parallelism when ChunkMB > 0); ≤ 0 defaults to Workers.
	CompressWorkers int
	// ChunkEndpoint tunes the deployed fan-out endpoint — cold/warm start
	// costs (the fabric's container-warming model) and queue depth. Its
	// Workers field is overridden by CompressWorkers. Ignored when
	// ChunkMB ≤ 0.
	ChunkEndpoint faas.EndpointConfig
}

// campaignMode selects between the barrier (classic) and streaming
// (pipelined) execution of the shared stage graph.
type campaignMode struct {
	pipelined       bool
	sequential      bool // hard barrier between transfer and decompress too
	transport       Transport
	transferStreams int
	buffer          int
	// perField overrides the global RelErrorBound/Predictor with planner
	// decisions, one entry per field (planned campaigns).
	perField []fieldSetting
	// measurePSNR also scores reconstruction PSNR in the verify stage so
	// planned campaigns can report predicted-vs-actual quality.
	measurePSNR bool
	// chunkBytes > 0 fans compression out chunk-wise over a faas endpoint
	// with compressWorkers workers tuned by endpoint.
	chunkBytes      int64
	compressWorkers int
	endpoint        faas.EndpointConfig
	// weight > 0 ships archives via SendWeighted on weighted transports, so
	// a multi-tenant scheduler can give campaigns proportional link shares.
	weight float64
	// journalPath, when non-empty, persists a durable manifest
	// (internal/journal) of every packed/sent/acked group; resumePath names
	// the journal a resumed campaign loads; journalMeta is stamped into the
	// begin record; manifest is the loaded resume state (runSpec fills it
	// when resumePath is set).
	journalPath string
	resumePath  string
	journalMeta map[string]string
	manifest    *journal.Manifest
	// retry and fallbacks make the transfer stage (and the chunk fan-out)
	// fault-tolerant: transient errors retry with exponential backoff, and
	// an exhausted or permanently failed transport fails over to the next.
	retry     sentinel.RetryPolicy
	fallbacks []Transport
	// observe, when set, receives the run's pipeline group right after
	// creation — the campaign handle uses it to serve live Stats snapshots.
	observe func(*pipeline.Group)
	// progress, when set, receives live transfer counters for Status.
	progress *campaignProgress
	// obs, when set, records lifecycle spans and campaign metrics
	// (CampaignSpec.Obs). nil costs pointer checks only.
	obs *obs.Obs
	// integrity frames every packed archive with CRC-32C digests at pack
	// time and verifies the frame before decompressing (on unless
	// CampaignSpec.NoIntegrity); audit tunes the post-decompress pointwise
	// bound audit and its quarantine escape.
	integrity bool
	audit     BoundAudit
}

// campaignMetrics holds the campaign counters resolved once per run, so
// the stage hot paths pay an atomic add — not a registry lookup — per
// event. All fields are nil (no-op) when the spec carries no registry.
type campaignMetrics struct {
	rawBytes        *obs.Counter   // campaign_raw_bytes_total
	compressedBytes *obs.Counter   // campaign_compressed_bytes_total
	sentBytes       *obs.Counter   // campaign_sent_bytes_total
	groups          *obs.Counter   // campaign_groups_total
	chunks          *obs.Counter   // campaign_chunks_total
	fields          *obs.Counter   // campaign_fields_total
	sendSeconds     *obs.Histogram // campaign_send_seconds
	corruptions     *obs.Counter   // campaign_corruption_detected_total
	retransmits     *obs.Counter   // campaign_retransmits_total
	auditFailures   *obs.Counter   // campaign_bound_audit_failures_total
	degradedFields  *obs.Counter   // campaign_degraded_fields_total
}

// newCampaignMetrics resolves the campaign metric family against the
// bundle's registry (all-nil when absent).
func newCampaignMetrics(o *obs.Obs) campaignMetrics {
	return campaignMetrics{
		rawBytes:        o.Counter("campaign_raw_bytes_total"),
		compressedBytes: o.Counter("campaign_compressed_bytes_total"),
		sentBytes:       o.Counter("campaign_sent_bytes_total"),
		groups:          o.Counter("campaign_groups_total"),
		chunks:          o.Counter("campaign_chunks_total"),
		fields:          o.Counter("campaign_fields_total"),
		sendSeconds:     o.Histogram("campaign_send_seconds"),
		corruptions:     o.Counter("campaign_corruption_detected_total"),
		retransmits:     o.Counter("campaign_retransmits_total"),
		auditFailures:   o.Counter("campaign_bound_audit_failures_total"),
		degradedFields:  o.Counter("campaign_degraded_fields_total"),
	}
}

// campaignProgress carries the live mid-run counters a Campaign handle's
// Status surfaces; the stage workers update it atomically.
type campaignProgress struct {
	sentBytes     atomic.Int64 // archive bytes accepted by the transport
	sentGroups    atomic.Int64 // archives shipped so far
	retries       atomic.Int64 // transient retries across transfer + fan-out
	failovers     atomic.Int64 // endpoint failovers across sends
	corruptGroups atomic.Int64 // groups whose delivery failed checksum verification
	retransmits   atomic.Int64 // successful re-deliveries of corrupted groups
	degraded      atomic.Int64 // fields quarantined lossless by the bound audit
}

// chunkMode derives the chunk fan-out portion of a campaignMode from the
// caller-facing options.
func (o PipelineOptions) chunkMode() (chunkBytes int64, workers int, ep faas.EndpointConfig) {
	if o.ChunkMB <= 0 {
		return 0, 0, faas.EndpointConfig{}
	}
	workers = o.CompressWorkers
	if workers <= 0 {
		workers = o.Workers
	}
	if workers <= 0 {
		workers = 4
	}
	ep = o.ChunkEndpoint
	ep.Workers = workers
	return int64(o.ChunkMB * 1e6), workers, ep
}

// fieldSetting is one field's planned compression configuration.
type fieldSetting struct {
	relEB     float64
	predictor sz.Predictor
	codec     string // registry name; "" inherits the campaign codec
}

// Spec projects the legacy pipeline options onto the unified CampaignSpec
// (Engine left at the zero value, EnginePipelined).
func (o PipelineOptions) Spec() CampaignSpec {
	spec := o.CampaignOptions.Spec()
	spec.Transport = o.Transport
	spec.TransferStreams = o.TransferStreams
	spec.StageBuffer = o.StageBuffer
	spec.ChunkMB = o.ChunkMB
	spec.CompressWorkers = o.CompressWorkers
	spec.ChunkEndpoint = o.ChunkEndpoint
	return spec
}

// RunPipelinedCampaign is the streaming version of RunCampaign: fields are
// compressed, packed into group archives, shipped over the transport, and
// decompressed/verified by concurrently running stages connected with
// bounded channels — a packed group starts its WAN transfer while later
// fields are still compressing, hiding compression cost inside transfer
// time exactly as the paper's end-to-end pipeline does. The result carries
// per-stage timings and the measured overlap.
//
// Deprecated: equivalent to Run with Engine: EnginePipelined; new code
// should use Run (or Submit for a handle).
func RunPipelinedCampaign(ctx context.Context, fields []*datagen.Field, opts PipelineOptions) (*CampaignResult, error) {
	spec := opts.Spec()
	spec.Engine = EnginePipelined
	return Run(ctx, fields, spec)
}

// RunSequentialCampaign executes the same campaign with hard barriers
// between every phase — compress all, pack all, transfer all, decompress
// all — the pre-pipelining behaviour. Each phase still runs its internal
// parallelism; only the phases are serialized. It exists as the honest
// baseline the pipelined engine is benchmarked against on the same
// transport.
//
// Deprecated: equivalent to Run with Engine: EngineSequential; new code
// should use Run (or Submit for a handle).
func RunSequentialCampaign(ctx context.Context, fields []*datagen.Field, opts PipelineOptions) (*CampaignResult, error) {
	spec := opts.Spec()
	spec.Engine = EngineSequential
	return Run(ctx, fields, spec)
}

// Items flowing between stages.
type compressedItem struct {
	idx    int
	name   string
	stream []byte
}

type packedGroup struct {
	id      int
	idxs    []int
	archive []byte
}

type sentGroup struct {
	packedGroup
	linkSec float64
	// delivered is what actually arrived at the destination — the verify
	// stage checksums these bytes, not the send buffer, so in-flight
	// corruption is observable. nil (plain Transport) means the archive
	// arrived as offered.
	delivered []byte
}

type verifiedGroup struct {
	members int
	maxRel  float64
	minPSNR float64
	// Integrity ledger: corrupt marks a group whose delivery failed
	// checksum verification at least once; retransmits/retransmitBytes
	// count its successful re-deliveries; degraded names members the bound
	// audit quarantined, with degradedBytes their lossless re-ship cost.
	corrupt         bool
	retransmits     int
	retransmitBytes int64
	degraded        []string
	degradedBytes   int64
}

// packState accumulates grouping bookkeeping; it is only touched by the
// single-worker pack stage, so no locking is needed until after Wait.
type packState struct {
	names           []string
	streams         map[int][]byte // barrier mode: held until flush
	plan            [][]int        // realized groups, in emit order
	groupBytes      []int64        // realized archive sizes, in emit order
	compressedBytes int64
	groupedBytes    int64
	nextID          int
	// idOffset is the first group id of this incarnation: resumed campaigns
	// number new groups after the journal's MaxGroupID so ids stay unique
	// across incarnations.
	idOffset int
	// journal, when set, durably records each packed group before it is
	// offered to the transport.
	journal *journal.Writer
	// obs records one "pack" span per emitted group (nil = off).
	obs *obs.Obs
	// integrity wraps each packed archive in a CRC-32C frame at pack time;
	// the journal's group digest then covers the framed bytes — exactly
	// what the transport ships and the verify stage checks.
	integrity bool
}

func (ps *packState) emitGroup(ctx context.Context, idxs []int, emit func(packedGroup) error) error {
	_, span := ps.obs.StartSpan(ctx, "pack",
		obs.Int("group", int64(ps.nextID)), obs.Int("members", int64(len(idxs))))
	defer span.End()
	members := make([]grouping.Member, 0, len(idxs))
	for _, i := range idxs {
		members = append(members, grouping.Member{Name: ps.names[i], Data: ps.streams[i]})
		delete(ps.streams, i)
	}
	arch, err := grouping.Pack(members)
	if err != nil {
		return err
	}
	var frameCRC uint32
	if ps.integrity {
		// Frame the archive at pack time: per-member CRC-32C digests plus a
		// payload digest, all checked before a byte is decompressed. The
		// journal digest below covers the framed bytes — the exact wire
		// payload — so journal, frame, and transport agree on one identity.
		sums := make([]uint32, len(members))
		for k, m := range members {
			sums[k] = integrity.Checksum(m.Data)
		}
		frameCRC = integrity.Checksum(arch)
		arch = integrity.Wrap(arch, sums)
	}
	span.Annotate(obs.Int("bytes", int64(len(arch))))
	ps.groupedBytes += int64(len(arch))
	ps.plan = append(ps.plan, idxs)
	ps.groupBytes = append(ps.groupBytes, int64(len(arch)))
	g := packedGroup{id: ps.nextID, idxs: idxs, archive: arch}
	ps.nextID++
	if ps.journal != nil {
		if err := ps.journal.Group(g.id, idxs, byteDigest(arch), frameCRC, int64(len(arch))); err != nil {
			return err
		}
	}
	return emit(g)
}

// runCampaign executes the shared compress → pack → transfer →
// decompress/verify stage graph. Barrier mode reproduces the classic
// RunCampaign semantics (pack waits for every stream, groups follow
// grouping.Plan); pipelined mode packs and ships groups as soon as they
// fill.
func runCampaign(ctx context.Context, fields []*datagen.Field, opts CampaignOptions, mode campaignMode) (*CampaignResult, error) {
	if len(fields) == 0 {
		return nil, errors.New("core: no fields")
	}
	if mode.perField != nil && len(mode.perField) != len(fields) {
		return nil, fmt.Errorf("core: %d field settings for %d fields", len(mode.perField), len(fields))
	}
	if opts.RelErrorBound <= 0 && mode.perField == nil {
		return nil, errors.New("core: relative error bound must be positive")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 4
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	strategy := opts.GroupStrategy
	if strategy == 0 {
		strategy = grouping.ByWorldSize
	}
	switch strategy {
	case grouping.ByWorldSize, grouping.ByTargetSize, grouping.SingleArchive:
	default:
		return nil, fmt.Errorf("core: unknown strategy %v", strategy)
	}
	param := opts.GroupParam
	if param <= 0 {
		param = int64(workers)
	}
	buffer := mode.buffer
	if buffer <= 0 {
		buffer = workers
	}

	// Resolve the campaign codec once; per-field plan decisions override
	// it below. Every name is validated against the registry before any
	// compression starts, so a typo fails fast instead of mid-pipeline.
	globalCodec, err := codec.Normalize(opts.Codec)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	res := &CampaignResult{Files: len(fields), Pipelined: mode.pipelined, Codec: globalCodec}
	// absEBs and ranges need a scan of the field's values, so the compress
	// stage resolves them (resolveBound), in parallel and overlapped with
	// the later stages, rather than this serial prologue. Only stages
	// downstream of a field's compression read its entries.
	absEBs := make([]float64, len(fields))
	relEBs := make([]float64, len(fields))
	ranges := make([]float64, len(fields))
	resolveBound := func(i int) {
		r := metrics.ValueRange(fields[i].Data)
		if r <= 0 {
			r = 1
		}
		ranges[i] = r
		absEBs[i] = relEBs[i] * r
	}
	preds := make([]sz.Predictor, len(fields))
	codecs := make([]codec.Codec, len(fields))
	codecNames := make([]string, len(fields))
	byName := make(map[string]int, len(fields))
	ps := &packState{names: make([]string, len(fields)), streams: make(map[int][]byte)}
	for i, f := range fields {
		res.RawBytes += int64(f.RawBytes())
		relEB := opts.RelErrorBound
		preds[i] = opts.Predictor
		codecName := globalCodec
		if mode.perField != nil {
			if s := mode.perField[i]; s.relEB > 0 {
				relEB = s.relEB
				if s.predictor != 0 {
					preds[i] = s.predictor
				}
				if s.codec != "" {
					codecName = s.codec
				}
			}
		}
		if relEB <= 0 {
			return nil, fmt.Errorf("core: field %d has no error bound", i)
		}
		if codecs[i], err = codec.Lookup(codecName); err != nil {
			return nil, fmt.Errorf("core: field %d: %w", i, err)
		}
		// Report the codec the campaign actually ran: the common per-field
		// codec, or "mixed" when a plan split the fields across codecs.
		if i == 0 {
			res.Codec = codecName
		} else if codecName != res.Codec {
			res.Codec = "mixed"
		}
		relEBs[i] = relEB
		codecNames[i] = codecName
		ps.names[i] = f.ID() + ".sz"
		byName[ps.names[i]] = i
	}

	// Fault-tolerance bookkeeping. The spec fingerprint guards resumes: a
	// journal written under one spec refuses to resume under another. The
	// manifest (when resuming) tells us which fields acked groups already
	// cover — only the rest is re-executed — and the journal writer records
	// this incarnation's progress durably before each step proceeds.
	journaling := mode.journalPath != "" || mode.manifest != nil
	var hash string
	if journaling {
		hash = specFingerprint(fields, mode, strategy, param, opts.RelErrorBound, opts.Predictor, globalCodec)
	}
	reconDigests := make([]uint64, len(fields))
	missing := make([]int, 0, len(fields))
	if m := mode.manifest; m != nil {
		if len(m.Fields) != len(fields) {
			return nil, fmt.Errorf("core: journal records %d fields, campaign has %d", len(m.Fields), len(fields))
		}
		for i, fp := range m.Fields {
			if fp.Name != ps.names[i] {
				return nil, fmt.Errorf("core: journal field %d is %q, campaign has %q", i, fp.Name, ps.names[i])
			}
		}
		if err := m.CheckSpec(hash); err != nil {
			return nil, fmt.Errorf("core: resume %s: %w", mode.resumePath, err)
		}
		done, doneDigests := m.DoneFields()
		copy(reconDigests, doneDigests)
		for i := range fields {
			if !done[i] {
				missing = append(missing, i)
			}
		}
		ps.idOffset = m.MaxGroupID() + 1
		ps.nextID = ps.idOffset
		res.Resumed = true
		res.SkippedGroups = m.AckedGroups()
		res.SkippedBytes = m.AckedBytes()
	} else {
		for i := range fields {
			missing = append(missing, i)
		}
	}

	var jw *journal.Writer
	if mode.journalPath != "" {
		if mode.manifest != nil && mode.journalPath == mode.resumePath {
			// Resumed incarnation extending its own journal: append-only.
			if jw, err = journal.OpenAppend(mode.journalPath); err == nil {
				err = jw.Resume()
			}
		} else {
			plans := make([]journal.FieldPlan, len(fields))
			for i := range fields {
				plans[i] = journal.FieldPlan{Name: ps.names[i], RelEB: relEBs[i],
					Predictor: int(preds[i]), Codec: codecNames[i]}
			}
			if jw, err = journal.Create(mode.journalPath); err == nil {
				err = jw.Begin(hash, mode.engineName(), int(strategy), param, plans, mode.journalMeta)
			}
			if err == nil && mode.manifest != nil {
				// Resume journaling to a new path: replay the acked state so
				// the fresh journal stands alone.
				err = replayAcked(jw, mode.manifest)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("core: journal %s: %w", mode.journalPath, err)
		}
		if mode.obs != nil {
			jw.SetMetrics(mode.obs.Metrics)
		}
		defer jw.Close()
	}
	ps.journal = jw
	ps.obs = mode.obs
	ps.integrity = mode.integrity

	// Observability: the root span covers the whole stage graph (the ctx
	// rebind parents every stage and per-item span under it), and the
	// campaign counter family is resolved once so stage workers pay one
	// atomic add per event. A nil bundle leaves cm all-nil no-ops.
	cm := newCampaignMetrics(mode.obs)
	cm.fields.Add(int64(len(missing)))
	cm.rawBytes.Add(res.RawBytes)
	ctx, rootSpan := mode.obs.StartSpan(ctx, "campaign",
		obs.Int("fields", int64(len(fields))), obs.String("engine", mode.engineName()))
	defer rootSpan.End()
	if mode.obs != nil {
		mode.retry.Metrics = mode.obs.Metrics
		mode.endpoint.Metrics = mode.obs.Metrics
		for _, tr := range append([]Transport{mode.transport}, mode.fallbacks...) {
			if st, ok := tr.(*SimulatedWANTransport); ok {
				st.adoptMetrics(mode.obs.Metrics)
			}
		}
	}

	if len(missing) == 0 {
		// Every field was acked before this incarnation started: nothing to
		// re-execute. The digest fold over the journal's recorded digests is
		// identical to the uninterrupted campaign's.
		if jw != nil {
			if err := jw.Done(); err != nil {
				return nil, fmt.Errorf("core: journal %s: %w", mode.journalPath, err)
			}
		}
		res.ReconDigest = foldDigests(reconDigests)
		if mode.obs != nil && mode.obs.Metrics != nil {
			res.Metrics = mode.obs.Metrics.Snapshot()
		}
		return res, nil
	}

	wallStart := now()
	g := pipeline.NewGroupWithClock(ctx, now)
	if mode.observe != nil {
		mode.observe(g)
	}

	src := pipeline.Emit(g, buffer, missing)

	var fan *chunkFanout
	var totalChunks atomic.Int64
	var retriesTotal, failoversTotal atomic.Int64
	if mode.chunkBytes > 0 {
		var err error
		if fan, err = newChunkFanout(mode.endpoint); err != nil {
			return nil, err
		}
		defer fan.close()
	}
	compress := pipeline.Stage(g, pipeline.Config{Name: "compress", Workers: workers, Buffer: buffer}, src,
		func(ctx context.Context, i int) (compressedItem, error) {
			ctx, span := mode.obs.StartSpan(ctx, "compress",
				obs.String("field", fields[i].ID()), obs.String("codec", codecNames[i]))
			defer span.End()
			resolveBound(i)
			cfg := sz.DefaultConfig(absEBs[i])
			if preds[i] != 0 {
				cfg.Predictor = preds[i]
			}
			var stream []byte
			var err error
			switch {
			case fan != nil:
				// Chunk fan-out: this stage worker only batches chunk tasks
				// onto the endpoint and assembles the completions; the
				// endpoint's worker pool is the actual compression
				// parallelism. The chunk tasks carry the field's codec.
				// Transient fabric failures retry under the campaign policy.
				var n, r int
				r, err = mode.retry.Do(ctx, func(ctx context.Context) error {
					var cerr error
					stream, n, cerr = fan.compressField(ctx, fields[i], codecs[i], cfg, mode.chunkBytes)
					return cerr
				})
				retriesTotal.Add(int64(r))
				if mode.progress != nil && r > 0 {
					mode.progress.retries.Add(int64(r))
				}
				totalChunks.Add(int64(n))
				cm.chunks.Add(int64(n))
				span.Annotate(obs.Int("chunks", int64(n)))
			case codecs[i].Name() == sz.CodecName:
				// The sz3 path keeps its richer Config (predictor choice,
				// future knobs) rather than flattening through the
				// codec-neutral Params.
				stream, _, err = sz.Compress(fields[i].Data, fields[i].Dims, cfg)
			default:
				stream, err = codecs[i].Compress(fields[i].Data, fields[i].Dims,
					codec.Params{AbsErrorBound: absEBs[i]})
			}
			if err != nil {
				return compressedItem{}, fmt.Errorf("compress %s: %w", fields[i].ID(), err)
			}
			cm.compressedBytes.Add(int64(len(stream)))
			span.Annotate(obs.Int("bytes", int64(len(stream))))
			return compressedItem{idx: i, name: ps.names[i], stream: stream}, nil
		})

	packed := packStage(g, compress, ps, mode, strategy, param, missing, buffer)

	// Transfer with retry + failover: transient errors (link flaps, outage
	// windows) retry in place with exponential backoff, and when the primary
	// transport's budget is spent — or it fails permanently — the send moves
	// to the next fallback endpoint under the same policy. Weighted
	// transports carry the campaign's fair-share weight on every attempt so
	// concurrent campaigns split a shared link proportionally. Progress
	// counters advance only on success, so a retried send never
	// double-counts SentBytes.
	transports := append([]Transport{mode.transport}, mode.fallbacks...)
	send := func(ctx context.Context, tr Transport, name string, data []byte) ([]byte, float64, error) {
		if dt, ok := tr.(DeliveredTransport); ok {
			return dt.SendDelivered(ctx, name, data, mode.weight)
		}
		if wt, ok := tr.(WeightedTransport); ok && mode.weight > 0 {
			sec, err := wt.SendWeighted(ctx, name, data, mode.weight)
			return data, sec, err
		}
		sec, err := tr.Send(ctx, name, data)
		return data, sec, err
	}
	var linkMu sync.Mutex
	var linkSec float64
	// ship moves one named payload with the full retry/failover budget and
	// returns the bytes that actually arrived. Every successful delivery —
	// first send, corruption retransmit, or quarantine escape — flows
	// through here, so link seconds and SentBytes account each one exactly
	// once, while retries never double-count.
	ship := func(ctx context.Context, name string, payload []byte) ([]byte, float64, error) {
		var sec float64
		var delivered []byte
		var attempt int64
		r, f, err := sentinel.Failover(ctx, mode.retry, len(transports),
			func(ctx context.Context, ep int) error {
				// One child span per attempt, so retries and failovers
				// are visible in the trace as repeated sends under the
				// group's transfer span.
				attempt++
				actx, asp := mode.obs.StartSpan(ctx, "send",
					obs.Int("attempt", attempt), obs.Int("endpoint", int64(ep)))
				start := now()
				d, s, sendErr := send(actx, transports[ep], name, payload)
				cm.sendSeconds.Observe(now().Sub(start).Seconds())
				if sendErr == nil {
					delivered, sec = d, s
				} else {
					asp.Annotate(obs.String("error", sendErr.Error()))
				}
				asp.End()
				return sendErr
			})
		retriesTotal.Add(int64(r))
		failoversTotal.Add(int64(f))
		if mode.progress != nil {
			mode.progress.retries.Add(int64(r))
			mode.progress.failovers.Add(int64(f))
		}
		if err != nil {
			return nil, 0, err
		}
		linkMu.Lock()
		linkSec += sec
		linkMu.Unlock()
		cm.sentBytes.Add(int64(len(payload)))
		if mode.progress != nil {
			mode.progress.sentBytes.Add(int64(len(payload)))
		}
		return delivered, sec, nil
	}
	sent := pipeline.Stage(g, pipeline.Config{Name: "transfer", Workers: mode.transferStreams, Buffer: buffer}, packed,
		func(ctx context.Context, pg packedGroup) (sentGroup, error) {
			ctx, span := mode.obs.StartSpan(ctx, "transfer",
				obs.Int("group", int64(pg.id)), obs.Int("bytes", int64(len(pg.archive))))
			defer span.End()
			delivered, sec, err := ship(ctx, fmt.Sprintf("group-%04d.ocgr", pg.id), pg.archive)
			if err != nil {
				return sentGroup{}, err
			}
			cm.groups.Inc()
			if mode.progress != nil {
				mode.progress.sentGroups.Add(1)
			}
			if jw != nil {
				_, jsp := mode.obs.StartSpan(ctx, "journal.sent", obs.Int("group", int64(pg.id)))
				jerr := jw.Sent(pg.id)
				jsp.End()
				if jerr != nil {
					return sentGroup{}, jerr
				}
			}
			return sentGroup{packedGroup: pg, linkSec: sec, delivered: delivered}, nil
		})

	if mode.sequential {
		// Hard barrier: hold every transferred group until the transfer
		// phase completes, so decompression cannot overlap it.
		var held []sentGroup
		sent = pipeline.Reduce(g, pipeline.Config{Name: "barrier", Buffer: buffer}, sent,
			func(ctx context.Context, sg sentGroup, emit func(sentGroup) error) error {
				held = append(held, sg)
				return nil
			},
			func(ctx context.Context, emit func(sentGroup) error) error {
				for _, sg := range held {
					if err := emit(sg); err != nil {
						return err
					}
				}
				return nil
			})
	}

	// quarantine re-ships one bound-violating field through the lossless
	// escape: the raw float64 bits travel deflate-compressed (with the
	// backend's raw fallback) inside an integrity frame, are verified on
	// arrival, and replace the lossy reconstruction bit-exactly. It returns
	// the exact values and the bytes shipped (counted per delivery).
	quarantine := func(ctx context.Context, i int) ([]float64, int64, error) {
		qctx, qsp := mode.obs.StartSpan(ctx, "quarantine", obs.String("field", ps.names[i]))
		defer qsp.End()
		comp, err := lossless.Compress(floatsToBytes(fields[i].Data), lossless.Deflate)
		if err != nil {
			return nil, 0, err
		}
		payload := comp
		if mode.integrity {
			payload = integrity.Wrap(comp, []uint32{integrity.Checksum(comp)})
		}
		qsp.Annotate(obs.Int("bytes", int64(len(payload))))
		var delivered []byte
		var shipped int64
		_, err = mode.retry.Do(qctx, func(ctx context.Context) error {
			d, _, serr := ship(ctx, ps.names[i]+".lossless", payload)
			if serr != nil {
				return serr
			}
			shipped += int64(len(payload))
			if mode.integrity {
				inner, _, verr := integrity.Verify(d)
				if verr != nil {
					// The escape itself was corrupted in flight: detected,
					// and re-shipped under the same transient budget.
					cm.corruptions.Inc()
					return sentinel.MarkTransient(verr)
				}
				d = inner
			}
			delivered = d
			return nil
		})
		if err != nil {
			return nil, shipped, err
		}
		raw, err := lossless.Decompress(delivered)
		if err != nil {
			return nil, shipped, err
		}
		vals, err := bytesToFloats(raw, len(fields[i].Data))
		return vals, shipped, err
	}

	// Fan-out campaigns pay the digest pass to prove worker-count
	// invariance; journaled/resumed campaigns pay it so a resumed half can
	// be compared digest-for-digest with an uninterrupted run.
	digestOn := mode.chunkBytes > 0 || journaling
	verified := pipeline.Stage(g, pipeline.Config{Name: "decompress", Workers: workers, Buffer: buffer}, sent,
		func(ctx context.Context, sg sentGroup) (verifiedGroup, error) {
			ctx, span := mode.obs.StartSpan(ctx, "decompress", obs.Int("group", int64(sg.id)))
			defer span.End()
			out := verifiedGroup{minPSNR: math.Inf(1)}
			payload := sg.delivered
			if payload == nil {
				payload = sg.archive
			}
			var memberSums []uint32
			if mode.integrity {
				// Checksum gate before any decompression: a delivery that
				// fails the frame check is detected corruption, classified
				// transient, and only this group is re-requested through the
				// retry budget (a zero-value policy grants one retransmit).
				var verr error
				payload, memberSums, verr = integrity.Verify(payload)
				if verr != nil {
					out.corrupt = true
					cm.corruptions.Inc()
					if mode.progress != nil {
						mode.progress.corruptGroups.Add(1)
					}
					span.Annotate(obs.String("corrupt", verr.Error()))
					_, rerr := mode.retry.Do(ctx, func(ctx context.Context) error {
						rctx, rsp := mode.obs.StartSpan(ctx, "retransmit", obs.Int("group", int64(sg.id)))
						defer rsp.End()
						d, _, serr := ship(rctx, fmt.Sprintf("group-%04d.ocgr", sg.id), sg.archive)
						if serr != nil {
							return serr
						}
						out.retransmits++
						out.retransmitBytes += int64(len(sg.archive))
						cm.retransmits.Inc()
						if mode.progress != nil {
							mode.progress.retransmits.Add(1)
						}
						payload, memberSums, verr = integrity.Verify(d)
						if verr != nil {
							cm.corruptions.Inc()
							return sentinel.MarkTransient(verr)
						}
						return nil
					})
					if rerr != nil {
						return verifiedGroup{}, fmt.Errorf("core: group %d corrupted in transit and not recovered after %d retransmit(s): %w", sg.id, out.retransmits, rerr)
					}
				}
			}
			members, err := grouping.Unpack(payload)
			if err != nil {
				return verifiedGroup{}, err
			}
			if mode.integrity && len(memberSums) != len(members) {
				return verifiedGroup{}, fmt.Errorf("core: group %d: frame records %d members, archive holds %d", sg.id, len(memberSums), len(members))
			}
			span.Annotate(obs.Int("members", int64(len(members))))
			out.members = len(members)
			for k, m := range members {
				// One verify span per member: checksum, decode, digest, bound
				// audit, optional PSNR. The closure gives the span a single
				// exit for every error path.
				k, m := k, m
				if err := func() error {
					_, vsp := mode.obs.StartSpan(ctx, "verify", obs.String("field", m.Name))
					defer vsp.End()
					i, ok := byName[m.Name]
					if !ok {
						return fmt.Errorf("core: unknown member %q", m.Name)
					}
					if mode.integrity && integrity.Checksum(m.Data) != memberSums[k] {
						return fmt.Errorf("core: %s: member checksum does not match its pack-time digest", m.Name)
					}
					// Registry dispatch on the member's own magic: grouped
					// archives may mix codecs (per-field plan decisions), and
					// pre-codec sz3 archives decode through the same path
					// byte-identically.
					recon, dims, err := codec.Decompress(m.Data)
					if err != nil {
						return fmt.Errorf("decompress %s: %w", m.Name, err)
					}
					if len(dims) != len(fields[i].Dims) {
						return fmt.Errorf("core: %s: dims mismatch", m.Name)
					}
					// Pointwise bound audit (full by default, stride-sampled
					// via BoundAudit.Stride): the codec's error-bound contract
					// is checked against the data, not trusted.
					maxErr, err := metrics.MaxAbsErrorSampled(fields[i].Data, recon, mode.audit.Stride)
					if err != nil {
						return err
					}
					quarantined := false
					if maxErr > absEBs[i]*(1+1e-9) {
						cm.auditFailures.Inc()
						if !mode.audit.Quarantine {
							return fmt.Errorf("core: %s: error %g exceeds bound %g", m.Name, maxErr, absEBs[i])
						}
						// The codec broke its bound for this field: quarantine
						// it — re-ship the raw values lossless and record the
						// degradation instead of failing the campaign.
						exact, shipped, qerr := quarantine(ctx, i)
						out.degradedBytes += shipped
						if qerr != nil {
							return fmt.Errorf("core: %s: bound violated (%g > %g) and lossless quarantine failed: %w", m.Name, maxErr, absEBs[i], qerr)
						}
						recon, quarantined = exact, true
						out.degraded = append(out.degraded, m.Name)
						cm.degradedFields.Inc()
						if mode.progress != nil {
							mode.progress.degraded.Add(1)
						}
						vsp.Annotate(obs.String("quarantined", "lossless"))
					} else {
						out.maxRel = math.Max(out.maxRel, maxErr/ranges[i])
					}
					// Each field is verified exactly once, so writing its slot
					// is race-free across decompress workers. Quarantined
					// fields digest their exact replacement.
					if digestOn {
						reconDigests[i] = reconDigest(recon)
					}
					// A quarantined field's replacement is bit-exact — there
					// is no noise to score, so it does not drag minPSNR.
					if mode.measurePSNR && !quarantined {
						p, err := metrics.PSNR(fields[i].Data, recon)
						if err != nil {
							return err
						}
						out.minPSNR = math.Min(out.minPSNR, p)
					}
					return nil
				}(); err != nil {
					return verifiedGroup{}, err
				}
			}
			if jw != nil {
				// The group is now verified end to end — durable at the
				// destination. Record its per-member recon digests (parallel
				// to the group's journal members, which are sg.idxs) so a
				// resume can fold them without redoing the field, echoing the
				// archive digest so a later resume can prove the ack belongs
				// to the archive the journal describes.
				acks := make([]uint64, len(sg.idxs))
				for k, i := range sg.idxs {
					acks[k] = reconDigests[i]
				}
				_, jsp := mode.obs.StartSpan(ctx, "journal.ack", obs.Int("group", int64(sg.id)))
				err := jw.Ack(sg.id, byteDigest(sg.archive), acks)
				jsp.End()
				if err != nil {
					return verifiedGroup{}, err
				}
			}
			return out, nil
		})

	collected := pipeline.Collect(g, verified)

	if err := g.Wait(); err != nil {
		return nil, err
	}
	res.WallSec = now().Sub(wallStart).Seconds()

	verifiedFiles := 0
	minPSNR := math.Inf(1)
	for _, v := range *collected {
		verifiedFiles += v.members
		res.MaxRelError = math.Max(res.MaxRelError, v.maxRel)
		minPSNR = math.Min(minPSNR, v.minPSNR)
		if v.corrupt {
			res.CorruptGroups++
		}
		res.Retransmits += v.retransmits
		res.RetransmitBytes += v.retransmitBytes
		res.DegradedBytes += v.degradedBytes
		res.DegradedFields = append(res.DegradedFields, v.degraded...)
	}
	sort.Strings(res.DegradedFields)
	if mode.measurePSNR {
		res.MinPSNR = minPSNR
	}
	if verifiedFiles != len(missing) {
		return nil, fmt.Errorf("core: %d members after grouping, want %d", verifiedFiles, len(missing))
	}

	if jw != nil {
		if err := jw.Done(); err != nil {
			return nil, fmt.Errorf("core: journal %s: %w", mode.journalPath, err)
		}
	}

	res.CompressedBytes = ps.compressedBytes
	res.GroupedBytes = ps.groupedBytes
	res.Groups = len(ps.plan)
	res.GroupBytes = ps.groupBytes
	// The ratio rates the work this incarnation actually did: for a resume
	// that is the missing fields' raw bytes over their compressed bytes.
	var procRaw int64
	for _, i := range missing {
		procRaw += int64(fields[i].RawBytes())
	}
	if res.CompressedBytes > 0 {
		res.Ratio = float64(procRaw) / float64(res.CompressedBytes)
	}
	res.Metadata = grouping.Metadata(ps.names, ps.plan, strategy)
	res.LinkSec = linkSec
	res.Chunks = int(totalChunks.Load())
	res.CompressWorkers = mode.compressWorkers
	res.Retries = int(retriesTotal.Load())
	res.Failovers = int(failoversTotal.Load())
	if digestOn {
		res.ReconDigest = foldDigests(reconDigests)
	}

	stats := g.Stats()
	res.OverlapSec = pipeline.Overlap(stats)
	// Per-stage throughput: compress consumes the raw field bytes,
	// packing consumes the compressed streams, the transfer ships the
	// packed archives, and decompression delivers raw bytes back — so
	// compress/decompress MB/s are directly comparable to the codec's
	// single-stream throughput and to the link's rate.
	pipeline.AttachThroughput(stats, "compress", res.RawBytes)
	pipeline.AttachThroughput(stats, "pack", res.CompressedBytes)
	pipeline.AttachThroughput(stats, "transfer", res.GroupedBytes)
	pipeline.AttachThroughput(stats, "decompress", res.RawBytes)
	res.Stages = stats
	for _, s := range stats {
		switch s.Name {
		case "compress":
			res.CompressSec = s.WallSec
		case "pack":
			res.PackSec = s.BusySec
		case "transfer":
			res.TransferSec = s.WallSec
		case "decompress":
			res.DecompressSec = s.WallSec
		}
	}
	if mode.obs != nil && mode.obs.Metrics != nil {
		// Per-stage throughput distribution across runs, then the inline
		// snapshot — taken last so it includes everything above.
		for _, s := range stats {
			if s.MBps > 0 {
				mode.obs.Histogram("campaign_stage_mbps", obs.L("stage", s.Name)).Observe(s.MBps)
			}
		}
		res.Metrics = mode.obs.Metrics.Snapshot()
	}
	return res, nil
}

// FNV-64a parameters for the inline digest loops below: every campaign
// digests every reconstruction, so this runs in the decompress hot path
// and must not pay hash.Hash interface dispatch or per-value allocations.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv64aWord folds one 64-bit word into an FNV-64a state, low byte first
// (equivalent to hashing the word's little-endian bytes).
func fnv64aWord(h, w uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (w >> s) & 0xff
		h *= fnvPrime64
	}
	return h
}

// reconDigest hashes one field's reconstruction (FNV-64a over the exact
// float64 bit patterns), so two campaigns can be compared for bit-identical
// output without retaining the data.
func reconDigest(recon []float64) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range recon {
		h = fnv64aWord(h, math.Float64bits(v))
	}
	return h
}

// floatsToBytes flattens float64 values into their little-endian IEEE-754
// bit patterns — the wire form of a quarantined field's lossless escape.
func floatsToBytes(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// bytesToFloats inverts floatsToBytes, checking the payload carries
// exactly the expected value count.
func bytesToFloats(raw []byte, want int) ([]float64, error) {
	if len(raw) != 8*want {
		return nil, fmt.Errorf("core: lossless escape carries %d bytes, want %d", len(raw), 8*want)
	}
	vals := make([]float64, want)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return vals, nil
}

// foldDigests combines per-field digests in field-index order into one
// campaign digest. Field order is fixed by the input, not by completion
// order, so the fold is deterministic under any scheduling.
func foldDigests(digests []uint64) uint64 {
	h := uint64(fnvOffset64)
	for _, d := range digests {
		h = fnv64aWord(h, d)
	}
	return h
}

// packStage wires the grouping stage over the active field subset (all
// fields on a fresh run, the journal's missing fields on a resume). Both
// modes run as a single-worker Reduce; they differ in when groups are
// emitted.
func packStage(g *pipeline.Group, in <-chan compressedItem, ps *packState, mode campaignMode,
	strategy grouping.Strategy, param int64, active []int, buffer int) <-chan packedGroup {
	cfg := pipeline.Config{Name: "pack", Buffer: buffer}
	nFields := len(active)

	if !mode.pipelined {
		// Barrier: hold every stream, then group exactly as the classic
		// path does (round-robin plan over the active inventory).
		return pipeline.Reduce(g, cfg, in,
			func(ctx context.Context, it compressedItem, emit func(packedGroup) error) error {
				ps.streams[it.idx] = it.stream
				ps.compressedBytes += int64(len(it.stream))
				return nil
			},
			func(ctx context.Context, emit func(packedGroup) error) error {
				sizes := make([]int64, nFields)
				for j, i := range active {
					sizes[j] = int64(len(ps.streams[i]))
				}
				plan, err := grouping.Plan(sizes, strategy, param)
				if err != nil {
					return err
				}
				for _, pos := range plan {
					idxs := make([]int, len(pos))
					for k, p := range pos {
						idxs[k] = active[p]
					}
					if err := ps.emitGroup(ctx, idxs, emit); err != nil {
						return err
					}
				}
				return nil
			})
	}

	// Streaming: emit a group the moment it fills so the transfer stage
	// can start while later fields are still compressing. ByWorldSize
	// fills exactly `world` balanced groups (the first n%world groups get
	// one extra member, matching the round-robin plan's sizes, so the
	// archive count — and hence per-file WAN overhead — is identical to
	// the barrier engine's). ByTargetSize fills byte-budget groups;
	// SingleArchive degenerates to one flush.
	groupSize := func(int) int { return 0 }
	if strategy == grouping.ByWorldSize {
		world := int(param)
		if world > nFields {
			world = nFields
		}
		base, rem := nFields/world, nFields%world
		groupSize = func(g int) int {
			if g < rem {
				return base + 1
			}
			return base
		}
	}
	var cur []int
	var curBytes int64
	flushCur := func(ctx context.Context, emit func(packedGroup) error) error {
		if len(cur) == 0 {
			return nil
		}
		// Streams arrive in completion order; keep members sorted so
		// metadata is stable for a given grouping.
		idxs := append([]int(nil), cur...)
		sort.Ints(idxs)
		cur, curBytes = nil, 0
		return ps.emitGroup(ctx, idxs, emit)
	}
	return pipeline.Reduce(g, cfg, in,
		func(ctx context.Context, it compressedItem, emit func(packedGroup) error) error {
			size := int64(len(it.stream))
			ps.compressedBytes += size
			if strategy == grouping.ByTargetSize && curBytes > 0 && curBytes+size > param {
				if err := flushCur(ctx, emit); err != nil {
					return err
				}
			}
			ps.streams[it.idx] = it.stream
			cur = append(cur, it.idx)
			curBytes += size
			if want := groupSize(ps.nextID - ps.idOffset); want > 0 && len(cur) == want {
				return flushCur(ctx, emit)
			}
			return nil
		},
		func(ctx context.Context, emit func(packedGroup) error) error {
			return flushCur(ctx, emit)
		})
}

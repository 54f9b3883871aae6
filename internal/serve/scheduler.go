// Package serve is the multi-tenant campaign service behind `ocelot
// serve`: a scheduler that admits concurrent campaigns from named tenants
// onto a shared transport with weighted-fair bandwidth sharing, per-tenant
// quotas, priorities, and bounded-queue backpressure, plus the HTTP JSON
// API (submit / status / watch / cancel / list) the daemon exposes.
//
// The scheduler builds directly on the re-entrant campaign handles of
// internal/core: every accepted job is a core.Enqueue handle, held pending
// until admission starts it, watchable and cancellable from submit on, and
// its transport weight is the owning tenant's weight, so campaigns sharing
// a simulated WAN link split the bandwidth in proportion to their tenants'
// weights.
package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"ocelot/internal/core"
	"ocelot/internal/datagen"
	"ocelot/internal/obs"
)

var (
	// ErrQueueFull is the backpressure signal: the admission queue is at
	// capacity, so the submission is rejected (HTTP 429) rather than
	// buffered without bound.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrUnknownJob is returned for campaign IDs the scheduler never issued
	// (or has no record of).
	ErrUnknownJob = errors.New("serve: unknown campaign")
)

// TenantConfig sets one tenant's share and quotas.
type TenantConfig struct {
	// Weight is the tenant's fair share, both for admission order and for
	// the transport-level bandwidth split; ≤ 0 means 1.
	Weight float64 `json:"weight"`
	// MaxCampaigns bounds the tenant's concurrently running campaigns;
	// ≤ 0 means unlimited. Excess submissions queue.
	MaxCampaigns int `json:"maxCampaigns"`
	// MaxBytes bounds the tenant's in-flight raw bytes; ≤ 0 means
	// unlimited. A job that would exceed it queues until the tenant's
	// running volume drains (a job larger than the quota alone is still
	// admitted when nothing of the tenant's runs, so it cannot starve).
	MaxBytes int64 `json:"maxBytes"`
}

// Config tunes the scheduler and the daemon built on it.
type Config struct {
	// Transport is the shared link every campaign's archives ship over;
	// nil means in-process (NopTransport).
	Transport core.Transport
	// Tenants maps tenant names to their configs; submissions from names
	// not listed here use Default.
	Tenants map[string]TenantConfig
	// Default is the config for tenants absent from Tenants.
	Default TenantConfig
	// QueueDepth bounds the number of queued (admitted-but-not-running)
	// campaigns across all tenants; ≤ 0 means 64. Submissions beyond it
	// fail with ErrQueueFull.
	QueueDepth int
	// MaxRunning bounds globally concurrent running campaigns; ≤ 0 means 8.
	MaxRunning int
	// Now injects a clock for tests; nil = time.Now.
	Now func() time.Time
	// BaseContext is the root every campaign context derives from, so an
	// embedding process (daemon shutdown, request-scoped serving) can
	// cancel the whole scheduler from outside; nil means a private root
	// that only Close cancels.
	BaseContext context.Context
	// JournalDir, when non-empty, gives every submitted campaign a durable
	// journal at <JournalDir>/<tenant>/<id>.ocjl (unless the spec already
	// names one), so a daemon restarted after a crash can resume unfinished
	// campaigns from exactly what completed (Server.Recover).
	JournalDir string
	// Metrics is the registry the scheduler (and every campaign it admits)
	// reports into, labeled per tenant; nil means a private registry the
	// daemon's GET /metrics exposes. Supply one to aggregate several
	// schedulers or to scrape in-process.
	Metrics *obs.Registry
}

// Request is one campaign submission.
type Request struct {
	// Tenant names the submitting tenant ("" = "default").
	Tenant string
	// Priority orders the tenant's own queue: higher runs first, ties FIFO.
	Priority int
	// Fields is the data the campaign moves.
	Fields []*datagen.Field
	// Spec describes the campaign; TransportWeight and Transport are
	// overridden by the scheduler (shared link, tenant weight). Its
	// JournalMeta is stamped into the journal the scheduler gives it
	// (Config.JournalDir); SubmitRequest.Resolve stores the request there.
	Spec core.CampaignSpec
}

// JobStatus is the JSON snapshot of one scheduled campaign.
type JobStatus struct {
	// ID is the scheduler-issued campaign ID.
	ID string `json:"id"`
	// Tenant and Priority echo the submission.
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	// State is "queued" while awaiting admission, then the campaign
	// handle's state (pending/planning/running/done/failed/canceled); a job
	// cancelled while queued goes from "queued" straight to "canceled".
	State string `json:"state"`
	// Terminal reports whether State is final.
	Terminal bool `json:"terminal"`
	// QueuedSec is time spent waiting for admission.
	QueuedSec float64 `json:"queuedSec"`
	// Campaign is the live handle snapshot once the job started.
	Campaign *core.CampaignStatus `json:"campaign,omitempty"`
	// Error carries the terminal failure message, if any.
	Error string `json:"error,omitempty"`
}

// Job is one scheduled campaign: a core.Campaign handle held pending
// while the job queues, and started when the scheduler admits it.
type Job struct {
	id       string
	tenant   string
	priority int
	rawBytes int64
	seq      int64 // FIFO tiebreak within a tenant's priority class
	handle   *core.Campaign

	s         *Scheduler
	submitted time.Time
	started   time.Time // zero while queued; guarded by s.mu
}

// ID returns the scheduler-issued campaign ID.
func (j *Job) ID() string { return j.id }

// Tenant returns the owning tenant's name.
func (j *Job) Tenant() string { return j.tenant }

// Done returns a channel closed when the job reaches a terminal state
// (including cancellation while still queued).
func (j *Job) Done() <-chan struct{} { return j.handle.Done() }

// Result returns the campaign result once terminal; jobs cancelled before
// admission report context.Canceled.
func (j *Job) Result() (*core.CampaignResult, error) { return j.handle.Result() }

// Wait blocks until the job is terminal or ctx dies.
func (j *Job) Wait(ctx context.Context) (*core.CampaignResult, error) { return j.handle.Wait(ctx) }

// Cancel stops the job: a queued job settles without running and gives
// its queue slot back, a running one unwinds mid-stage.
func (j *Job) Cancel() { j.handle.Cancel() }

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.s.mu.Lock()
	started := j.started
	j.s.mu.Unlock()
	cs := j.handle.Status()

	st := JobStatus{ID: j.id, Tenant: j.tenant, Priority: j.priority,
		State: cs.State.String(), Terminal: cs.State.Terminal(), Error: cs.Error}
	if started.IsZero() {
		if !st.Terminal {
			st.State = "queued"
		}
		st.QueuedSec = j.s.now().Sub(j.submitted).Seconds()
		return st
	}
	st.QueuedSec = started.Sub(j.submitted).Seconds()
	st.Campaign = &cs
	return st
}

// tenantState is the scheduler's per-tenant ledger.
type tenantState struct {
	cfg          TenantConfig
	queue        []*Job // admission order: priority desc, then FIFO
	running      int
	runningBytes int64
	// served is raw bytes of completed-or-started work, the numerator of
	// the tenant's virtual time served/weight: the scheduler always admits
	// from the eligible tenant with the smallest virtual time, so service
	// converges to weight proportions.
	served float64
}

func (t *tenantState) weight() float64 {
	if t.cfg.Weight <= 0 {
		return 1
	}
	return t.cfg.Weight
}

// virtualTime is the tenant's weighted service measure; in-flight bytes
// count so a tenant cannot monopolize admission while its work runs.
func (t *tenantState) virtualTime() float64 {
	return (t.served + float64(t.runningBytes)) / t.weight()
}

// hasHeadroom reports whether the tenant's quotas admit a job of size b.
func (t *tenantState) hasHeadroom(b int64) bool {
	if t.cfg.MaxCampaigns > 0 && t.running >= t.cfg.MaxCampaigns {
		return false
	}
	if t.cfg.MaxBytes > 0 && t.running > 0 && t.runningBytes+b > t.cfg.MaxBytes {
		return false
	}
	return true
}

// Scheduler admits campaigns from named tenants onto a shared transport:
// a bounded admission queue per the config, weighted-fair pick order
// across tenants, per-tenant quotas, and priority order within a tenant.
type Scheduler struct {
	cfg       Config
	transport core.Transport
	baseCtx   context.Context
	baseStop  context.CancelFunc
	metrics   *obs.Registry
	settled   sync.WaitGroup // one per job, done once its books are released

	mu      sync.Mutex
	tenants map[string]*tenantState
	jobs    map[string]*Job
	order   []string // issue order, for stable listings
	queued  int
	running int
	nextID  int64
	closed  bool
}

// NewScheduler builds a scheduler; Close releases it.
func NewScheduler(cfg Config) *Scheduler {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxRunning <= 0 {
		cfg.MaxRunning = 8
	}
	transport := cmp.Or[core.Transport](cfg.Transport, core.NopTransport{})
	base := cfg.BaseContext
	if base == nil {
		// The one deliberate root: a scheduler not embedded under a caller
		// context is its own lifetime, and Close cancels it.
		base = context.Background() //ocelotvet:ok ctxflow documented fallback root; callers embed via Config.BaseContext and Close cancels this one
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	ctx, stop := context.WithCancel(base)
	return &Scheduler{
		cfg:       cfg,
		transport: transport,
		baseCtx:   ctx,
		baseStop:  stop,
		metrics:   reg,
		tenants:   make(map[string]*tenantState),
		jobs:      make(map[string]*Job),
	}
}

// Metrics is the scheduler's registry — per-tenant admission/queue/active
// series plus every admitted campaign's own series, tenant-labeled. The
// daemon's GET /metrics renders it.
func (s *Scheduler) Metrics() *obs.Registry { return s.metrics }

func (s *Scheduler) now() time.Time {
	if s.cfg.Now != nil {
		return s.cfg.Now()
	}
	return time.Now()
}

// tenantLocked returns (creating on first use) the tenant's state.
func (s *Scheduler) tenantLocked(name string) *tenantState {
	t, ok := s.tenants[name]
	if !ok {
		cfg, known := s.cfg.Tenants[name]
		if !known {
			cfg = s.cfg.Default
		}
		t = &tenantState{cfg: cfg}
		s.tenants[name] = t
	}
	return t
}

// Submit validates and enqueues one campaign, returning its job handle.
// It fails fast — ErrQueueFull under backpressure, spec validation errors
// immediately — and never blocks on the queue.
func (s *Scheduler) Submit(req Request) (*Job, error) {
	if len(req.Fields) == 0 {
		return nil, errors.New("serve: no fields")
	}
	spec := req.Spec
	spec.Transport = s.transport
	// Validated before the queue check, so a bad spec is refused as such
	// even under backpressure; core.Enqueue then cannot fail.
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	tenant := cmp.Or(req.Tenant, "default")

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errors.New("serve: scheduler closed")
	}
	if s.queued >= s.cfg.QueueDepth {
		s.metrics.Counter("serve_rejections_total", obs.L("tenant", tenant)).Inc()
		return nil, fmt.Errorf("%w (%d queued)", ErrQueueFull, s.queued)
	}
	s.nextID++
	ts := s.tenantLocked(tenant)
	spec.TransportWeight = ts.weight()
	s.metrics.Counter("serve_admissions_total", obs.L("tenant", tenant)).Inc()
	if spec.Obs == nil {
		// Every admitted campaign reports into the shared registry under
		// its tenant's label, so GET /metrics shows per-tenant campaign
		// series without each campaign wiring its own bundle.
		spec.Obs = &obs.Obs{Metrics: s.metrics.With(obs.L("tenant", tenant))}
	}
	if s.cfg.JournalDir != "" && spec.Journal == "" {
		spec.Journal = filepath.Join(s.cfg.JournalDir, tenant, fmt.Sprintf("c-%d.ocjl", s.nextID))
	}
	h, err := core.Enqueue(s.baseCtx, req.Fields, spec)
	if err != nil {
		return nil, err
	}
	j := &Job{
		id:        fmt.Sprintf("c-%d", s.nextID),
		tenant:    tenant,
		priority:  req.Priority,
		seq:       s.nextID,
		handle:    h,
		s:         s,
		submitted: s.now(),
	}
	for _, f := range req.Fields {
		j.rawBytes += int64(f.RawBytes())
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)

	// Insert by priority (desc), FIFO within a class.
	pos := sort.Search(len(ts.queue), func(i int) bool {
		return ts.queue[i].priority < j.priority
	})
	ts.queue = slices.Insert(ts.queue, pos, j)
	s.queued++

	s.settled.Add(1)
	go func() {
		defer s.settled.Done()
		<-h.Done()
		s.mu.Lock()
		defer s.mu.Unlock()
		s.releaseLocked(j, ts)
		s.dispatchLocked()
	}()
	s.dispatchLocked()
	return j, nil
}

// advanceID moves the job-id counter past id, so a recovered daemon's
// fresh submissions never reuse (and truncate) a previous incarnation's
// journal paths.
func (s *Scheduler) advanceID(id int64) {
	s.mu.Lock()
	if id > s.nextID {
		s.nextID = id
	}
	s.mu.Unlock()
}

// dispatchLocked starts queued jobs while global capacity and tenant
// quotas allow, always picking the eligible tenant with the least
// weighted service. Callers hold s.mu.
func (s *Scheduler) dispatchLocked() {
	for s.running < s.cfg.MaxRunning {
		var best *tenantState
		for _, ts := range s.tenants {
			if len(ts.queue) == 0 || !ts.hasHeadroom(ts.queue[0].rawBytes) {
				continue
			}
			if best == nil || ts.virtualTime() < best.virtualTime() ||
				(ts.virtualTime() == best.virtualTime() && ts.queue[0].seq < best.queue[0].seq) {
				best = ts
			}
		}
		if best == nil {
			return
		}
		j := best.queue[0]
		best.queue = best.queue[1:]
		s.queued--
		best.running++
		best.runningBytes += j.rawBytes
		s.running++
		s.startLocked(j)
	}
}

// startLocked starts a dequeued job's campaign handle. Callers hold s.mu.
func (s *Scheduler) startLocked(j *Job) {
	j.started = s.now()
	wait := j.started.Sub(j.submitted).Seconds()
	s.metrics.Histogram("serve_queue_wait_seconds", obs.L("tenant", j.tenant)).Observe(wait)
	s.metrics.Gauge("serve_active_campaigns", obs.L("tenant", j.tenant)).Add(1)
	j.handle.Start()
}

// releaseLocked gives back what a terminal job held: its queue slot if it
// settled while queued, else its running capacity and tenant bytes.
// Callers hold s.mu.
func (s *Scheduler) releaseLocked(j *Job, ts *tenantState) {
	if j.started.IsZero() {
		i := slices.Index(ts.queue, j)
		ts.queue = slices.Delete(ts.queue, i, i+1)
		s.queued--
		return
	}
	s.metrics.Gauge("serve_active_campaigns", obs.L("tenant", j.tenant)).Add(-1)
	ts.running--
	ts.runningBytes -= j.rawBytes
	ts.served += float64(j.rawBytes)
	s.running--
}

// Get looks a job up by ID.
func (s *Scheduler) Get(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j, nil
}

// Jobs lists every known job in submission order.
func (s *Scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Close stops the scheduler: queued jobs are cancelled, running campaigns
// unwound, and further submissions rejected. It returns once every job is
// terminal and has given back its queue or running slot.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	jobs := s.Jobs() // final: a closed scheduler admits no more
	s.baseStop()
	for _, j := range jobs {
		j.Cancel()
	}
	s.settled.Wait()
}

package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"ocelot/internal/core"
	"ocelot/internal/datagen"
	"ocelot/internal/journal"
	"ocelot/internal/sz"
)

// SubmitRequest is the POST /v1/campaigns body: which tenant submits, how
// to synthesize the campaign's fields, and the campaign spec.
type SubmitRequest struct {
	// Tenant names the submitting tenant ("" = "default").
	Tenant string `json:"tenant"`
	// Priority orders the tenant's queue; higher runs first.
	Priority int `json:"priority"`
	// App, Fields, Shrink, Seed parameterize the synthetic dataset
	// (datagen.Generate over the app's field list). Fields ≤ 0 means 4,
	// Shrink ≤ 0 means 24, App "" means CESM. Shrink values in
	// [1, MinShrink) are rejected: they ask the daemon to materialize
	// near-paper-scale fields on behalf of a remote caller.
	App    string `json:"app"`
	Fields int    `json:"fields"`
	Shrink int    `json:"shrink"`
	Seed   int64  `json:"seed"`
	// Spec describes the campaign itself.
	Spec SpecRequest `json:"spec"`
}

// SpecRequest is the wire form of core.CampaignSpec (the subset a remote
// submitter controls; the daemon owns the transport and tenant weight).
type SpecRequest struct {
	// RelErrorBound is the relative error bound (required, > 0).
	RelErrorBound float64 `json:"relErrorBound"`
	// Codec names the compressor ("" = sz3).
	Codec string `json:"codec"`
	// Predictor is the sz predictor name ("" = interp).
	Predictor string `json:"predictor"`
	// Workers bounds compression parallelism; ≤ 0 = 4.
	Workers int `json:"workers"`
	// Groups is the by-world-size group count (0 = worker count).
	Groups int64 `json:"groups"`
	// Engine is pipelined (default), barrier, or sequential.
	Engine string `json:"engine"`
	// Streams is the transfer-stream count (0 = link concurrency).
	Streams int `json:"streams"`
	// ChunkMB > 0 fans compression out chunk-wise (raw MB per chunk).
	ChunkMB float64 `json:"chunkMB"`
	// CompressWorkers is the fan-out endpoint's worker count (0 = Workers).
	CompressWorkers int `json:"compressWorkers"`
}

// Campaign resolves the wire spec into a core.CampaignSpec.
func (r SpecRequest) Campaign() (core.CampaignSpec, error) {
	engine, err := core.ParseEngine(r.Engine)
	if err != nil {
		return core.CampaignSpec{}, err
	}
	pred, err := sz.ParsePredictor(orDefault(r.Predictor, "interp"))
	if err != nil {
		return core.CampaignSpec{}, err
	}
	return core.CampaignSpec{
		RelErrorBound:   r.RelErrorBound,
		Predictor:       pred,
		Codec:           r.Codec,
		Workers:         r.Workers,
		GroupParam:      r.Groups,
		Engine:          engine,
		TransferStreams: r.Streams,
		ChunkMB:         r.ChunkMB,
		CompressWorkers: r.CompressWorkers,
	}, nil
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// GenerateFields synthesizes the dataset a SubmitRequest describes.
func GenerateFields(app string, n, shrink int, seed int64) ([]*datagen.Field, error) {
	if app == "" {
		app = "CESM"
	}
	if n <= 0 {
		n = 4
	}
	if shrink <= 0 {
		shrink = 24
	}
	fields, err := datagen.GenerateFirst(app, n, shrink, seed)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return fields, nil
}

// Server is the daemon: a scheduler plus its HTTP JSON API.
//
// Routes (JSON unless noted):
//
//	POST   /v1/campaigns            submit; 202 + JobStatus, 429 when full
//	GET    /v1/campaigns            list every campaign's JobStatus
//	GET    /v1/campaigns/{id}       one campaign's JobStatus
//	GET    /v1/campaigns/{id}/watch NDJSON JobStatus stream until terminal
//	POST   /v1/campaigns/{id}/cancel request cancellation; 202 + JobStatus
//	GET    /v1/healthz              liveness probe (also at /healthz)
//	GET    /healthz                 alias for /v1/healthz (probe convention)
//	GET    /metrics                 Prometheus text exposition (per-tenant)
type Server struct {
	sched *Scheduler
	mux   *http.ServeMux
	// WatchInterval is the /watch poll cadence; 0 means 100ms.
	WatchInterval time.Duration
}

// NewServer builds the daemon around a fresh scheduler.
func NewServer(cfg Config) *Server {
	s := &Server{sched: NewScheduler(cfg), mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/campaigns", s.handleList)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/campaigns/{id}/watch", s.handleWatch)
	s.mux.HandleFunc("POST /v1/campaigns/{id}/cancel", s.handleCancel)
	// Liveness at both the versioned path and the bare conventional one —
	// load balancers and container probes default to /healthz.
	healthz := func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	}
	s.mux.HandleFunc("GET /v1/healthz", healthz)
	s.mux.HandleFunc("GET /healthz", healthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// handleMetrics renders the scheduler's registry in the Prometheus text
// exposition format (version 0.0.4): scheduler series and every admitted
// campaign's series, tenant-labeled.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.sched.Metrics().WritePrometheus(w)
}

// Scheduler exposes the underlying scheduler (tests and in-process use).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close cancels every campaign and stops admitting new ones.
func (s *Server) Close() { s.sched.Close() }

// maxSubmitBody caps the POST /v1/campaigns body. A well-formed submit
// request is a few hundred bytes; anything beyond 1 MiB is a client bug
// or a memory-exhaustion attempt, and the decoder stops reading there.
const maxSubmitBody = 1 << 20

// MinShrink is the smallest dataset shrink factor a remote submission may
// request. Shrink 1 is paper scale — gigabytes per field — which a daemon
// must not synthesize just because an HTTP body asked for it. In-process
// callers that really want full scale can build fields themselves and use
// Scheduler.Submit directly.
const MinShrink = 4

// httpError is the error body every route returns.
type httpError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, httpError{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return
	}
	if req.Shrink > 0 && req.Shrink < MinShrink {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: shrink %d below minimum %d (near-paper-scale fields are not served remotely)", req.Shrink, MinShrink))
		return
	}
	spec, err := req.Spec.Campaign()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	fields, err := GenerateFields(req.App, req.Fields, req.Shrink, req.Seed)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.sched.Submit(Request{
		Tenant:   req.Tenant,
		Priority: req.Priority,
		Fields:   fields,
		Spec:     spec,
		Meta:     submitMeta(req),
	})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrQueueFull) {
			status = http.StatusTooManyRequests
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

// metaSubmit is the journal-meta key under which the daemon stores the
// original submit request, so Recover can rebuild a campaign's fields and
// spec from its journal alone.
const metaSubmit = "submit"

// submitMeta serializes the submit request into journal metadata. The
// request already round-tripped through the decoder, so marshalling cannot
// fail; a nil map keeps un-journaled schedulers meta-free.
func submitMeta(req SubmitRequest) map[string]string {
	b, err := json.Marshal(req)
	if err != nil {
		return nil
	}
	return map[string]string{metaSubmit: string(b)}
}

// Recover scans the scheduler's journal directory for campaigns a previous
// daemon incarnation left unfinished and re-submits each one as a resume:
// the new job re-executes only the groups its journal never acked and
// reproduces the original campaign's ReconDigest. Journals marked done are
// left alone; unreadable or foreign journals (no stored submit request) are
// reported in errs and skipped. No-op unless Config.JournalDir was set.
func (s *Server) Recover() (resumed []*Job, errs []error) {
	dir := s.sched.cfg.JournalDir
	if dir == "" {
		return nil, nil
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*", "*.ocjl"))
	if err != nil {
		return nil, []error{err}
	}
	sort.Strings(paths)
	// Push the id counter past every journal on disk — done or not — so a
	// fresh submission never stamps a path that truncates old state.
	for _, path := range paths {
		var id int64
		if _, err := fmt.Sscanf(filepath.Base(path), "c-%d.ocjl", &id); err == nil {
			s.sched.advanceID(id)
		}
	}
	for _, path := range paths {
		m, err := journal.Load(path)
		if err != nil {
			errs = append(errs, fmt.Errorf("serve: recover %s: %w", path, err))
			continue
		}
		if m.Done {
			continue
		}
		raw, ok := m.Meta[metaSubmit]
		if !ok {
			errs = append(errs, fmt.Errorf("serve: recover %s: journal has no stored submit request", path))
			continue
		}
		var req SubmitRequest
		if err := json.Unmarshal([]byte(raw), &req); err != nil {
			errs = append(errs, fmt.Errorf("serve: recover %s: stored submit request: %w", path, err))
			continue
		}
		spec, err := req.Spec.Campaign()
		if err != nil {
			errs = append(errs, fmt.Errorf("serve: recover %s: %w", path, err))
			continue
		}
		fields, err := GenerateFields(req.App, req.Fields, req.Shrink, req.Seed)
		if err != nil {
			errs = append(errs, fmt.Errorf("serve: recover %s: %w", path, err))
			continue
		}
		spec.Journal = path
		spec.ResumeFrom = path
		spec.JournalMeta = m.Meta
		job, err := s.sched.Submit(Request{
			Tenant:   req.Tenant,
			Priority: req.Priority,
			Fields:   fields,
			Spec:     spec,
		})
		if err != nil {
			errs = append(errs, fmt.Errorf("serve: recover %s: %w", path, err))
			continue
		}
		resumed = append(resumed, job)
	}
	return resumed, errs
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.sched.Jobs()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, err := s.sched.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		j.Cancel()
		writeJSON(w, http.StatusAccepted, j.Status())
	}
}

// handleWatch streams newline-delimited JobStatus JSON until the campaign
// is terminal, flushing after every snapshot so clients see progress live.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	interval := s.WatchInterval
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		st := j.Status()
		if err := enc.Encode(st); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if st.Terminal {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-j.Done():
			// Emit the terminal snapshot on the next loop pass.
		case <-ticker.C:
		}
	}
}

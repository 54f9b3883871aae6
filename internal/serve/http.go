package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

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

// ServeHTTP implements http.Handler. A request no route matches keeps
// the mux's verdict — 404, or 405 with an Allow header when another
// method has the path — but gets the JSON httpError body every route
// returns instead of the mux's plain text.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if _, pattern := s.mux.Handler(r); pattern == "" {
		w = &unmatchedWriter{ResponseWriter: w, req: r.Method + " " + r.URL.Path}
	}
	s.mux.ServeHTTP(w, r)
}

// unmatchedWriter rewrites the mux's plain-text error for an unmatched
// request as writeError's JSON. Statuses below 400 (the mux's
// path-cleaning redirects) pass through untouched.
type unmatchedWriter struct {
	http.ResponseWriter
	req     string // method and path, for the error message
	errored bool   // the JSON body is written; drop the mux's text
}

func (w *unmatchedWriter) WriteHeader(code int) {
	if code < 400 {
		w.ResponseWriter.WriteHeader(code)
		return
	}
	w.errored = true
	writeError(w.ResponseWriter, code, fmt.Errorf("serve: %s: %s", w.req, strings.ToLower(http.StatusText(code))))
}

func (w *unmatchedWriter) Write(p []byte) (int, error) {
	if w.errored {
		return len(p), nil
	}
	return w.ResponseWriter.Write(p)
}

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
	if req.Spec.Adaptive {
		writeError(w, http.StatusBadRequest,
			errors.New("serve: adaptive campaigns need a trained quality model, which the daemon does not have"))
		return
	}
	fields, spec, err := req.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.sched.Submit(Request{Tenant: req.Tenant, Priority: req.Priority, Fields: fields, Spec: spec})
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

// Recover scans the scheduler's journal directory for campaigns a previous
// daemon incarnation left unfinished and re-submits each one as a resume:
// the new job re-executes only the groups its journal never acked and
// reproduces the original campaign's ReconDigest. Each campaign is rebuilt
// by LoadJournal. Journals marked done are left alone; unreadable or
// foreign journals (no stored request) are reported in errs and skipped.
// No-op unless Config.JournalDir was set.
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
		req, fields, spec, err := LoadJournal(path)
		if errors.Is(err, ErrJournalDone) {
			continue
		}
		var job *Job
		if err == nil {
			job, err = s.sched.Submit(Request{Tenant: req.Tenant, Priority: req.Priority, Fields: fields, Spec: spec})
		}
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

package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanRecord is one completed span: a named interval with typed
// attributes and a parent link (0 = root). Records are what the tracer
// accumulates and what both export formats serialize.
type SpanRecord struct {
	// ID is the span's tracer-unique id (1-based).
	ID uint64
	// Parent is the enclosing span's id, 0 for a root span.
	Parent uint64
	// Name labels the span (see the span taxonomy in ARCHITECTURE.md).
	Name string
	// Start and End bound the interval.
	Start, End time.Time
	// Attrs carries the span's typed attributes.
	Attrs []Attr
}

// Tracer records spans. The zero value is not usable; construct with
// NewTracer. A Tracer is safe for concurrent use: campaigns start and
// end spans from every stage worker at once.
//
// Cost contract: StartSpan on a disabled tracer is one atomic load; on
// a nil tracer it is a pointer check. Only enabled tracers allocate.
type Tracer struct {
	disabled atomic.Bool
	clock    func() time.Time
	nextID   atomic.Uint64

	mu    sync.Mutex
	spans []SpanRecord
}

// NewTracer returns an enabled tracer on the real clock.
func NewTracer() *Tracer { return &Tracer{clock: time.Now} }

// NewTracerWithClock returns an enabled tracer on an injected clock —
// deterministic span times for golden tests.
func NewTracerWithClock(clock func() time.Time) *Tracer { return &Tracer{clock: clock} }

// SetEnabled flips span recording. A disabled tracer's StartSpan is an
// atomic load returning a nil span — the "instrumented but off" state a
// daemon leaves wired between scrapes.
func (t *Tracer) SetEnabled(on bool) { t.disabled.Store(!on) }

// Enabled reports whether the tracer records spans (false for nil).
func (t *Tracer) Enabled() bool { return t != nil && !t.disabled.Load() }

func (t *Tracer) now() time.Time {
	if t.clock == nil {
		return time.Now()
	}
	return t.clock()
}

// Span is one in-flight interval. Methods on a nil *Span are no-ops, so
// call sites never branch on whether tracing is live. End must be called
// on every path once the operation finishes (the spanend analyzer in
// tools/ocelotvet enforces this); double End is idempotent.
type Span struct {
	t      *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// StartSpan opens a span named name, parented to the span carried by ctx
// (when it belongs to this tracer), and returns a derived context
// carrying the new span plus the span itself. Disabled or nil tracers
// return ctx unchanged and a nil span.
func (t *Tracer) StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if t == nil || t.disabled.Load() {
		return ctx, nil
	}
	var parent uint64
	if p, ok := ctx.Value(spanKey).(*Span); ok && p != nil && p.t == t {
		parent = p.id
	}
	s := &Span{t: t, id: t.nextID.Add(1), parent: parent, name: name, start: t.now(), attrs: attrs}
	return context.WithValue(ctx, spanKey, s), s
}

// SpanFromContext returns the span ctx carries, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// TracerFromContext returns the tracer of the span ctx carries, or nil (a
// valid, disabled tracer receiver) when ctx carries none.
func TracerFromContext(ctx context.Context) *Tracer {
	if s, ok := ctx.Value(spanKey).(*Span); ok && s != nil {
		return s.t
	}
	return nil
}

// Annotate appends attributes to an in-flight span (no-op after End or
// on a nil span).
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, attrs...)
	}
	s.mu.Unlock()
}

// End completes the span and hands its record to the tracer. Idempotent;
// no-op on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	end := s.t.now()
	s.t.record(SpanRecord{ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start, End: end, Attrs: attrs})
}

// Record adds an already-completed interval as a span parented to
// parent (nil = root) — how the pipeline engine contributes per-stage
// envelope spans from its timing ledger after the fact. No-op on a nil
// or disabled tracer.
func (t *Tracer) Record(parent *Span, name string, start, end time.Time, attrs ...Attr) {
	if t == nil || t.disabled.Load() {
		return
	}
	var pid uint64
	if parent != nil && parent.t == t {
		pid = parent.id
	}
	t.record(SpanRecord{ID: t.nextID.Add(1), Parent: pid, Name: name,
		Start: start, End: end, Attrs: attrs})
}

func (t *Tracer) record(r SpanRecord) {
	t.mu.Lock()
	t.spans = append(t.spans, r)
	t.mu.Unlock()
}

// Spans snapshots every completed span, ordered by start time (ties by
// id) — deterministic regardless of which goroutine ended which span
// first.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// chromeEvent is one trace_event record ("X" = complete event).
type chromeEvent struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat"`
	Ph   string                 `json:"ph"`
	TS   float64                `json:"ts"`  // microseconds from trace start
	Dur  float64                `json:"dur"` // microseconds
	PID  int                    `json:"pid"`
	TID  int                    `json:"tid"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// chromeTrace is the container format chrome://tracing and Perfetto load.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome exports the completed spans as Chrome trace_event JSON,
// loadable in chrome://tracing and Perfetto. Spans are laid out on
// synthetic threads (tid lanes) such that each lane nests properly: a
// child shares its parent's lane when it is the innermost open span
// there, and overlapping siblings spill onto fresh lanes — concurrent
// stage work renders side by side instead of garbling one track.
func (t *Tracer) WriteChrome(w io.Writer) error {
	spans := t.Spans()
	lanes := assignLanes(spans)
	var epoch time.Time
	if len(spans) > 0 {
		epoch = spans[0].Start
	}
	events := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		args := make(map[string]interface{}, len(s.Attrs)+2)
		args["span"] = s.ID
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value()
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  "ocelot",
			Ph:   "X",
			TS:   float64(s.Start.Sub(epoch)) / float64(time.Microsecond),
			Dur:  float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
			PID:  1,
			TID:  lanes[i] + 1,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// assignLanes maps spans (in Spans() order) to nesting-safe lanes: spans
// on one lane always form a stack in time, which is what the trace_event
// "X" renderer assumes per tid.
func assignLanes(spans []SpanRecord) []int {
	type open struct {
		id  uint64
		end time.Time
	}
	var lanes [][]open
	laneOf := make(map[uint64]int, len(spans))
	out := make([]int, len(spans))
	pop := func(l int, now time.Time) {
		st := lanes[l]
		for len(st) > 0 && !st[len(st)-1].end.After(now) {
			st = st[:len(st)-1]
		}
		lanes[l] = st
	}
	for i, s := range spans {
		lane := -1
		if s.Parent != 0 {
			if pl, ok := laneOf[s.Parent]; ok {
				pop(pl, s.Start)
				if st := lanes[pl]; len(st) > 0 && st[len(st)-1].id == s.Parent && !st[len(st)-1].end.Before(s.End) {
					lane = pl
				}
			}
		}
		if lane < 0 {
			for l := range lanes {
				pop(l, s.Start)
				if len(lanes[l]) == 0 {
					lane = l
					break
				}
			}
		}
		if lane < 0 {
			lanes = append(lanes, nil)
			lane = len(lanes) - 1
		}
		lanes[lane] = append(lanes[lane], open{id: s.ID, end: s.End})
		laneOf[s.ID] = lane
		out[i] = lane
	}
	return out
}

// ndjsonSpan is one exported NDJSON span record. Times are relative to
// the trace start so two runs of the same campaign diff structurally.
type ndjsonSpan struct {
	ID      uint64                 `json:"id"`
	Parent  uint64                 `json:"parent,omitempty"`
	Name    string                 `json:"name"`
	StartUS float64                `json:"startUs"`
	DurUS   float64                `json:"durUs"`
	Attrs   map[string]interface{} `json:"attrs,omitempty"`
}

// WriteNDJSON exports the completed spans as newline-delimited JSON, one
// span per line in start order — the machine-diffable companion to the
// Chrome export.
func (t *Tracer) WriteNDJSON(w io.Writer) error {
	spans := t.Spans()
	var epoch time.Time
	if len(spans) > 0 {
		epoch = spans[0].Start
	}
	enc := json.NewEncoder(w)
	for _, s := range spans {
		var attrs map[string]interface{}
		if len(s.Attrs) > 0 {
			attrs = make(map[string]interface{}, len(s.Attrs))
			for _, a := range s.Attrs {
				attrs[a.Key] = a.Value()
			}
		}
		rec := ndjsonSpan{
			ID:      s.ID,
			Parent:  s.Parent,
			Name:    s.Name,
			StartUS: float64(s.Start.Sub(epoch)) / float64(time.Microsecond),
			DurUS:   float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
			Attrs:   attrs,
		}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("obs: ndjson span %d: %w", s.ID, err)
		}
	}
	return nil
}

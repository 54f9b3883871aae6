// Package pipeline is a generic bounded-stage streaming engine: stages are
// connected by buffered channels, each stage runs its own worker goroutines,
// and every stage records busy/wall timing so callers can quantify how much
// of the run overlapped. It is the seam the campaign path uses to hide
// compression cost inside WAN transfer time (the paper's end-to-end win),
// but it is deliberately domain-free: any produce → transform → consume
// chain can be expressed with Emit / Stage / Reduce / Collect on one Group.
//
// Usage shape:
//
//	g := pipeline.NewGroup(ctx)
//	src := pipeline.Emit(g, 4, items)
//	mid := pipeline.Stage(g, pipeline.Config{Name: "compress", Workers: 8}, src, fn)
//	out := pipeline.Stage(g, pipeline.Config{Name: "transfer", Workers: 4}, mid, send)
//
// where a stage's fn emits zero or more outputs per input:
//
//	fn := func(ctx context.Context, v In, emit func(Out)) error { emit(f(v)); return nil }
//	got := pipeline.Collect(g, out)
//	err := g.Wait()          // joins everything; first error wins
//	stats := g.Stats()       // per-stage timing, valid after Wait
//
// A failing stage cancels the group context; upstream feeders and
// downstream consumers unwind promptly because every send/receive selects
// on that context.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ocelot/internal/obs"
)

// Config describes one stage.
type Config struct {
	// Name labels the stage in Stats.
	Name string
	// Workers is the stage's goroutine count (≤ 0 means 1).
	Workers int
	// Buffer is the stage's output channel capacity (≤ 0 means unbuffered).
	Buffer int
}

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 1
	}
	if c.Buffer < 0 {
		c.Buffer = 0
	}
	if c.Name == "" {
		c.Name = "stage"
	}
	return c
}

// StageStats is one stage's timing ledger.
type StageStats struct {
	// Name echoes Config.Name.
	Name string
	// Workers echoes the stage's parallelism.
	Workers int
	// Items is the number of items the stage processed.
	Items int
	// BusySec is the summed per-item processing time across all workers.
	BusySec float64
	// WallSec spans the first item's start to the last item's end. When
	// stages overlap, the sum of stage WallSecs exceeds the run's wall
	// time; the excess is the measured overlap.
	WallSec float64
	// FirstStart / LastEnd anchor the stage's active window.
	FirstStart time.Time
	LastEnd    time.Time
	// Bytes is the payload volume the caller attributes to the stage
	// (e.g. raw bytes for a compression stage, archive bytes for a
	// transfer stage); the engine itself is payload-agnostic and leaves it
	// zero until AttachThroughput fills it in.
	Bytes int64
	// MBps is Bytes/1e6 divided by WallSec — the stage's delivered
	// throughput over its active window. Per-worker efficiency is
	// Bytes/BusySec instead; the span-based rate is what tells you whether
	// a stage keeps pace with the link.
	MBps float64
}

// AttachThroughput attributes bytes to the named stage and derives its
// MBps from the stage's wall time. Callers that know what volume each
// stage moved (the campaign engine does; the generic engine does not) call
// this once per stage after Stats.
func AttachThroughput(stats []StageStats, name string, bytes int64) {
	for i := range stats {
		if stats[i].Name != name {
			continue
		}
		stats[i].Bytes = bytes
		if stats[i].WallSec > 0 {
			stats[i].MBps = float64(bytes) / 1e6 / stats[i].WallSec
		}
		return
	}
}

// Overlap computes how much stage activity ran concurrently: the sum of
// per-stage wall times minus the span from the earliest stage start to the
// latest stage end. Zero means strictly serial phases.
func Overlap(stats []StageStats) float64 {
	var sum float64
	var first, last time.Time
	for _, s := range stats {
		if s.Items == 0 {
			continue
		}
		sum += s.WallSec
		if first.IsZero() || s.FirstStart.Before(first) {
			first = s.FirstStart
		}
		if last.IsZero() || s.LastEnd.After(last) {
			last = s.LastEnd
		}
	}
	if first.IsZero() {
		return 0
	}
	span := last.Sub(first).Seconds()
	if sum <= span {
		return 0
	}
	return sum - span
}

type stageRec struct {
	mu    sync.Mutex
	stats StageStats
}

func (r *stageRec) record(t0, t1 time.Time) {
	r.add(t0, t1, 1)
}

// recordSpan charges time without counting an item (a packer's final
// flush is work, not an input).
func (r *stageRec) recordSpan(t0, t1 time.Time) {
	r.add(t0, t1, 0)
}

func (r *stageRec) add(t0, t1 time.Time, items int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stats.Items += items
	r.stats.BusySec += t1.Sub(t0).Seconds()
	if r.stats.FirstStart.IsZero() || t0.Before(r.stats.FirstStart) {
		r.stats.FirstStart = t0
	}
	if t1.After(r.stats.LastEnd) {
		r.stats.LastEnd = t1
	}
}

func (r *stageRec) snapshot() StageStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	if !s.FirstStart.IsZero() {
		s.WallSec = s.LastEnd.Sub(s.FirstStart).Seconds()
	}
	return s
}

// Group owns one pipeline run: a shared context, the stage goroutines, and
// the per-stage stats. Create with NewGroup, wire stages, then Wait.
type Group struct {
	ctx    context.Context
	cancel context.CancelFunc
	now    func() time.Time
	wg     sync.WaitGroup

	// tracer/span, captured from the creation context, receive one
	// "stage:<name>" envelope span per active stage when the run joins —
	// the timing ledger replayed into the trace after the fact.
	tracer *obs.Tracer
	span   *obs.Span
	traced sync.Once

	mu     sync.Mutex
	err    error
	stages []*stageRec
}

// NewGroup creates a pipeline group under ctx.
func NewGroup(ctx context.Context) *Group {
	return NewGroupWithClock(ctx, time.Now)
}

// NewGroupWithClock creates a group with an injected clock for stats
// (tests; nil means time.Now).
func NewGroupWithClock(ctx context.Context, now func() time.Time) *Group {
	if now == nil {
		now = time.Now
	}
	gctx, cancel := context.WithCancel(ctx)
	return &Group{ctx: gctx, cancel: cancel, now: now,
		tracer: obs.TracerFromContext(ctx), span: obs.SpanFromContext(ctx)}
}

// Context is the group's cancellation context; it is cancelled when any
// stage fails or the parent context ends.
func (g *Group) Context() context.Context { return g.ctx }

// fail records the first meaningful error and tears the pipeline down.
// Plain context.Canceled from the teardown itself never masks the root
// cause.
func (g *Group) fail(err error) {
	if err == nil {
		return
	}
	g.mu.Lock()
	if g.err == nil || (errors.Is(g.err, context.Canceled) && !errors.Is(err, context.Canceled)) {
		g.err = err
	}
	g.mu.Unlock()
	g.cancel()
}

// Wait joins every stage and returns the first error (nil on success).
func (g *Group) Wait() error {
	g.wg.Wait()
	g.cancel()
	g.traceStages()
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.err
}

// traceStages replays the per-stage timing ledger into the captured
// tracer as "stage:<name>" envelope spans, parented to the span the
// creation context carried. Runs once; no-op without an enabled tracer.
func (g *Group) traceStages() {
	g.traced.Do(func() {
		if !g.tracer.Enabled() {
			return
		}
		for _, s := range g.Stats() {
			if s.Items == 0 || s.FirstStart.IsZero() {
				continue
			}
			g.tracer.Record(g.span, "stage:"+s.Name, s.FirstStart, s.LastEnd,
				obs.Int("items", int64(s.Items)), obs.Int("workers", int64(s.Workers)))
		}
	})
}

// Stats returns per-stage timing in stage-creation order. Call after Wait;
// calling earlier yields a consistent snapshot of progress so far.
func (g *Group) Stats() []StageStats {
	g.mu.Lock()
	recs := make([]*stageRec, len(g.stages))
	copy(recs, g.stages)
	g.mu.Unlock()
	out := make([]StageStats, len(recs))
	for i, r := range recs {
		out[i] = r.snapshot()
	}
	return out
}

func (g *Group) newStage(cfg Config) *stageRec {
	rec := &stageRec{stats: StageStats{Name: cfg.Name, Workers: cfg.Workers}}
	g.mu.Lock()
	g.stages = append(g.stages, rec)
	g.mu.Unlock()
	return rec
}

// Emit feeds a slice into the pipeline as its source, honouring group
// cancellation.
func Emit[T any](g *Group, buffer int, items []T) <-chan T {
	if buffer < 0 {
		buffer = 0
	}
	out := make(chan T, buffer)
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer close(out)
		for _, v := range items {
			select {
			case <-g.ctx.Done():
				return
			case out <- v:
			}
		}
	}()
	return out
}

// Stage runs fn over items from in with cfg.Workers goroutines, streaming
// results onward as they complete (not in input order). fn may emit zero
// or more outputs per input, as Reduce's does; they go downstream in emit
// order once fn returns, so the stage's busy time is fn's own work and
// never its wait on downstream backpressure. The stage's output channel
// closes when the input is exhausted or the group aborts; the first failing
// item cancels the group, so sibling workers stop taking input and an
// in-flight fn sees its context cancelled.
func Stage[I, O any](g *Group, cfg Config, in <-chan I, fn func(ctx context.Context, v I, emit func(O)) error) <-chan O {
	cfg = cfg.withDefaults()
	rec := g.newStage(cfg)
	out := make(chan O, cfg.Buffer)
	var workers sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			var pending []O
			emit := func(o O) { pending = append(pending, o) }
			for {
				select {
				case <-g.ctx.Done():
					return
				case v, ok := <-in:
					if !ok {
						return
					}
					t0 := g.now()
					err := fn(g.ctx, v, emit)
					rec.record(t0, g.now())
					if err != nil {
						// Record the failure before the stage's output
						// channel can close: downstream stages must see a
						// cancelled group, not a cleanly-exhausted input, or
						// their flush would run on partial state and mask
						// the root cause.
						g.fail(fmt.Errorf("pipeline: stage %s: %w", cfg.Name, err))
						return
					}
					for _, o := range pending {
						select {
						case <-g.ctx.Done():
							return
						case out <- o:
						}
					}
					clear(pending) // hold no output past its send
					pending = pending[:0]
				}
			}
		}()
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		workers.Wait()
		close(out)
		// A parent cancellation reaches no fn error, so it is recorded here.
		if err := g.ctx.Err(); err != nil {
			g.fail(fmt.Errorf("pipeline: stage %s: %w", cfg.Name, err))
		}
	}()
	return out
}

// Reduce runs a single-worker stateful stage: fn may emit zero or more
// outputs per input (a packer emitting an archive only when a group
// fills), and flush runs once after the input is exhausted to drain any
// held state. Emit calls block on downstream backpressure, so held state
// stays bounded. Workers in cfg is forced to 1; Buffer applies to the
// output channel.
func Reduce[I, O any](g *Group, cfg Config, in <-chan I,
	fn func(ctx context.Context, v I, emit func(O) error) error,
	flush func(ctx context.Context, emit func(O) error) error) <-chan O {
	cfg = cfg.withDefaults()
	cfg.Workers = 1
	rec := g.newStage(cfg)
	out := make(chan O, cfg.Buffer)
	emit := func(o O) error {
		select {
		case <-g.ctx.Done():
			return g.ctx.Err()
		case out <- o:
			return nil
		}
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		defer close(out)
		run := func(f func() error, countItem bool) bool {
			t0 := g.now()
			err := f()
			if countItem {
				rec.record(t0, g.now())
			} else {
				rec.recordSpan(t0, g.now())
			}
			if err != nil {
				g.fail(fmt.Errorf("pipeline: stage %s: %w", cfg.Name, err))
				return false
			}
			return true
		}
		for {
			select {
			case <-g.ctx.Done():
				return
			case v, ok := <-in:
				if !ok {
					// A failed upstream stage records its error before its
					// output closes, so a closed input with a live group
					// context really is clean exhaustion.
					if flush != nil && g.ctx.Err() == nil {
						run(func() error { return flush(g.ctx, emit) }, false)
					}
					return
				}
				if !run(func() error { return fn(g.ctx, v, emit) }, true) {
					return
				}
			}
		}
	}()
	return out
}

// Collect drains in into a slice. The returned pointer is safe to read
// only after Wait returns.
func Collect[T any](g *Group, in <-chan T) *[]T {
	out := new([]T)
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		for v := range in {
			*out = append(*out, v)
		}
	}()
	return out
}

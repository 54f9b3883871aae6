package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"ocelot/internal/core"
	"ocelot/internal/datagen"
	"ocelot/internal/obs"
)

// obsStageSpans is the span set every traced pipelined campaign must emit
// at least once — the taxonomy ARCHITECTURE.md documents.
var obsStageSpans = []string{"campaign", "compress", "pack", "transfer", "send", "decompress", "verify"}

// obsReps is how many timed batches each side of the overhead A/B takes.
const obsReps = 9

// obsRepSecs is the target duration of one timed batch; short calls are
// repeated until a batch takes at least this long, so per-call timer noise
// cannot dominate the figure.
const obsRepSecs = 0.15

// calibrate warms fn (pools, caches) and returns the batch iteration
// count that makes one timed batch last about obsRepSecs.
func calibrate(fn func() error) (int, error) {
	start := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	once := time.Since(start).Seconds()
	iters := 1
	if once < obsRepSecs {
		iters = int(obsRepSecs/once) + 1
	}
	return iters, nil
}

// batchSecs runs one timed batch and returns per-call seconds.
func batchSecs(fn func() error, iters int) (float64, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds() / float64(iters), nil
}

// pairedMedian A/B-times newFn against refFn: each round runs one batch
// of each back to back, so multi-second host-load epochs land on both
// sides of the comparison instead of skewing whichever leg they happened
// to overlap. It returns the median per-call seconds of each side and the
// median of the per-round speedup ratios. Medians, not minima, on purpose:
// allocation-heavy code pays its GC bill stochastically, and a best-of
// filter would erase that real cost from one side. The heap is flushed up
// front so GC pacing carried over from earlier work cannot tilt the
// comparison.
func pairedMedian(newFn, refFn func() error) (newSec, refSec, speedup float64, err error) {
	runtime.GC()
	newIters, err := calibrate(newFn)
	if err != nil {
		return 0, 0, 0, err
	}
	refIters, err := calibrate(refFn)
	if err != nil {
		return 0, 0, 0, err
	}
	newReps := make([]float64, obsReps)
	refReps := make([]float64, obsReps)
	ratios := make([]float64, obsReps)
	for r := 0; r < obsReps; r++ {
		if newReps[r], err = batchSecs(newFn, newIters); err != nil {
			return 0, 0, 0, err
		}
		if refReps[r], err = batchSecs(refFn, refIters); err != nil {
			return 0, 0, 0, err
		}
		ratios[r] = refReps[r] / newReps[r]
	}
	sort.Float64s(newReps)
	sort.Float64s(refReps)
	sort.Float64s(ratios)
	mid := obsReps / 2
	return newReps[mid], refReps[mid], ratios[mid], nil
}

// ObsOverhead is the observability-contract artifact behind internal/obs:
// instrumentation wired through every campaign stage must be free when
// nobody is looking, and complete when somebody is.
//
// Overhead leg: the same pipelined campaign is A/B-timed with Obs unset
// (baseline) versus fully instrumented but disabled — a tracer with
// SetEnabled(false) plus a live metrics registry, so every StartSpan
// resolves to one atomic load and every counter to one atomic add. The
// median-of-ratios overhead fraction is reported, not gated: wall-clock A/B
// on a shared host is too noisy to assert on, and the end-to-end
// benchmark's trace.overhead_frac is the measured figure. What is asserted
// is the mechanism: the disabled tracer must record no span at all
// (disabled_spans).
//
// Coverage leg: one run with tracing enabled must emit at least one span
// for every pipeline stage (campaign, compress, pack, transfer, send,
// decompress, verify) and its metrics snapshot must account for every raw
// byte the campaign moved.
func ObsOverhead(scale Scale) (*Result, error) {
	scale = scale.timing() // overhead fractions need runs long enough to time
	res := newResult("ObsOverhead")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	const nFields = 4
	fields, err := datagen.GenerateFirst("CESM", nFields, scale.Shrink, scale.Seed)
	if err != nil {
		return nil, err
	}
	var rawBytes int64
	for _, f := range fields {
		rawBytes += int64(f.RawBytes())
	}
	spec := core.CampaignSpec{
		RelErrorBound: 1e-3,
		Workers:       4,
		GroupParam:    2,
		Codec:         scale.Codec,
		Transport:     core.NopTransport{},
	}

	baseline := func() error {
		_, err := core.Run(ctx, fields, spec)
		return err
	}
	// Instrumented-but-disabled: the exact production wiring a daemon would
	// leave in place between scrapes. The registry is live (counters DO
	// count); only the tracer is off.
	offTracer := obs.NewTracer()
	offTracer.SetEnabled(false)
	instr := spec
	instr.Obs = &obs.Obs{Tracer: offTracer, Metrics: obs.NewRegistry()}
	instrumented := func() error {
		_, err := core.Run(ctx, fields, instr)
		return err
	}
	instrSec, baseSec, speedup, err := pairedMedian(instrumented, baseline)
	if err != nil {
		return nil, fmt.Errorf("obs overhead: %w", err)
	}
	// speedup is median(base/instr) per round; overhead is its inverse.
	overhead := 1/speedup - 1
	res.Values["overhead_frac"] = overhead
	res.Values["instrumented_sec"] = instrSec
	res.Values["baseline_sec"] = baseSec
	disabledSpans := len(offTracer.Spans())
	res.Values["disabled_spans"] = float64(disabledSpans)

	// Coverage leg: enabled tracer + fresh registry, one run.
	tracer := obs.NewTracer()
	en := spec
	en.Obs = &obs.Obs{Tracer: tracer, Metrics: obs.NewRegistry()}
	eres, err := core.Run(ctx, fields, en)
	if err != nil {
		return nil, fmt.Errorf("obs coverage: %w", err)
	}
	byName := make(map[string]int)
	for _, s := range tracer.Spans() {
		byName[s.Name]++
	}
	for _, want := range obsStageSpans {
		if byName[want] == 0 {
			return nil, fmt.Errorf("obs coverage: traced campaign emitted no %q span", want)
		}
	}
	if eres.Metrics == nil {
		return nil, errors.New("obs coverage: instrumented CampaignResult carries no metrics snapshot")
	}
	if got := int64(eres.Metrics["campaign_raw_bytes_total"]); got != rawBytes {
		return nil, fmt.Errorf("obs coverage: campaign_raw_bytes_total = %d, want %d", got, rawBytes)
	}
	res.Values["enabled_spans"] = float64(len(tracer.Spans()))
	res.Values["enabled_send_spans"] = float64(byName["send"])
	res.Values["metrics_series"] = float64(len(eres.Metrics))
	res.Values["config/fields"] = nFields
	res.Values["config/raw_bytes"] = float64(rawBytes)

	var sb strings.Builder
	sb.WriteString("ObsOverhead: instrumented-but-disabled vs baseline campaign\n\n")
	sb.WriteString(fmt.Sprintf("baseline      %8.4fs median wall\n", baseSec))
	sb.WriteString(fmt.Sprintf("instrumented  %8.4fs median wall (tracer disabled, registry live)\n", instrSec))
	sb.WriteString(fmt.Sprintf("overhead      %+8.2f%% (%d spans recorded while disabled)\n\n",
		overhead*100, disabledSpans))
	sb.WriteString(fmt.Sprintf("enabled run: %d spans across %d names, %d metric series\n",
		len(tracer.Spans()), len(byName), len(eres.Metrics)))
	sb.WriteString(fmt.Sprintf("stage span coverage: %s\n", strings.Join(obsStageSpans, ", ")))
	res.Text = sb.String()
	return res, nil
}

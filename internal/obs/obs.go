// Package obs is the repo's observability layer: span tracing, an
// atomic metrics registry with Prometheus text exposition, and the
// context plumbing that threads both through the campaign engine.
//
// The package is designed around one contract: observability that is
// switched off must cost (almost) nothing. Every entry point is nil-safe
// — StartSpan on a nil or disabled Tracer is an atomic load plus pointer
// checks and returns a nil *Span whose End is a no-op; Counter/Gauge/
// Histogram handles resolved from a nil *Obs or nil *Registry are nil
// pointers whose Add/Set/Observe methods return immediately. Call sites
// therefore instrument unconditionally and let the bundle decide.
//
// The three pillars:
//
//   - Tracing (trace.go): Tracer/Span record named, attributed,
//     parent-linked intervals carried via context.Context, exportable as
//     Chrome trace_event JSON (chrome://tracing, Perfetto) and NDJSON.
//   - Metrics (metrics.go): Registry hands out atomic Counters, Gauges,
//     and log-bucketed Histograms keyed by name + labels, rendered in
//     Prometheus text exposition format by WritePrometheus.
//   - Profiling is stdlib net/http/pprof + expvar; the obs package only
//     defines the conventions — cmd/ocelot mounts the handlers.
package obs

import "context"

// Obs bundles a tracer and a metrics registry — the handle a campaign,
// daemon, or test threads through the layers it wants observed. Either
// field (or the whole bundle) may be nil: every method degrades to a
// no-op through pointer checks alone.
type Obs struct {
	// Tracer records spans; nil (or disabled) means no tracing.
	Tracer *Tracer
	// Metrics is the registry instrumented counters resolve against; nil
	// means no metrics.
	Metrics *Registry
}

// With derives a bundle whose metrics carry additional base labels (the
// serve daemon labels each tenant's campaign metrics this way); the
// tracer is shared. Nil-safe: a nil bundle stays nil.
func (o *Obs) With(labels ...Label) *Obs {
	if o == nil {
		return nil
	}
	return &Obs{Tracer: o.Tracer, Metrics: o.Metrics.With(labels...)}
}

// StartSpan opens a span on the bundle's tracer (see Tracer.StartSpan).
// With no bundle or no tracer it returns ctx unchanged and a nil span.
func (o *Obs) StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if o == nil || o.Tracer == nil {
		return ctx, nil
	}
	return o.Tracer.StartSpan(ctx, name, attrs...)
}

// Counter resolves a counter on the bundle's registry (nil without one).
func (o *Obs) Counter(name string, labels ...Label) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name, labels...)
}

// Gauge resolves a gauge on the bundle's registry (nil without one).
func (o *Obs) Gauge(name string, labels ...Label) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name, labels...)
}

// Histogram resolves a histogram on the bundle's registry (nil without
// one).
func (o *Obs) Histogram(name string, labels ...Label) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name, labels...)
}

// ctxKey keys the span a context carries.
type ctxKey int

const spanKey ctxKey = 0

// AttrKind discriminates an attribute's payload.
type AttrKind uint8

// Attribute payload kinds.
const (
	// AttrString marks a string-valued attribute.
	AttrString AttrKind = iota
	// AttrInt marks an int64-valued attribute.
	AttrInt
	// AttrFloat marks a float64-valued attribute.
	AttrFloat
)

// Attr is one typed span attribute. Exactly one payload field is
// meaningful, selected by Kind; build attrs with String, Int, or Float.
type Attr struct {
	// Key names the attribute.
	Key string
	// Kind selects the payload field.
	Kind AttrKind
	// Str is the payload for AttrString.
	Str string
	// Int is the payload for AttrInt.
	Int int64
	// Float is the payload for AttrFloat.
	Float float64
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Kind: AttrString, Str: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr { return Attr{Key: key, Kind: AttrInt, Int: value} }

// Float builds a float attribute.
func Float(key string, value float64) Attr { return Attr{Key: key, Kind: AttrFloat, Float: value} }

// Value returns the attribute's payload as an interface value (for JSON
// export).
func (a Attr) Value() interface{} {
	switch a.Kind {
	case AttrInt:
		return a.Int
	case AttrFloat:
		return a.Float
	default:
		return a.Str
	}
}

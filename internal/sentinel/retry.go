package sentinel

// This file is the sentinel's request/result machinery generalized into a
// reusable fault-tolerance layer: transient-vs-permanent error
// classification, retry with exponential backoff, and endpoint failover.
// The node-waiting scenario (sentinel.Run) degrades a blocked request onto
// an alternate path; RetryPolicy.Do and Failover apply the same stance to
// WAN sends — a transient flap is retried in place, a dead endpoint is
// failed over, and a permanent error is surfaced immediately, classified.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ocelot/internal/obs"
)

// Transienter is implemented by errors that know they are retryable —
// link flaps, outage windows, queue-full conditions. Errors without the
// method are treated as permanent: retrying a compression bug or a
// malformed archive only delays the inevitable.
type Transienter interface {
	// Transient reports whether the operation may succeed if retried.
	Transient() bool
}

// transientErr wraps an error to mark it retryable.
type transientErr struct{ err error }

func (e *transientErr) Error() string   { return e.err.Error() }
func (e *transientErr) Unwrap() error   { return e.err }
func (e *transientErr) Transient() bool { return true }

// MarkTransient wraps err so Classify treats it as retryable. A nil err
// stays nil.
func MarkTransient(err error) error {
	if err == nil {
		return nil
	}
	return &transientErr{err: err}
}

// PermanentError wraps the terminal error of an exhausted retry/failover
// sequence with its classification and attempt accounting, so callers (and
// operators reading campaign failures) see *why* the engine gave up: a
// permanent error fails fast on the first attempt, a transient one only
// after the policy's budget is spent.
type PermanentError struct {
	// Err is the final underlying error.
	Err error
	// Attempts is the total operation count across endpoints.
	Attempts int
	// Endpoints is how many endpoints were tried.
	Endpoints int
	// Transient reports whether the final error was itself transient (the
	// budget ran out) or permanent (the engine refused to retry).
	Transient bool
}

// Error implements error.
func (e *PermanentError) Error() string {
	class := "permanent"
	if e.Transient {
		class = "transient (retry budget exhausted)"
	}
	return fmt.Sprintf("sentinel: giving up after %d attempt(s) on %d endpoint(s): %s error: %v",
		e.Attempts, e.Endpoints, class, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *PermanentError) Unwrap() error { return e.Err }

// IsTransient reports whether err (or anything it wraps) declares itself
// retryable via the Transienter interface. Context cancellation and
// deadline errors are never transient: the caller asked to stop.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var t Transienter
	return errors.As(err, &t) && t.Transient()
}

// RetryPolicy tunes retry-with-exponential-backoff for one endpoint. The
// zero value means a single attempt (no retries) — fault tolerance is
// opt-in, so existing campaigns keep fail-fast semantics.
type RetryPolicy struct {
	// MaxAttempts bounds attempts per endpoint; ≤ 1 means one attempt.
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry; 0 = 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth; 0 = 2s.
	MaxBackoff time.Duration
	// Multiplier grows the backoff per retry; < 1 = 2.
	Multiplier float64
	// Sleep injects the backoff sleeper (tests, and callers whose retries
	// need no pause); nil sleeps on a timer, honouring ctx.
	Sleep func(ctx context.Context, d time.Duration) error
	// Metrics, when set, counts sentinel_retries_total,
	// sentinel_failovers_total, and sentinel_permanent_errors_total as
	// Do/Failover classify outcomes. Nil costs a pointer check.
	Metrics *obs.Registry
}

// withDefaults resolves the policy's zero values.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	if p.Multiplier < 1 {
		p.Multiplier = 2
	}
	if p.Sleep == nil {
		p.Sleep = sleepCtx
	}
	return p
}

// sleepCtx sleeps d, honouring ctx cancellation.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// Do runs op, retrying transient failures with exponential backoff until
// the policy's attempt budget is spent. It returns the retry count (zero
// when the first attempt succeeded) and the final error. Permanent errors
// — anything not marked Transient, including context cancellation — stop
// the sequence immediately.
func (p RetryPolicy) Do(ctx context.Context, op func(ctx context.Context) error) (retries int, err error) {
	p = p.withDefaults()
	backoff := p.BaseBackoff
	for attempt := 1; ; attempt++ {
		err = op(ctx)
		if err == nil || !IsTransient(err) || attempt >= p.MaxAttempts {
			if err != nil && !IsTransient(err) {
				p.Metrics.Counter("sentinel_permanent_errors_total").Inc()
			}
			return attempt - 1, err
		}
		p.Metrics.Counter("sentinel_retries_total").Inc()
		if serr := p.Sleep(ctx, backoff); serr != nil {
			return attempt - 1, serr
		}
		backoff = time.Duration(float64(backoff) * p.Multiplier)
		if backoff > p.MaxBackoff {
			backoff = p.MaxBackoff
		}
	}
}

// Failover runs op against endpoints 0..endpoints-1 in order, applying the
// retry policy on each: transient errors are retried in place, and when an
// endpoint's budget is spent — or it fails permanently — the next endpoint
// is tried. The terminal error is wrapped in *PermanentError with the full
// attempt accounting. Context cancellation aborts the whole sequence.
func Failover(ctx context.Context, p RetryPolicy, endpoints int,
	op func(ctx context.Context, endpoint int) error) (retries, failovers int, err error) {
	if endpoints < 1 {
		endpoints = 1
	}
	attempts := 0
	for ep := 0; ep < endpoints; ep++ {
		r, opErr := p.Do(ctx, func(ctx context.Context) error { return op(ctx, ep) })
		retries += r
		attempts += r + 1
		if opErr == nil {
			return retries, ep, nil
		}
		err = opErr
		if ctx.Err() != nil {
			// Cancellation is not a failover candidate: return it bare so
			// the engine unwinds as canceled, not failed.
			return retries, ep, ctx.Err()
		}
		if ep+1 < endpoints {
			failovers++
			p.Metrics.Counter("sentinel_failovers_total").Inc()
		}
	}
	return retries, failovers, &PermanentError{
		Err:       err,
		Attempts:  attempts,
		Endpoints: endpoints,
		Transient: IsTransient(err),
	}
}

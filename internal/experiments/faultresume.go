package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"ocelot/internal/core"
	"ocelot/internal/datagen"
	"ocelot/internal/journal"
	"ocelot/internal/sentinel"
	"ocelot/internal/wan"
)

// faultKillAfterGroups is the crash drill's kill point: the campaign dies
// once this many of its six groups are acked end to end.
const faultKillAfterGroups = 4

// rejectingTransport refuses every archive with a permanent error — the
// fail-fast leg's hard-down endpoint.
type rejectingTransport struct{ calls atomic.Int64 }

func (r *rejectingTransport) Name() string { return "reject" }
func (r *rejectingTransport) Send(ctx context.Context, name string, data []byte) (float64, error) {
	r.calls.Add(1)
	return 0, errors.New("reject: endpoint refuses archives")
}

// FaultResume is the fault-tolerance artifact behind the campaign journal:
// three legs, each proving one contract of the resumable pipeline.
//
// Crash-resume: a journaled six-group campaign is killed after four groups
// are acked, then resumed from the journal. The resume must reproduce the
// uninterrupted run's ReconDigest bit for bit while re-sending only the
// missing groups (resent-bytes fraction well under 0.5), and its wall time
// is reported against a full rerun's.
//
// Flap-retry: every send on a seeded flapping link drops with probability
// 0.4; a bounded retry policy must carry the campaign to completion and
// report how many transient retries it absorbed.
//
// Permanent fail-fast: an endpoint that refuses archives outright must
// fail the campaign on the first attempt with a classified permanent
// error, not burn the retry budget.
func FaultResume(scale Scale) (*Result, error) {
	scale = scale.withDefaults()
	res := newResult("FaultResume")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	const nFields = 6
	fields, err := datagen.GenerateFirst("CESM", nFields, scale.Shrink, scale.Seed)
	if err != nil {
		return nil, err
	}
	// One field per group and one transfer stream: six kill-able units
	// shipped in a deterministic order.
	spec := core.CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         2,
		GroupParam:      nFields,
		Codec:           scale.Codec,
		Engine:          core.EngineBarrier,
		TransferStreams: 1,
	}

	dir, err := os.MkdirTemp("", "ocelot-faultresume-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Ground truth: the same campaign run uninterrupted. Its digest is what
	// every resume must reproduce, and its wall time is the full-rerun cost
	// a resume avoids.
	ref := spec
	ref.Journal = filepath.Join(dir, "ref.ocjl")
	ref.Transport = core.NopTransport{}
	refRes, err := core.Run(ctx, fields, ref)
	if err != nil {
		return nil, fmt.Errorf("fault resume reference: %w", err)
	}
	if refRes.ReconDigest == 0 {
		return nil, errors.New("fault resume: journaled reference run has no digest")
	}

	// Crash leg: pace the link so each of the six archives takes ~0.25
	// simulated (= wall) seconds, giving the kill poller a wide window.
	compMB := float64(refRes.GroupedBytes) / 1e6
	link := &wan.Link{Name: "fault-crawl", BandwidthMBps: compMB / 1.5, Concurrency: 1, PerFileOverheadSec: 0.02}
	jpath := filepath.Join(dir, "crash.ocjl")
	crash := spec
	crash.Journal = jpath
	crash.Transport = &core.SimulatedWANTransport{Link: link, Timescale: 1}
	h, err := core.Submit(ctx, fields, crash)
	if err != nil {
		return nil, err
	}
	go func() {
		for {
			select {
			case <-h.Done():
				return
			case <-time.After(time.Millisecond):
			}
			if m, err := journal.Load(jpath); err == nil && m.AckedGroups() >= faultKillAfterGroups {
				h.Cancel()
				return
			}
		}
	}()
	<-h.Done()
	pre, err := journal.Load(jpath)
	if err != nil {
		return nil, fmt.Errorf("fault resume: journal unreadable after kill: %w", err)
	}
	preAcked := pre.AckedGroups()

	resume := spec
	resume.Journal = jpath
	resume.ResumeFrom = jpath
	resume.Transport = core.NopTransport{}
	rres, err := core.Run(ctx, fields, resume)
	if err != nil {
		return nil, fmt.Errorf("fault resume: resume failed: %w", err)
	}
	if rres.ReconDigest != refRes.ReconDigest {
		return nil, fmt.Errorf("fault resume: resumed digest %016x != uninterrupted %016x",
			rres.ReconDigest, refRes.ReconDigest)
	}
	resentFrac := 0.0
	if total := rres.GroupedBytes + rres.SkippedBytes; total > 0 {
		resentFrac = float64(rres.GroupedBytes) / float64(total)
	}
	res.Values["digest_match"] = 1
	res.Values["kill_acked_groups"] = float64(preAcked)
	res.Values["skipped_groups"] = float64(rres.SkippedGroups)
	res.Values["resent_fraction"] = resentFrac
	res.Values["resume_wall_sec"] = rres.WallSec
	res.Values["full_wall_sec"] = refRes.WallSec

	// Flap leg: a seeded lossy link plus a bounded retry budget. The
	// campaign must complete and must actually have retried.
	flap := spec
	flap.Transport = &core.SimulatedWANTransport{
		Link: &wan.Link{Name: "fault-flap", BandwidthMBps: 200, Concurrency: 1,
			Faults: &wan.Faults{SendErrProb: 0.4, Seed: 9}},
		Timescale: 1e-3,
	}
	flap.Retry = sentinel.RetryPolicy{MaxAttempts: 10, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond}
	fres, err := core.Run(ctx, fields, flap)
	if err != nil {
		return nil, fmt.Errorf("fault resume: flap leg: %w", err)
	}
	if fres.Retries == 0 {
		return nil, errors.New("fault resume: flap leg saw no retries — fault injection missed the retry path")
	}
	res.Values["flap_retries"] = float64(fres.Retries)

	// Fail-fast leg: a permanently refusing endpoint must not consume the
	// retry budget.
	rej := &rejectingTransport{}
	perm := spec
	perm.GroupParam = 1
	perm.Transport = rej
	perm.Retry = flap.Retry
	_, err = core.Run(ctx, fields, perm)
	var pe *sentinel.PermanentError
	if !errors.As(err, &pe) {
		return nil, fmt.Errorf("fault resume: permanent leg returned %v, want a classified *sentinel.PermanentError", err)
	}
	if pe.Transient {
		return nil, errors.New("fault resume: permanent failure classified transient")
	}
	res.Values["permfail_attempts"] = float64(pe.Attempts)
	res.Values["permfail_sends"] = float64(rej.calls.Load())

	var sb strings.Builder
	sb.WriteString("FaultResume: crash-resume, flap-retry, and fail-fast drills\n\n")
	sb.WriteString(fmt.Sprintf("crash-resume: killed at %d/%d acked groups, resume skipped %d\n",
		preAcked, nFields, rres.SkippedGroups))
	sb.WriteString(fmt.Sprintf("  recon digest %016x identical to uninterrupted run\n", rres.ReconDigest))
	sb.WriteString(fmt.Sprintf("  resent-bytes fraction %.3f (acceptance < 0.5)\n", resentFrac))
	sb.WriteString(fmt.Sprintf("  resume wall %.3fs vs full rerun %.3fs\n", rres.WallSec, refRes.WallSec))
	sb.WriteString(fmt.Sprintf("flap-retry: completed through %d transient retries on a 0.4-drop link\n", fres.Retries))
	sb.WriteString(fmt.Sprintf("fail-fast: permanent endpoint failure after %d attempt(s), %d send(s)\n",
		pe.Attempts, rej.calls.Load()))
	res.Text = sb.String()
	return res, nil
}

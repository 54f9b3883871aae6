package core

import (
	"context"
	"errors"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"ocelot/internal/grouping"
	"ocelot/internal/journal"
	"ocelot/internal/sentinel"
	"ocelot/internal/wan"
)

// resumeSpec is the shared campaign shape of the crash-resume tests: six
// fields in six single-member groups, so kills at different points leave
// meaningfully different journal states.
func resumeSpec(jpath, resume string, tr Transport) CampaignSpec {
	return CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         2,
		GroupParam:      6,
		Transport:       tr,
		TransferStreams: 1,
		Journal:         jpath,
		ResumeFrom:      resume,
	}
}

// crawlLink paces sends slowly enough (tens of ms per archive) that a
// background poller can observe and kill the campaign at a chosen journal
// state.
func crawlLink() *wan.Link {
	return &wan.Link{Name: "crawl", BandwidthMBps: 1, PerFileOverheadSec: 0.01, Concurrency: 1}
}

// killAt runs a journaled campaign, its resumeSpec regrouped by group,
// cancels it as soon as the journal satisfies trigger, resumes from the
// journal, and checks the resume contract: the resumed ReconDigest equals
// the uninterrupted run's, resumed groups cover only fields no pre-kill
// acked group covered, and skipped accounting matches the journal.
func killAt(t *testing.T, group func(*CampaignSpec), refDigest uint64, trigger func(*journal.Manifest) bool) {
	t.Helper()
	ctx := context.Background()
	jpath := filepath.Join(t.TempDir(), "run.ocjl")
	fields := pipelineFields(t, 6, 16)

	slow := &SimulatedWANTransport{Link: crawlLink(), Timescale: 1}
	spec := resumeSpec(jpath, "", slow)
	group(&spec)
	h, err := Submit(ctx, fields, spec)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			select {
			case <-h.Done():
				return
			case <-time.After(500 * time.Microsecond):
			}
			if m, err := journal.Load(jpath); err == nil && trigger(m) {
				h.Cancel()
				return
			}
		}
	}()
	<-h.Done()

	pre, err := journal.Load(jpath)
	if err != nil {
		t.Fatalf("journal unreadable after kill: %v", err)
	}
	preDone, _, _ := pre.DoneFields()
	preMax := pre.MaxGroupID()
	preAcked := pre.AckedGroups()

	spec = resumeSpec(jpath, jpath, NopTransport{})
	group(&spec)
	res, err := Run(ctx, fields, spec)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !res.Resumed {
		t.Error("result not marked resumed")
	}
	if res.ReconDigest != refDigest {
		t.Errorf("resumed digest %016x != uninterrupted %016x", res.ReconDigest, refDigest)
	}
	if res.SkippedGroups != preAcked {
		t.Errorf("skipped %d groups, journal had %d acked", res.SkippedGroups, preAcked)
	}

	post, err := journal.Load(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !post.Done {
		t.Error("journal not marked done after resume")
	}
	for id, g := range post.Groups {
		if id <= preMax {
			continue
		}
		// Groups packed by the resumed incarnation must cover only fields
		// the pre-kill journal had NOT acked.
		for _, idx := range g.Members {
			if preDone[idx] {
				t.Errorf("resume re-packed already-acked field %d in group %d", idx, id)
			}
		}
	}
}

// TestCrashResumeProperty kills a journaled campaign at four points —
// mid-compress, mid-pack, mid-transfer, between groups — under two
// groupings, and verifies every resume reproduces the uninterrupted
// campaign's ReconDigest while re-executing only missing fields. The
// by-target-size leg closes byte-budget groups of about two fields in
// completion order, so its groups differ from run to run and between the
// halves of a resume. The kill points are journal-state predicates, so the
// property holds wherever the cancel actually lands.
func TestCrashResumeProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario kill/resume matrix")
	}
	triggers := []struct {
		name    string
		trigger func(*journal.Manifest) bool
	}{
		{"mid-compress", func(m *journal.Manifest) bool { return true }},
		{"mid-pack", func(m *journal.Manifest) bool { return len(m.Groups) >= 1 }},
		{"mid-transfer", func(m *journal.Manifest) bool {
			for _, g := range m.Groups {
				if g.Sent {
					return true
				}
			}
			return false
		}},
		{"between-groups", func(m *journal.Manifest) bool { return m.AckedGroups() >= 2 }},
	}
	for _, leg := range []struct {
		name  string
		group func(*CampaignSpec)
	}{
		{"by-world-size", func(*CampaignSpec) {}},
		{"by-target-size", func(s *CampaignSpec) {
			s.GroupStrategy, s.GroupParam = grouping.ByTargetSize, 20000
		}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			// One uninterrupted reference run per grouping; its digest is
			// the ground truth every kill/resume pair must reproduce.
			refPath := filepath.Join(t.TempDir(), "ref.ocjl")
			fields := pipelineFields(t, 6, 16)
			spec := resumeSpec(refPath, "", NopTransport{})
			leg.group(&spec)
			ref, err := Run(context.Background(), fields, spec)
			if err != nil {
				t.Fatal(err)
			}
			if ref.ReconDigest == 0 {
				t.Fatal("journaled reference run has no digest")
			}
			if ref.Groups < 3 {
				t.Fatalf("reference run packed %d groups; the kill points need at least 3", ref.Groups)
			}
			for _, tc := range triggers {
				tc := tc
				t.Run(tc.name, func(t *testing.T) {
					killAt(t, leg.group, ref.ReconDigest, tc.trigger)
				})
			}
		})
	}
}

// TestResumeCompletedCampaignShortCircuits resumes a journal whose campaign
// already finished: nothing re-executes, and the digest folds entirely from
// the journal's records.
func TestResumeCompletedCampaignShortCircuits(t *testing.T) {
	ctx := context.Background()
	jpath := filepath.Join(t.TempDir(), "done.ocjl")
	fields := pipelineFields(t, 4, 16)
	spec := resumeSpec(jpath, "", NopTransport{})
	spec.GroupParam = 4
	full, err := Run(ctx, fields, spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.ResumeFrom = jpath
	res, err := Run(ctx, fields, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed || res.Groups != 0 || res.SkippedGroups != full.Groups {
		t.Fatalf("short-circuit resume ran work: %+v", res)
	}
	if res.ReconDigest != full.ReconDigest {
		t.Fatalf("digest drifted on no-op resume: %016x vs %016x", res.ReconDigest, full.ReconDigest)
	}
}

// TestResumeSpecMismatchRefused verifies a journal refuses to resume under a
// changed spec — splicing halves compressed under different bounds would
// corrupt the result silently.
func TestResumeSpecMismatchRefused(t *testing.T) {
	ctx := context.Background()
	jpath := filepath.Join(t.TempDir(), "mismatch.ocjl")
	fields := pipelineFields(t, 4, 16)
	spec := resumeSpec(jpath, "", NopTransport{})
	if _, err := Run(ctx, fields, spec); err != nil {
		t.Fatal(err)
	}
	spec.ResumeFrom = jpath
	spec.RelErrorBound = 1e-2 // changed: must be refused
	if _, err := Run(ctx, fields, spec); !errors.Is(err, journal.ErrSpecMismatch) {
		t.Fatalf("want ErrSpecMismatch, got %v", err)
	}
}

// flakyTransport fails every send until the Nth attempt with a transient
// error — the deterministic way to exercise the retry loop.
type flakyTransport struct {
	failPerSend int32 // transient failures before each send succeeds
	attempts    map[string]*int32
	calls       atomic.Int64
}

func newFlakyTransport(failPerSend int32) *flakyTransport {
	return &flakyTransport{failPerSend: failPerSend, attempts: map[string]*int32{}}
}

func (f *flakyTransport) Name() string { return "flaky" }

func (f *flakyTransport) Send(ctx context.Context, name string, data []byte) (float64, error) {
	f.calls.Add(1)
	// TransferStreams=1 in the tests using this, so the map is single-writer.
	n, ok := f.attempts[name]
	if !ok {
		n = new(int32)
		f.attempts[name] = n
	}
	if *n < f.failPerSend {
		*n++
		return 0, sentinel.MarkTransient(errors.New("flaky: simulated drop"))
	}
	return 0, ctx.Err()
}

// TestTransferRetryRecoversFlaps: every send drops twice then succeeds; with
// a retry budget the campaign completes and reports the retries.
func TestTransferRetryRecoversFlaps(t *testing.T) {
	fields := pipelineFields(t, 4, 16)
	tr := newFlakyTransport(2)
	res, err := Run(context.Background(), fields, CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         2,
		GroupParam:      4,
		Transport:       tr,
		TransferStreams: 1,
		Retry:           sentinel.RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries != 8 { // 4 groups × 2 drops each
		t.Errorf("retries = %d, want 8", res.Retries)
	}
	if res.Failovers != 0 {
		t.Errorf("failovers = %d, want 0", res.Failovers)
	}
}

// rejectTransport fails every send permanently.
type rejectTransport struct{ calls atomic.Int64 }

func (r *rejectTransport) Name() string { return "reject" }
func (r *rejectTransport) Send(ctx context.Context, name string, data []byte) (float64, error) {
	r.calls.Add(1)
	return 0, errors.New("reject: archive refused")
}

// TestPermanentEndpointFailureFailsFast: a permanent error must not consume
// the retry budget; the campaign fails immediately with a classified error.
func TestPermanentEndpointFailureFailsFast(t *testing.T) {
	fields := pipelineFields(t, 2, 16)
	tr := &rejectTransport{}
	_, err := Run(context.Background(), fields, CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         2,
		GroupParam:      1, // one group → exactly one send attempt
		Transport:       tr,
		TransferStreams: 1,
		Retry:           sentinel.RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond},
	})
	var pe *sentinel.PermanentError
	if !errors.As(err, &pe) {
		t.Fatalf("want *sentinel.PermanentError, got %v", err)
	}
	if pe.Transient {
		t.Error("permanent failure classified transient")
	}
	if pe.Attempts != 1 || tr.calls.Load() != 1 {
		t.Errorf("permanent error retried: %d attempts, %d calls", pe.Attempts, tr.calls.Load())
	}
}

// TestFailoverToFallbackTransport: the primary endpoint is hard down
// (transient), the fallback works — the campaign completes over the
// fallback with failovers on the result.
func TestFailoverToFallbackTransport(t *testing.T) {
	fields := pipelineFields(t, 4, 16)
	down := &SimulatedWANTransport{
		Link: &wan.Link{Name: "down", BandwidthMBps: 100, Concurrency: 2,
			Faults: &wan.Faults{Outages: []wan.FaultWindow{{StartSec: 0, EndSec: 1e9}}}},
		Timescale: 1e-3,
	}
	res, err := Run(context.Background(), fields, CampaignSpec{
		RelErrorBound:      1e-3,
		Workers:            2,
		GroupParam:         2,
		Transport:          down,
		TransferStreams:    1,
		FallbackTransports: []Transport{NopTransport{}},
		Retry:              sentinel.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers != 2 { // both groups failed over once
		t.Errorf("failovers = %d, want 2", res.Failovers)
	}
	if res.Retries != 2 { // one in-place retry per group on the dead primary
		t.Errorf("retries = %d, want 2", res.Retries)
	}
}

// TestGoldenSpecHashAndReconDigest pins the two identities a journal on
// disk depends on across commits: the spec fingerprint a resume checks
// (journal.Manifest.CheckSpec) and the reconstruction digest a resumed run
// must reproduce. A drift in either silently orphans every existing
// journal, so the values are recorded, not recomputed. They were last
// re-recorded when the reconstruction digest moved from FNV-64a to XXH64
// and the fingerprint token to "ocjl-v2" (TestResumeRefusesV1Journal).
// Every archive is framed, so "every-fingerprinted-knob" pins the values
// earlier builds recorded for that spec with framing on, and on the
// pipelined engine: builds that also had barrier and sequential engines
// hashed the engine's name, and "pipelined" is now a constant token.
func TestGoldenSpecHashAndReconDigest(t *testing.T) {
	cases := []struct {
		name             string
		spec             CampaignSpec
		specHash, digest string
	}{
		{"defaults", CampaignSpec{RelErrorBound: 1e-3, Workers: 2},
			"1caf9d7d4ae5d8a5", "9043aa1e908e334d"},
		{"every-fingerprinted-knob", CampaignSpec{RelErrorBound: 1e-4, Workers: 3,
			Codec: "szx", GroupStrategy: grouping.ByTargetSize, GroupParam: 65536, ChunkMB: 0.05},
			"79bdd1fe673a90ef", "b8d7ac5b0050d047"},
	}
	fields := pipelineFields(t, 4, 40)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.spec.Journal = filepath.Join(t.TempDir(), "run.ocjl")
			res, err := Run(context.Background(), fields, tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			m, err := journal.Load(tc.spec.Journal)
			if err != nil {
				t.Fatal(err)
			}
			if m.SpecHash != tc.specHash {
				t.Errorf("SpecHash = %s, want %s", m.SpecHash, tc.specHash)
			}
			if got := journal.FormatDigest(res.ReconDigest); got != tc.digest {
				t.Errorf("ReconDigest = %s, want %s", got, tc.digest)
			}
		})
	}
}

// TestResumeRefusesV1Journal resumes from testdata/journal-v1.ocjl, the
// complete journal an earlier build wrote for TestGoldenSpecHashAndReconDigest's
// "defaults" campaign under the "ocjl-v1" fingerprint, when reconstruction
// digests were FNV-64a. Accepting it would fold its recorded digests into a
// ReconDigest no fresh run reproduces, so the resume must be refused. The
// campaign is the same: a fresh journal of it groups the same fields
// (its archives differ: they hold version 2 sz3 streams). Pipelined
// groups fill in completion order, so the fresh run compresses on one
// worker (not fingerprinted) with the defaults' resolved grouping spelled
// out, packing the fields in index order as the v1 journal's groups are.
func TestResumeRefusesV1Journal(t *testing.T) {
	v1 := filepath.Join("testdata", "journal-v1.ocjl")
	old, err := journal.Load(v1)
	if err != nil {
		t.Fatal(err)
	}
	fields := pipelineFields(t, 4, 40)
	spec := CampaignSpec{RelErrorBound: 1e-3, Workers: 1, GroupStrategy: grouping.ByWorldSize, GroupParam: 2,
		Journal: filepath.Join(t.TempDir(), "run.ocjl")}
	if _, err := Run(context.Background(), fields, spec); err != nil {
		t.Fatal(err)
	}
	fresh, err := journal.Load(spec.Journal)
	if err != nil {
		t.Fatal(err)
	}
	// The same campaign as "defaults": only the fingerprint token moved.
	if fresh.SpecHash != "1caf9d7d4ae5d8a5" || old.SpecHash != "78a2d9f1b0abac5e" {
		t.Fatalf("spec hashes %s (fresh) and %s (v1 journal), want the defaults campaign's", fresh.SpecHash, old.SpecHash)
	}
	if len(fresh.Groups) != len(old.Groups) {
		t.Fatalf("%d groups in the v1 journal, %d now", len(old.Groups), len(fresh.Groups))
	}
	for id, g := range old.Groups {
		if f := fresh.Groups[id]; f == nil || !slices.Equal(f.Members, g.Members) {
			t.Errorf("group %d: members %v in the v1 journal, %+v now", id, g.Members, f)
		}
	}

	spec.ResumeFrom = v1
	spec.Journal = filepath.Join(t.TempDir(), "resumed.ocjl")
	if _, err := Run(context.Background(), fields, spec); !errors.Is(err, journal.ErrSpecMismatch) {
		t.Fatalf("resume from a v1 journal: want ErrSpecMismatch, got %v", err)
	}
}

// TestResumeChunkedJournalFromEarlierBuild resumes from
// testdata/journal-chunked-partial.ocjl, which a build that compressed
// chunks on a separate worker pool wrote for this chunked campaign before
// it was cancelled with one of its four groups acked. Chunk plans, chunk
// containers and the spec fingerprint are the same in both builds, so the
// resume must be accepted, skip that group, chunk only the rest, and reach
// the uninterrupted campaign's ReconDigest.
func TestResumeChunkedJournalFromEarlierBuild(t *testing.T) {
	fields := pipelineFields(t, 4, 40)
	spec := CampaignSpec{RelErrorBound: 1e-3, Workers: 2, GroupParam: 4, ChunkMB: 0.01}
	ref, err := Run(context.Background(), fields, spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := journal.FormatDigest(ref.ReconDigest); got != "99d4fa4c5192580b" || ref.Chunks != 8 {
		t.Fatalf("uninterrupted campaign: digest %s over %d chunks, want 99d4fa4c5192580b over 8", got, ref.Chunks)
	}
	spec.ResumeFrom = filepath.Join("testdata", "journal-chunked-partial.ocjl")
	spec.Journal = filepath.Join(t.TempDir(), "resumed.ocjl")
	res, err := Run(context.Background(), fields, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed || res.SkippedGroups != 1 || res.Chunks != 6 {
		t.Fatalf("resumed %v, skipped %d groups, %d chunks; want a resume skipping 1 group and chunking 3 fields into 6",
			res.Resumed, res.SkippedGroups, res.Chunks)
	}
	if res.ReconDigest != ref.ReconDigest {
		t.Fatalf("resumed digest %016x != uninterrupted %016x", res.ReconDigest, ref.ReconDigest)
	}
}

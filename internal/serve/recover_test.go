package serve

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"ocelot/internal/core"
	"ocelot/internal/journal"
	"ocelot/internal/wan"
)

// TestServerJournalRecovery is the daemon-restart drill: submit over HTTP
// to a journaling daemon, kill the campaign mid-transfer, tear the daemon
// down, and let a fresh incarnation Recover from the journal directory.
// The recovered campaign must resume (not restart), skip exactly the
// journal-acked groups, and reproduce the uninterrupted run's ReconDigest.
func TestServerJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// Incarnation 1: a crawling link so the kill lands with work undone.
	srvA := NewServer(Config{
		Transport: &core.SimulatedWANTransport{
			Link:      &wan.Link{Name: "crawl", BandwidthMBps: 0.5, PerFileOverheadSec: 0.01, Concurrency: 1},
			Timescale: 1,
		},
		JournalDir: dir,
	})
	tsA := httptest.NewServer(srvA)
	req := SubmitRequest{
		Tenant: "climate", Fields: 4, Shrink: 64, Seed: 3,
		Spec: SpecRequest{RelErrorBound: 1e-3, Workers: 2, Groups: 4},
	}
	resp := postJSON(t, tsA.URL+"/v1/campaigns", req)
	st := decodeStatus(t, resp)
	job, err := srvA.Scheduler().Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, "climate", st.ID+".ocjl")

	// Kill once the journal proves at least one group made it end to end.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if m, err := journal.Load(jpath); err == nil && m.AckedGroups() >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	job.Cancel()
	<-job.Done()
	tsA.Close()
	srvA.Close()

	pre, err := journal.Load(jpath)
	if err != nil {
		t.Fatalf("journal unreadable after daemon death: %v", err)
	}
	if pre.Done {
		t.Skip("campaign finished before the kill landed; nothing to recover")
	}
	preAcked := pre.AckedGroups()

	// Ground truth: the same request run uninterrupted.
	refFields, refSpec, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	refSpec.Journal = filepath.Join(t.TempDir(), "ref.ocjl")
	refSpec.Transport = core.NopTransport{}
	ref, err := core.Run(ctx, refFields, refSpec)
	if err != nil {
		t.Fatal(err)
	}

	// Incarnation 2: fresh daemon, same journal directory.
	srvB := NewServer(Config{JournalDir: dir})
	defer srvB.Close()
	resumed, errs := srvB.Recover()
	for _, e := range errs {
		t.Errorf("recover error: %v", e)
	}
	if len(resumed) != 1 {
		t.Fatalf("recovered %d campaigns, want 1", len(resumed))
	}
	// The id counter advanced past the dead incarnation's journals, so the
	// recovered job (and any fresh submission) gets a new id.
	if resumed[0].ID() == st.ID {
		t.Errorf("recovered job reused id %s", st.ID)
	}

	wctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	res, err := resumed[0].Wait(wctx)
	if err != nil {
		t.Fatalf("recovered campaign failed: %v", err)
	}
	if !res.Resumed {
		t.Error("recovered campaign did not resume from the journal")
	}
	if res.SkippedGroups != preAcked {
		t.Errorf("resume skipped %d groups, journal had %d acked", res.SkippedGroups, preAcked)
	}
	if res.ReconDigest != ref.ReconDigest {
		t.Errorf("recovered digest %016x != uninterrupted %016x", res.ReconDigest, ref.ReconDigest)
	}
	post, err := journal.Load(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !post.Done {
		t.Error("journal not marked done after recovery")
	}

	// With everything done, a second Recover finds nothing to resume.
	again, errs := srvB.Recover()
	for _, e := range errs {
		t.Errorf("second recover error: %v", e)
	}
	if len(again) != 0 {
		t.Errorf("second recover resumed %d campaigns, want 0", len(again))
	}
}

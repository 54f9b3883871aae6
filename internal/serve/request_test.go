package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ocelot/internal/core"
	"ocelot/internal/journal"
)

// TestParentSubmitBodiesKeepFingerprint resolves submit bodies an earlier
// build accepted — testdata/parent-submit.json sets every knob that build
// had, the minimal body leaves all but the bound to their defaults — and
// runs them journaled. The spec fingerprint a resume checks and the
// reconstruction digest are the values that build recorded, so widening
// the request moved neither a default nor a field's meaning.
func TestParentSubmitBodiesKeepFingerprint(t *testing.T) {
	full, err := os.ReadFile(filepath.Join("testdata", "parent-submit.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name             string
		body             []byte
		specHash, digest string
	}{
		{"every-knob", full, "51b51179442a622f", "718737dc6c2ce26e"},
		{"minimal", []byte(`{"spec":{"relErrorBound":1e-3}}`), "34b7ff8e1235104f", "348add4d371bd993"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var req SubmitRequest
			if err := json.Unmarshal(tc.body, &req); err != nil {
				t.Fatal(err)
			}
			fields, spec, err := req.Resolve()
			if err != nil {
				t.Fatal(err)
			}
			spec.Journal = filepath.Join(t.TempDir(), "run.ocjl")
			res, err := core.Run(context.Background(), fields, spec)
			if err != nil {
				t.Fatal(err)
			}
			m, err := journal.Load(spec.Journal)
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

// TestRecoverParentDaemonJournal restarts a daemon on a journal an earlier
// build's daemon left behind (testdata/parent-daemon.ocjl: four fields,
// killed after one acked group, its submit request stored in the begin
// record). Recover must resume it past the acked group to the digest of
// the same request run uninterrupted.
func TestRecoverParentDaemonJournal(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "parent-daemon.ocjl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	jpath := filepath.Join(dir, "climate", "c-1.ocjl")
	if err := os.MkdirAll(filepath.Dir(jpath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(Config{JournalDir: dir})
	defer srv.Close()
	resumed, errs := srv.Recover()
	for _, e := range errs {
		t.Errorf("recover error: %v", e)
	}
	if len(resumed) != 1 {
		t.Fatalf("recovered %d campaigns, want 1", len(resumed))
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := resumed[0].Wait(ctx)
	if err != nil {
		t.Fatalf("recovered campaign failed: %v", err)
	}
	if !res.Resumed || res.SkippedGroups != 1 {
		t.Errorf("resumed=%v skipped %d groups, want a resume past the 1 acked group", res.Resumed, res.SkippedGroups)
	}
	// The uninterrupted run of the stored request, which an earlier build
	// also reached from the CLI with the same dataset and bound.
	if got := journal.FormatDigest(res.ReconDigest); got != "3729af4d9e98b38e" {
		t.Errorf("recovered digest %s, want the uninterrupted 3729af4d9e98b38e", got)
	}
}

// TestOversizedFanOutRefused is the regression for a single POST crashing
// the daemon: a worker, stream, chunk-worker or retry count near 2^62 was
// admitted, and the campaign goroutine then panicked sizing a channel
// (makechan: size out of range) with nothing to recover it. Each must be
// refused with a 400, and the daemon must still run the next good
// submission.
func TestOversizedFanOutRefused(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, knob := range []string{"workers", "streams", "compressWorkers", "retries"} {
		body := fmt.Sprintf(`{"fields":1,"shrink":64,"spec":{"relErrorBound":1e-3,%q:4611686018427387904}}`, knob)
		resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var he httpError
		_ = json.NewDecoder(resp.Body).Decode(&he)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(he.Error, "above the cap") {
			t.Errorf("%s near 2^62: status %d error %q, want 400 above the cap", knob, resp.StatusCode, he.Error)
		}
	}

	resp := postJSON(t, ts.URL+"/v1/campaigns", SubmitRequest{Fields: 1, Shrink: 64,
		Spec: SpecRequest{RelErrorBound: 1e-3, Workers: core.MaxFanOut}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("good submit after the refusals: status %d", resp.StatusCode)
	}
	job, err := srv.Scheduler().Get(decodeStatus(t, resp).ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := job.Wait(ctx); err != nil {
		t.Fatalf("good submit failed: %v", err)
	}
}

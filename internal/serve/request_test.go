package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ocelot/internal/codec"
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
		// The body asks for the barrier engine, which no longer exists: its
		// "engine" key is ignored and the campaign runs pipelined, so its
		// fingerprint is the one an earlier build recorded for this body
		// with "engine":"pipelined". The digest does not depend on the engine.
		{"every-knob", full, "ac81d6d74601a20c", "718737dc6c2ce26e"},
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

// copyJournal copies the testdata journal name into a temporary
// directory, so resuming it cannot extend the checked-in file.
func copyJournal(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStoredEngineKeyStillResumes resumes testdata/journal-pipelined.ocjl,
// which an earlier CLI wrote with -engine pipelined and killed after one
// sent group: its stored request still carries "engine":"pipelined".
// LoadJournal must ignore the key, resolve the request to the spec that
// journal was fingerprinted under, and resume past the acked group to the
// digest of the same request run uninterrupted.
func TestStoredEngineKeyStillResumes(t *testing.T) {
	jpath := copyJournal(t, "journal-pipelined.ocjl")
	m, err := journal.Load(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.Meta[metaSubmit], `"engine":"pipelined"`) {
		t.Fatalf("stored request %s carries no engine key", m.Meta[metaSubmit])
	}
	_, fields, spec, err := LoadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), fields, spec)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !res.Resumed || res.SkippedGroups != 1 {
		t.Errorf("resumed=%v skipped %d groups, want a resume past the 1 acked group", res.Resumed, res.SkippedGroups)
	}
	if got := journal.FormatDigest(res.ReconDigest); got != "3729af4d9e98b38e" {
		t.Errorf("resumed digest %s, want the uninterrupted 3729af4d9e98b38e", got)
	}
}

// TestResumeRefusesBarrierJournal resumes testdata/journal-barrier.ocjl,
// which an earlier CLI wrote with -engine barrier and killed after one
// sent group. Its fingerprint hashes the barrier engine's name, and its
// stored request now resolves to the one engine, whose fingerprint hashes
// "pipelined", so the resume must be refused with journal.ErrSpecMismatch
// and the journal left as it was, not spliced.
func TestResumeRefusesBarrierJournal(t *testing.T) {
	jpath := copyJournal(t, "journal-barrier.ocjl")
	before, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	_, fields, spec, err := LoadJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Run(context.Background(), fields, spec); !errors.Is(err, journal.ErrSpecMismatch) {
		t.Fatalf("resume of a barrier journal: want ErrSpecMismatch, got %v", err)
	}
	after, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Error("refused resume changed the journal")
	}
}

// TestOversizedFanOutRefused is the regression for a single POST crashing
// the daemon: a worker, stream or retry count near 2^62 was
// admitted, and the campaign goroutine then panicked sizing a channel
// (makechan: size out of range) with nothing to recover it. Each must be
// refused with a 400, and the daemon must still run the next good
// submission.
func TestOversizedFanOutRefused(t *testing.T) {
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, knob := range []string{"workers", "streams", "retries"} {
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

// liarCodec wraps the default codec and perturbs reconstructed value 1 by
// 3x the error bound: a codec that breaks its contract at one point no
// stride-1000 sample (points 0, 1000, … and the last) would look at.
type liarCodec struct{ codec.Codec }

const liarMagic = 0x3141494C // "LIA1" little-endian

var registerLiarOnce sync.Once

func registerLiar(t *testing.T) {
	t.Helper()
	registerLiarOnce.Do(func() {
		inner, err := codec.Lookup("")
		if err != nil {
			panic(err)
		}
		codec.Register(liarCodec{inner})
	})
}

func (l liarCodec) Name() string  { return "liar" }
func (l liarCodec) Magic() uint32 { return liarMagic }

func (l liarCodec) Compress(data []float64, dims []int, p codec.Params) ([]byte, error) {
	inner, err := l.Codec.Compress(data, dims, p)
	if err != nil {
		return nil, err
	}
	out := binary.LittleEndian.AppendUint32(nil, liarMagic)
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(3*p.AbsErrorBound))
	return append(out, inner...), nil
}

func (l liarCodec) Decompress(stream []byte) ([]float64, []int, error) {
	if len(stream) < 12 || binary.LittleEndian.Uint32(stream) != liarMagic {
		return nil, nil, errors.New("liar: bad stream")
	}
	vals, dims, err := codec.Decompress(stream[12:])
	if err != nil {
		return nil, nil, err
	}
	if len(vals) > 1 {
		vals[1] += math.Float64frombits(binary.LittleEndian.Uint64(stream[4:]))
	}
	return vals, dims, nil
}

func (l liarCodec) StreamDims(stream []byte) ([]int, error) {
	if len(stream) < 12 {
		return nil, errors.New("liar: short stream")
	}
	return l.Codec.StreamDims(stream[12:])
}

// TestSubmitBodyAuditsEveryPoint posts bodies carrying "boundAudit":1000,
// which an earlier build read as an audit sampling every 1000th point, so
// a codec breaking its bound at point 1 passed silently. The key is
// ignored now and every point is audited: the campaign fails, or with
// "quarantine" set the field is re-shipped lossless and reported degraded.
func TestSubmitBodyAuditsEveryPoint(t *testing.T) {
	registerLiar(t)
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, quarantine := range []bool{false, true} {
		t.Run(fmt.Sprintf("quarantine=%v", quarantine), func(t *testing.T) {
			body := fmt.Sprintf(`{"fields":1,"shrink":64,"spec":{"relErrorBound":1e-3,"codec":"liar","boundAudit":1000,"quarantine":%v}}`, quarantine)
			resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: status %d", resp.StatusCode)
			}
			job, err := srv.Scheduler().Get(decodeStatus(t, resp).ID)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			res, err := job.Wait(ctx)
			if !quarantine {
				if err == nil || !strings.Contains(err.Error(), "exceeds bound") {
					t.Fatalf("bound broken at point 1: got %v, want the audit to fail the campaign", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("quarantine should complete the campaign: %v", err)
			}
			if len(res.DegradedFields) != 1 || res.DegradedBytes == 0 {
				t.Fatalf("degraded fields %v (%d bytes), want the one field re-shipped lossless", res.DegradedFields, res.DegradedBytes)
			}
			if res.MaxRelError > 1e-3 {
				t.Fatalf("max rel error %g above the bound after quarantine", res.MaxRelError)
			}
		})
	}
}

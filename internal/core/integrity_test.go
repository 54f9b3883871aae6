package core

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ocelot/internal/codec"
	"ocelot/internal/gridftp"
	"ocelot/internal/integrity"
	"ocelot/internal/journal"
	"ocelot/internal/obs"
	"ocelot/internal/sentinel"
	"ocelot/internal/wan"
)

// countingTransport wraps a simulated WAN link and tallies successful
// deliveries per archive name, and the bytes each one offered, so tests
// can prove only corrupted groups were repaired, and by how much.
type countingTransport struct {
	inner *SimulatedWANTransport
	mu    sync.Mutex
	sends map[string]int
	sizes map[string][]int
}

func newCountingTransport(inner *SimulatedWANTransport) *countingTransport {
	return &countingTransport{inner: inner, sends: map[string]int{}, sizes: map[string][]int{}}
}

func (c *countingTransport) Name() string { return "counting" }

func (c *countingTransport) Send(ctx context.Context, name string, data []byte) (float64, error) {
	_, sec, err := c.SendDelivered(ctx, name, data, 0)
	return sec, err
}

func (c *countingTransport) SendDelivered(ctx context.Context, name string, data []byte, weight float64) ([]byte, float64, error) {
	d, sec, err := c.inner.SendDelivered(ctx, name, data, weight)
	if err == nil {
		c.mu.Lock()
		c.sends[name]++
		c.sizes[name] = append(c.sizes[name], len(data))
		c.mu.Unlock()
	}
	return d, sec, err
}

// corruptingLink is an accounting-only simulated link whose deliveries are
// corrupted with the given probability, deterministically per seed.
func corruptingLink(prob float64, mode wan.CorruptMode, seed int64) *SimulatedWANTransport {
	return &SimulatedWANTransport{
		Link: &wan.Link{Name: "dirty", BandwidthMBps: 1000, Concurrency: 4,
			Faults: &wan.Faults{CorruptProb: prob, CorruptMode: mode, Seed: seed}},
		Timescale: -1,
	}
}

// TestCampaignCorruptionRetransmitDigestIdentity runs the same campaign
// over a clean link and over a corrupting one and proves the end-to-end
// integrity contract: the corrupted run completes, reproduces the clean
// run's ReconDigest bit for bit, re-sends exactly the corrupted groups
// (every clean delivery ships once), and keeps SentBytes accounting exact
// under retransmission.
func TestCampaignCorruptionRetransmitDigestIdentity(t *testing.T) {
	ctx := context.Background()
	fields := pipelineFields(t, 6, 16)

	refSpec := CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         2,
		GroupParam:      6,
		Transport:       NopTransport{},
		TransferStreams: 2,
		Journal:         filepath.Join(t.TempDir(), "ref.ocjl"),
	}
	ref, err := Run(ctx, fields, refSpec)
	if err != nil {
		t.Fatal(err)
	}
	if ref.ReconDigest == 0 {
		t.Fatal("clean journaled run produced no digest")
	}
	if ref.CorruptGroups != 0 || ref.Retransmits != 0 || ref.RetransmitBytes != 0 {
		t.Fatalf("clean run reports corruption: %+v", ref)
	}

	dirty := corruptingLink(0.45, wan.CorruptMix, 7)
	// The counting wrapper hides the simulated transport from the engine's
	// registry adoption, so install the campaign registry on it directly —
	// the injected-vs-detected reconciliation below needs both sides'
	// counters in one snapshot.
	reg := obs.NewRegistry()
	dirty.Metrics = reg
	tr := newCountingTransport(dirty)
	spec := refSpec
	spec.Journal = filepath.Join(t.TempDir(), "dirty.ocjl")
	spec.Transport = tr
	spec.Obs = &obs.Obs{Metrics: reg}
	spec.Retry = sentinel.RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	h, err := Submit(ctx, fields, spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := h.Wait(ctx)
	if err != nil {
		t.Fatalf("corrupted-link campaign failed: %v", err)
	}

	if res.CorruptGroups == 0 {
		t.Fatal("seeded corrupting link corrupted nothing; the test exercised no recovery")
	}
	if res.ReconDigest != ref.ReconDigest {
		t.Errorf("corrupted-link digest %016x != clean %016x", res.ReconDigest, ref.ReconDigest)
	}

	// Only corrupted groups re-ship: total successful deliveries beyond one
	// per group must equal the retransmit count, and the number of archives
	// shipped more than once must equal the corrupted-group count.
	tr.mu.Lock()
	extraSends, multiShipped := 0, 0
	for _, n := range tr.sends {
		if n > 1 {
			extraSends += n - 1
			multiShipped++
		}
	}
	tr.mu.Unlock()
	if extraSends != res.Retransmits {
		t.Errorf("%d extra deliveries for %d retransmits — an uncorrupted group was re-sent", extraSends, res.Retransmits)
	}
	if multiShipped != res.CorruptGroups {
		t.Errorf("%d archives shipped more than once, %d groups corrupt", multiShipped, res.CorruptGroups)
	}
	if res.Retransmits < res.CorruptGroups {
		t.Errorf("retransmits %d below corrupt groups %d: a corrupted group was never recovered", res.Retransmits, res.CorruptGroups)
	}

	// Delivery accounting stays exact under retransmission.
	st := h.Status()
	if st.SentBytes != res.GroupedBytes+res.RetransmitBytes+res.DegradedBytes {
		t.Errorf("SentBytes %d != grouped %d + retransmit %d + degraded %d",
			st.SentBytes, res.GroupedBytes, res.RetransmitBytes, res.DegradedBytes)
	}
	if st.CorruptGroups != int64(res.CorruptGroups) || st.Retransmits != int64(res.Retransmits) {
		t.Errorf("status ledger (%d corrupt, %d retransmits) disagrees with result (%d, %d)",
			st.CorruptGroups, st.Retransmits, res.CorruptGroups, res.Retransmits)
	}
	if len(res.DegradedFields) != 0 || res.DegradedBytes != 0 {
		t.Errorf("corruption-only run degraded fields: %v", res.DegradedFields)
	}

	// The detected corruption is visible in the inline metrics snapshot,
	// and nothing escaped silently: every injected corruption was detected.
	if res.Metrics == nil {
		t.Fatal("spec carried a registry but result has no metrics snapshot")
	}
	injected := res.Metrics["wan_corruptions_injected_total"]
	detected := res.Metrics["campaign_corruption_detected_total"]
	if injected == 0 || injected != detected {
		t.Errorf("injected %g corruptions, detected %g — silent corruption escaped", injected, detected)
	}
}

// TestCampaignCorruptionExhaustsRetransmitBudget: with no retry policy the
// engine grants a single retransmit; a link that corrupts essentially every
// delivery must fail the campaign loudly, never return garbage.
func TestCampaignCorruptionExhaustsRetransmitBudget(t *testing.T) {
	fields := pipelineFields(t, 2, 16)
	_, err := Run(context.Background(), fields, CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         2,
		GroupParam:      1,
		Transport:       corruptingLink(0.99, wan.CorruptGarble, 3),
		TransferStreams: 1,
	})
	if err == nil {
		t.Fatal("always-corrupting link completed")
	}
	if !strings.Contains(err.Error(), "corrupted in transit") {
		t.Fatalf("want corruption classification, got: %v", err)
	}
}

// repairOverhead is what a repair adds around its blocks: the OCIF frame
// of one member, the grouping header naming it ("repair-" and eight hex
// digits), and the archive length.
var repairOverhead = integrity.Overhead(1) + 8 + 2 + len("repair-00000000") + 16 + 8

// TestCampaignCorruptionModes runs one campaign per corruption mode and
// holds each to the integrity contract: the clean run's digest, every
// injected corruption detected, and SentBytes exactly the grouped,
// retransmitted and degraded bytes. The repair's size is pinned per mode:
// bit flips damage at most eight blocks, so a repair never carries more;
// a garbled delivery matches no block sum, so its repair carries them all.
func TestCampaignCorruptionModes(t *testing.T) {
	ctx := context.Background()
	fields := pipelineFields(t, 4, 8)
	base := CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         2,
		GroupParam:      2,
		Transport:       NopTransport{},
		TransferStreams: 2,
		Journal:         filepath.Join(t.TempDir(), "ref.ocjl"),
	}
	ref, err := Run(ctx, fields, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mode wan.CorruptMode
	}{
		{"bitflip", wan.CorruptBitFlip},
		{"truncate", wan.CorruptTruncate},
		{"garble", wan.CorruptGarble},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			// Seed 2's first draw corrupts, so whichever delivery comes
			// first arrives damaged.
			link := corruptingLink(0.5, tc.mode, 2)
			link.Metrics = reg
			tr := newCountingTransport(link)
			spec := base
			spec.Journal = filepath.Join(t.TempDir(), tc.name+".ocjl")
			spec.Transport = tr
			spec.Obs = &obs.Obs{Metrics: reg}
			spec.Retry = sentinel.RetryPolicy{MaxAttempts: 16, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
			h, err := Submit(ctx, fields, spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := h.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if res.CorruptGroups == 0 {
				t.Fatal("seeded corrupting link corrupted nothing; the test exercised no repair")
			}
			if res.ReconDigest != ref.ReconDigest {
				t.Errorf("digest %016x != clean %016x", res.ReconDigest, ref.ReconDigest)
			}
			if inj, det := res.Metrics["wan_corruptions_injected_total"], res.Metrics["campaign_corruption_detected_total"]; inj != det {
				t.Errorf("injected %g corruptions, detected %g", inj, det)
			}
			if st := h.Status(); st.SentBytes != res.GroupedBytes+res.RetransmitBytes+res.DegradedBytes {
				t.Errorf("SentBytes %d != grouped %d + retransmit %d + degraded %d",
					st.SentBytes, res.GroupedBytes, res.RetransmitBytes, res.DegradedBytes)
			}

			// The first delivery under a name is the archive; every later
			// one is a repair of it.
			tr.mu.Lock()
			defer tr.mu.Unlock()
			var repaired int64
			repairs := 0
			for wire, sizes := range tr.sizes {
				archive := sizes[0]
				for _, got := range sizes[1:] {
					repaired += int64(got)
					repairs++
					blocks := (archive + integrity.RepairBlock - 1) / integrity.RepairBlock
					switch tc.mode {
					case wan.CorruptBitFlip:
						if limit := repairOverhead + 8*(4+integrity.RepairBlock); got > limit {
							t.Errorf("%s: bit-flip repair of %d bytes, more than eight blocks (%d)", wire, got, limit)
						}
					case wan.CorruptGarble:
						if want := repairOverhead + 4*blocks + archive; got != want {
							t.Errorf("%s: garble repair of %d bytes, want every block (%d)", wire, got, want)
						}
					}
				}
			}
			if repairs != res.Retransmits || repaired != res.RetransmitBytes {
				t.Errorf("transport saw %d repairs of %d bytes, result books %d of %d",
					repairs, repaired, res.Retransmits, res.RetransmitBytes)
			}
		})
	}
}

// scriptedCorruption delivers every archive intact except the deliveries
// of one wire name whose ordinals (1-based) it is told to damage: each of
// those arrives with one bit flipped mid-payload.
type scriptedCorruption struct {
	wire     string
	damage   map[int]bool
	mu       sync.Mutex
	seen     int
	injected int
}

func (s *scriptedCorruption) Name() string { return "scripted" }

func (s *scriptedCorruption) Send(ctx context.Context, name string, data []byte) (float64, error) {
	_, sec, err := s.SendDelivered(ctx, name, data, 0)
	return sec, err
}

func (s *scriptedCorruption) SendDelivered(_ context.Context, name string, data []byte, _ float64) ([]byte, float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if name != s.wire {
		return data, 0, nil
	}
	s.seen++
	if !s.damage[s.seen] {
		return data, 0, nil
	}
	s.injected++
	out := append([]byte(nil), data...)
	out[len(out)/2] ^= 0x10
	return out, 0, nil
}

// TestCampaignCorruptedRepair damages one group's first delivery and its
// first repair. With a budget of more rounds, the second repair lands at
// once, with no backoff: two corruptions injected, two detected, the clean
// digest. With one round, the campaign fails with the typed corruption
// error.
func TestCampaignCorruptedRepair(t *testing.T) {
	ctx := context.Background()
	fields := pipelineFields(t, 4, 16)
	spec := CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         2,
		GroupParam:      2,
		Transport:       NopTransport{},
		TransferStreams: 1,
		Journal:         filepath.Join(t.TempDir(), "ref.ocjl"),
	}
	ref, err := Run(ctx, fields, spec)
	if err != nil {
		t.Fatal(err)
	}

	tr := &scriptedCorruption{wire: groupName(1), damage: map[int]bool{1: true, 2: true}}
	reg := obs.NewRegistry()
	spec.Journal = filepath.Join(t.TempDir(), "repair.ocjl")
	spec.Transport = tr
	spec.Obs = &obs.Obs{Metrics: reg}
	var pauses atomic.Int64
	spec.Retry = sentinel.RetryPolicy{MaxAttempts: 3, Sleep: func(ctx context.Context, _ time.Duration) error {
		pauses.Add(1)
		return ctx.Err()
	}}
	res, err := Run(ctx, fields, spec)
	if err != nil {
		t.Fatalf("campaign with a corrupted repair: %v", err)
	}
	if n := pauses.Load(); n != 0 {
		t.Errorf("repair rounds backed off %d time(s); a corrupted repair crossed a working link", n)
	}
	if tr.seen != 3 || tr.injected != 2 {
		t.Fatalf("%s delivered %d times with %d damaged, want 3 and 2", tr.wire, tr.seen, tr.injected)
	}
	if det := res.Metrics["campaign_corruption_detected_total"]; det != 2 {
		t.Errorf("detected %g corruptions, injected 2", det)
	}
	if res.CorruptGroups != 1 || res.Retransmits != 2 {
		t.Errorf("%d corrupt groups, %d retransmits; want 1 and 2", res.CorruptGroups, res.Retransmits)
	}
	if res.ReconDigest != ref.ReconDigest {
		t.Errorf("digest %016x != clean %016x", res.ReconDigest, ref.ReconDigest)
	}

	spec.Journal = ""
	spec.Obs = nil
	spec.Transport = &scriptedCorruption{wire: groupName(1), damage: map[int]bool{1: true, 2: true}}
	spec.Retry = sentinel.RetryPolicy{MaxAttempts: 1}
	_, err = Run(ctx, fields, spec)
	if !errors.Is(err, integrity.ErrCorrupt) || !strings.Contains(err.Error(), "not recovered after 1 retransmit(s)") {
		t.Fatalf("one round, corrupted repair: got %v, want an unrecovered integrity.ErrCorrupt", err)
	}
}

// liarCodec wraps the default codec and perturbs the first reconstructed
// value by 3x the error bound — a codec that breaks its contract, which
// the bound audit must catch.
type liarCodec struct{ inner codec.Codec }

const liarMagic = 0x5241494C // "LIAR" little-endian

var liarOnce sync.Once

func registerLiar(t *testing.T) {
	t.Helper()
	liarOnce.Do(func() {
		inner, err := codec.Lookup("")
		if err != nil {
			panic(err)
		}
		codec.Register(&liarCodec{inner: inner})
	})
}

func (l *liarCodec) Name() string  { return "liar" }
func (l *liarCodec) Magic() uint32 { return liarMagic }

func (l *liarCodec) Compress(data []float64, dims []int, p codec.Params) ([]byte, error) {
	inner, err := l.inner.Compress(data, dims, p)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 12+len(inner))
	binary.LittleEndian.PutUint32(out[:4], liarMagic)
	binary.LittleEndian.PutUint64(out[4:12], math.Float64bits(3*p.AbsErrorBound))
	copy(out[12:], inner)
	return out, nil
}

func (l *liarCodec) Decompress(stream []byte) ([]float64, []int, error) {
	if len(stream) < 12 || binary.LittleEndian.Uint32(stream[:4]) != liarMagic {
		return nil, nil, errors.New("liar: bad stream")
	}
	delta := math.Float64frombits(binary.LittleEndian.Uint64(stream[4:12]))
	vals, dims, err := codec.Decompress(stream[12:])
	if err != nil {
		return nil, nil, err
	}
	if len(vals) > 0 {
		vals[0] += delta
	}
	return vals, dims, nil
}

func (l *liarCodec) StreamDims(stream []byte) ([]int, error) {
	if len(stream) < 12 {
		return nil, errors.New("liar: short stream")
	}
	return l.inner.StreamDims(stream[12:])
}

func (l *liarCodec) Probe(data []float64, dims []int, p codec.Params, stride int) ([]int, error) {
	return l.inner.Probe(data, dims, p, stride)
}

func (l *liarCodec) Caps() codec.Caps { return l.inner.Caps() }

// TestBoundAuditQuarantine: a codec that violates its bound is caught by
// the post-decompress audit. Without quarantine the campaign fails; with
// it, the violating fields are re-shipped lossless, recorded as degraded,
// and the final digest equals the digest of the EXACT original values —
// the replacement is bit-exact, not merely within bound. Both fields are
// members of one group, so two decode workers quarantine side by side.
func TestBoundAuditQuarantine(t *testing.T) {
	registerLiar(t)
	fields := pipelineFields(t, 2, 16)
	spec := CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         2,
		GroupParam:      1,
		Codec:           "liar",
		Transport:       NopTransport{},
		TransferStreams: 1,
	}

	// Audit on, quarantine off: the violation is a campaign failure.
	if _, err := Run(context.Background(), fields, spec); err == nil {
		t.Fatal("bound-violating codec passed the audit")
	} else if !strings.Contains(err.Error(), "exceeds bound") {
		t.Fatalf("want bound-violation error, got: %v", err)
	}

	// Quarantine on: the campaign completes, the fields are degraded, and
	// the journaled digest is the digest of the exact original data.
	spec.BoundAudit = BoundAudit{Quarantine: true}
	spec.Journal = filepath.Join(t.TempDir(), "quarantine.ocjl")
	res, err := Run(context.Background(), fields, spec)
	if err != nil {
		t.Fatalf("quarantine should complete the campaign: %v", err)
	}
	if len(res.DegradedFields) != len(fields) || res.Groups != 1 {
		t.Fatalf("degraded %v in %d groups, want all %d fields in 1", res.DegradedFields, res.Groups, len(fields))
	}
	if res.DegradedBytes == 0 {
		t.Error("quarantine shipped no bytes")
	}
	if res.MaxRelError > spec.RelErrorBound {
		t.Errorf("max rel error %g above bound after quarantine", res.MaxRelError)
	}
	exact := make([]uint64, len(fields))
	for i, f := range fields {
		exact[i] = reconDigest(f.Data)
	}
	if want := foldDigests(exact); res.ReconDigest != want {
		t.Errorf("quarantined digest %016x != exact-data digest %016x", res.ReconDigest, want)
	}
}

// holdLaterGroups delivers the first group archive and every quarantine
// escape, and holds every later group archive until its context ends, so a
// campaign can be killed with exactly one group acked.
type holdLaterGroups struct{}

func (holdLaterGroups) Name() string { return "hold-later-groups" }

func (holdLaterGroups) Send(ctx context.Context, name string, data []byte) (float64, error) {
	if strings.HasPrefix(name, "group-") && name != groupName(0) {
		<-ctx.Done()
		return 0, ctx.Err()
	}
	return 0, nil
}

// TestResumeReportsQuarantinedFields: a campaign whose every field the
// bound audit quarantines is killed after its first acked group and
// resumed. The resumed result lists every degraded field, the skipped
// group's included, its status counts as many, and it reaches the
// uninterrupted run's digest.
func TestResumeReportsQuarantinedFields(t *testing.T) {
	registerLiar(t)
	ctx := context.Background()
	fields := pipelineFields(t, 4, 16)
	spec := CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         2,
		GroupParam:      4,
		Codec:           "liar",
		Transport:       NopTransport{},
		TransferStreams: 1,
		BoundAudit:      BoundAudit{Quarantine: true},
		Journal:         filepath.Join(t.TempDir(), "ref.ocjl"),
	}
	ref, err := Run(ctx, fields, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.DegradedFields) != len(fields) {
		t.Fatalf("uninterrupted run degraded %v, want all %d fields", ref.DegradedFields, len(fields))
	}

	jpath := filepath.Join(t.TempDir(), "killed.ocjl")
	kill := spec
	kill.Journal = jpath
	kill.Transport = holdLaterGroups{}
	h, err := Submit(ctx, fields, kill)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m, err := journal.Load(jpath); err == nil && m.AckedGroups() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no group acked within the hang guard")
		}
		time.Sleep(time.Millisecond)
	}
	h.Cancel()
	<-h.Done()
	if m, err := journal.Load(jpath); err != nil || m.AckedGroups() != 1 {
		t.Fatalf("killed journal: %v, want exactly 1 acked group", err)
	}

	resume := spec
	resume.Journal = jpath
	resume.ResumeFrom = jpath
	rh, err := Submit(ctx, fields, resume)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rh.Wait(ctx)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if st := rh.Status(); st.DegradedFields != int64(len(res.DegradedFields)) {
		t.Errorf("resumed status counts %d degraded fields, result lists %v", st.DegradedFields, res.DegradedFields)
	}
	if !res.Resumed || res.SkippedGroups != 1 {
		t.Fatalf("resumed=%v skipped=%d, want a resume that skips 1 group", res.Resumed, res.SkippedGroups)
	}
	if !slices.Equal(res.DegradedFields, ref.DegradedFields) {
		t.Errorf("resumed run degraded %v, uninterrupted %v", res.DegradedFields, ref.DegradedFields)
	}
	if res.ReconDigest != ref.ReconDigest {
		t.Errorf("resumed digest %016x != uninterrupted %016x", res.ReconDigest, ref.ReconDigest)
	}
}

// TestResumeAckEchoMismatchResends tampers a finished journal — the done
// record dropped, one ack's archive echo rewritten — and verifies resume
// treats the mismatched ack as void: that group is re-sent, the others are
// skipped, and the digest still matches the uninterrupted run.
func TestResumeAckEchoMismatchResends(t *testing.T) {
	ctx := context.Background()
	jpath := filepath.Join(t.TempDir(), "tampered.ocjl")
	fields := pipelineFields(t, 4, 16)
	spec := resumeSpec(jpath, "", NopTransport{})
	spec.GroupParam = 4
	full, err := Run(ctx, fields, spec)
	if err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	tampered := false
	for _, ln := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var e map[string]interface{}
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatal(err)
		}
		switch e["t"] {
		case "done":
			continue // the campaign now looks interrupted
		case "ack":
			if !tampered {
				e["archive"] = "deadbeef" // no longer matches the group record
				b, err := json.Marshal(e)
				if err != nil {
					t.Fatal(err)
				}
				ln = string(b)
				tampered = true
			}
		}
		kept = append(kept, ln)
	}
	if !tampered {
		t.Fatal("journal had no ack records to tamper")
	}
	if err := os.WriteFile(jpath, []byte(strings.Join(kept, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	pre, err := journal.Load(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if got := pre.AckedGroups(); got != 3 {
		t.Fatalf("voided ack still counted: %d acked groups, want 3", got)
	}

	spec.ResumeFrom = jpath
	res, err := Run(ctx, fields, spec)
	if err != nil {
		t.Fatalf("resume over tampered journal: %v", err)
	}
	if !res.Resumed || res.SkippedGroups != 3 || res.Groups != 1 {
		t.Fatalf("voided group not re-sent: skipped=%d groups=%d", res.SkippedGroups, res.Groups)
	}
	if res.ReconDigest != full.ReconDigest {
		t.Errorf("digest %016x after tampered resume != %016x", res.ReconDigest, full.ReconDigest)
	}
}

// TestCrashResumeUnderCorruption combines the two fault axes: a journaled
// campaign over a corrupting link is killed mid-run, then resumed over a
// (differently seeded) corrupting link. The resumed campaign must still
// reproduce the clean uninterrupted digest — corruption recovery and
// crash recovery compose.
//
// Nothing in it may depend on the wall clock. The kill fires from the
// campaign's own tracer clock, which every span start and end consults —
// in particular the end of the first journal.ack span — so the campaign
// dies at the first program point after an ack is durable, not whenever a
// poller next wakes. And the link's corruption draws follow send arrival
// order, so with p = 0.4 a four-attempt budget could run dry on an
// unlucky interleaving; at 32 attempts exhaustion (0.4^32 per group) is
// out of reach and the test asserts recovery, not luck.
func TestCrashResumeUnderCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("kill/resume over paced corrupting link")
	}
	ctx := context.Background()
	fields := pipelineFields(t, 6, 16)

	refSpec := resumeSpec(filepath.Join(t.TempDir(), "ref.ocjl"), "", NopTransport{})
	ref, err := Run(ctx, fields, refSpec)
	if err != nil {
		t.Fatal(err)
	}

	jpath := filepath.Join(t.TempDir(), "crash.ocjl")
	slow := &SimulatedWANTransport{
		Link: &wan.Link{Name: "dirty-crawl", BandwidthMBps: 1, PerFileOverheadSec: 0.01, Concurrency: 1,
			Faults: &wan.Faults{CorruptProb: 0.4, CorruptMode: wan.CorruptMix, Seed: 11}},
		Timescale: 1,
	}
	spec := resumeSpec(jpath, "", slow)
	spec.Retry = sentinel.RetryPolicy{MaxAttempts: 32, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond}
	var kill func()
	var killed atomic.Bool
	spec.Obs = &obs.Obs{Tracer: obs.NewTracerWithClock(func() time.Time {
		if !killed.Load() {
			if m, err := journal.Load(jpath); err == nil && m.AckedGroups() >= 1 && killed.CompareAndSwap(false, true) {
				kill()
			}
		}
		return time.Now()
	})}
	kctx, cancel := context.WithCancel(ctx)
	defer cancel()
	kill = cancel
	if _, err := Run(kctx, fields, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("campaign over the crawl link: got %v, want it killed at its first ack", err)
	}
	pre, err := journal.Load(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if pre.AckedGroups() < 1 || pre.Done {
		t.Fatalf("kill point missed: %d acked groups, done=%v", pre.AckedGroups(), pre.Done)
	}

	rspec := resumeSpec(jpath, jpath, corruptingLink(0.4, wan.CorruptMix, 23))
	rspec.Retry = spec.Retry
	res, err := Run(ctx, fields, rspec)
	if err != nil {
		t.Fatalf("resume over corrupting link: %v", err)
	}
	if !res.Resumed || res.SkippedGroups < 1 {
		t.Errorf("resume skipped %d groups (resumed=%v), want the acked ones skipped", res.SkippedGroups, res.Resumed)
	}
	if res.ReconDigest != ref.ReconDigest {
		t.Errorf("crash+corruption digest %016x != clean %016x", res.ReconDigest, ref.ReconDigest)
	}
}

// corruptingProxy forwards gridftp connections to backend as a stream,
// flipping byte at of every connection's client stream on the way — the
// test aims it at the tail of a frame's CRC trailer, so the wire arrives
// damaged but well-formed — and relays the server's answers back. It
// forwards as it reads, since the client half-closes only after the
// server has answered that its frames are staged.
func corruptingProxy(t *testing.T, backend string, at int) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				var d net.Dialer
				b, err := d.DialContext(context.Background(), "tcp", backend)
				if err != nil {
					return
				}
				defer b.Close()
				go func() {
					io.Copy(b, &flipAt{r: c, at: at})
					b.(*net.TCPConn).CloseWrite()
				}()
				io.Copy(c, b)
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// flipAt reads through r, flipping the low bit of byte at of the stream.
type flipAt struct {
	r     io.Reader
	at, n int
}

func (f *flipAt) Read(p []byte) (int, error) {
	k, err := f.r.Read(p)
	if i := f.at - f.n; i >= 0 && i < k {
		p[i] ^= 0x01
	}
	f.n += k
	return k, err
}

// TestGridFTPChecksumCorruptionTransient drives a real transfer through a
// corrupting TCP proxy: the server's wire checksum rejects it, the typed
// ErrChecksum identity survives the text verdict line, and the
// transport classifies it transient so the retry budget re-requests it.
func TestGridFTPChecksumCorruptionTransient(t *testing.T) {
	srv, err := gridftp.NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The one frame is u16 name length, name, u64 size, payload and a u32
	// CRC; flip the CRC's last byte.
	name, payload := "blob.bin", make([]byte, 4096)
	client, err := gridftp.Dial(corruptingProxy(t, srv.Addr(), 2+len(name)+8+len(payload)+4-1), 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := &GridFTPTransport{Client: client}
	_, err = tr.Send(context.Background(), name, payload)
	if err == nil {
		t.Fatal("corrupted transfer accepted")
	}
	if !errors.Is(err, gridftp.ErrChecksum) {
		t.Fatalf("want ErrChecksum identity, got: %v", err)
	}
	if !sentinel.IsTransient(err) {
		t.Fatalf("wire corruption must classify transient: %v", err)
	}
}

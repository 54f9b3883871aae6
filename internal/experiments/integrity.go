package experiments

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ocelot/internal/codec"
	"ocelot/internal/core"
	"ocelot/internal/datagen"
	"ocelot/internal/obs"
	"ocelot/internal/sentinel"
	"ocelot/internal/wan"
)

// countingTransport tallies successful deliveries per archive name on top
// of a simulated link, so the artifact can prove only corrupted groups
// were re-sent.
type countingTransport struct {
	inner *core.SimulatedWANTransport
	mu    sync.Mutex
	sends map[string]int
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
		c.mu.Unlock()
	}
	return d, sec, err
}

// misboundCodec wraps the default codec and perturbs the first
// reconstructed value by 3x the error bound — a compressor that breaks
// its contract, registered only when the quarantine leg runs so the bound
// audit has something real to catch.
type misboundCodec struct{ inner codec.Codec }

const misboundMagic = 0x44414221 // "!BAD" little-endian

var misboundOnce sync.Once

func registerMisbound() {
	misboundOnce.Do(func() {
		inner, err := codec.Lookup("")
		if err != nil {
			panic(err)
		}
		codec.Register(&misboundCodec{inner: inner})
	})
}

func (m *misboundCodec) Name() string  { return "misbound" }
func (m *misboundCodec) Magic() uint32 { return misboundMagic }

func (m *misboundCodec) Compress(data []float64, dims []int, p codec.Params) ([]byte, error) {
	inner, err := m.inner.Compress(data, dims, p)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 12+len(inner))
	binary.LittleEndian.PutUint32(out[:4], misboundMagic)
	binary.LittleEndian.PutUint64(out[4:12], math.Float64bits(3*p.AbsErrorBound))
	copy(out[12:], inner)
	return out, nil
}

func (m *misboundCodec) Decompress(stream []byte) ([]float64, []int, error) {
	if len(stream) < 12 || binary.LittleEndian.Uint32(stream[:4]) != misboundMagic {
		return nil, nil, errors.New("misbound: bad stream")
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

func (m *misboundCodec) StreamDims(stream []byte) ([]int, error) {
	if len(stream) < 12 {
		return nil, errors.New("misbound: short stream")
	}
	return m.inner.StreamDims(stream[12:])
}

func (m *misboundCodec) Probe(data []float64, dims []int, p codec.Params, stride int) ([]int, error) {
	return m.inner.Probe(data, dims, p, stride)
}

func (m *misboundCodec) Caps() codec.Caps { return m.inner.Caps() }

// Integrity is the end-to-end integrity artifact: four legs, each proving
// one contract of the checksummed pipeline.
//
// Corrupt-retransmit: a seeded link corrupts ~35% of delivered archives;
// the campaign completes with a ReconDigest bit-identical to a clean
// run's, re-sends exactly the corrupted groups (every clean delivery
// ships once), and reconciles the wire's injected-corruption counter
// against the verify stage's detected counter — zero silent escapes.
//
// Silent-corruption testbed: the same corrupting link with the integrity
// frame disabled. The campaign must not succeed (garbled archives fail to
// parse), demonstrating what the frame closes: without it corruption is
// only caught by luck, never classified or retransmitted.
//
// Bound-audit fail: a codec that violates its error bound is caught by
// the post-decompress pointwise audit and fails the campaign loudly.
//
// Quarantine: the same lying codec under BoundAudit.Quarantine — the
// campaign completes, every violating field is re-shipped lossless and
// recorded as degraded rather than failing the run.
func Integrity(scale Scale) (*Result, error) {
	scale = scale.withDefaults()
	res := newResult("Integrity")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	const nFields = 6
	fields, err := datagen.GenerateFirst("CESM", nFields, scale.Shrink, scale.Seed)
	if err != nil {
		return nil, err
	}
	spec := core.CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         2,
		GroupParam:      nFields,
		Codec:           scale.Codec,
		Engine:          core.EnginePipelined,
		TransferStreams: 2,
	}

	dir, err := os.MkdirTemp("", "ocelot-integrity-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Ground truth: the same campaign over a clean link. Its digest is what
	// the corrupted run must reproduce.
	ref := spec
	ref.Journal = filepath.Join(dir, "ref.ocjl")
	ref.Transport = core.NopTransport{}
	refRes, err := core.Run(ctx, fields, ref)
	if err != nil {
		return nil, fmt.Errorf("integrity reference: %w", err)
	}
	if refRes.ReconDigest == 0 {
		return nil, errors.New("integrity: journaled reference run has no digest")
	}

	// Corrupt-retransmit leg. Accounting-only pacing keeps the artifact
	// fast; corruption applies identically since it is injected per
	// delivery, after pacing.
	dirtyLink := func(seed int64) *core.SimulatedWANTransport {
		return &core.SimulatedWANTransport{
			Link: &wan.Link{Name: "dirty", BandwidthMBps: 1000, Concurrency: 4,
				Faults: &wan.Faults{CorruptProb: 0.35, CorruptMode: wan.CorruptMix, Seed: seed}},
			Timescale: -1,
		}
	}
	reg := obs.NewRegistry()
	inner := dirtyLink(scale.Seed + 1)
	inner.Metrics = reg
	tr := &countingTransport{inner: inner, sends: map[string]int{}}
	dirty := spec
	dirty.Journal = filepath.Join(dir, "dirty.ocjl")
	dirty.Transport = tr
	dirty.Obs = &obs.Obs{Metrics: reg}
	dirty.Retry = sentinel.RetryPolicy{MaxAttempts: 6, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
	dres, err := core.Run(ctx, fields, dirty)
	if err != nil {
		return nil, fmt.Errorf("integrity: corrupted-link leg: %w", err)
	}
	if dres.ReconDigest != refRes.ReconDigest {
		return nil, fmt.Errorf("integrity: corrupted-link digest %016x != clean %016x",
			dres.ReconDigest, refRes.ReconDigest)
	}
	if dres.CorruptGroups == 0 {
		return nil, errors.New("integrity: seeded link corrupted nothing — the leg exercised no recovery")
	}
	extraSends := 0
	for _, n := range tr.sends {
		if n > 1 {
			extraSends += n - 1
		}
	}
	if extraSends != dres.Retransmits {
		return nil, fmt.Errorf("integrity: %d extra deliveries for %d retransmits — an uncorrupted group was re-sent",
			extraSends, dres.Retransmits)
	}
	injected := dres.Metrics["wan_corruptions_injected_total"]
	detected := dres.Metrics["campaign_corruption_detected_total"]
	if injected == 0 || injected != detected {
		return nil, fmt.Errorf("integrity: injected %g corruptions, detected %g — silent corruption escaped",
			injected, detected)
	}
	retransmitFrac := 0.0
	if dres.GroupedBytes > 0 {
		retransmitFrac = float64(dres.RetransmitBytes) / float64(dres.GroupedBytes)
	}
	res.Values["digest_match"] = 1
	res.Values["corrupt_groups"] = float64(dres.CorruptGroups)
	res.Values["retransmits"] = float64(dres.Retransmits)
	res.Values["retransmit_fraction"] = retransmitFrac
	res.Values["corruptions_injected"] = injected
	res.Values["corruptions_detected"] = detected
	res.Values["silent_escapes"] = injected - detected

	// Silent-corruption testbed: frame off, heavy garbling. The run must
	// not complete cleanly.
	noFrame := spec
	noFrame.NoIntegrity = true
	noFrame.Transport = &core.SimulatedWANTransport{
		Link: &wan.Link{Name: "garble", BandwidthMBps: 1000, Concurrency: 4,
			Faults: &wan.Faults{CorruptProb: 0.9, CorruptMode: wan.CorruptGarble, Seed: scale.Seed + 2}},
		Timescale: -1,
	}
	if _, err := core.Run(ctx, fields, noFrame); err == nil {
		return nil, errors.New("integrity: frameless campaign verified garbled archives")
	}
	res.Values["frameless_fails"] = 1

	// Bound-audit legs: the lying codec without quarantine must fail the
	// campaign; with quarantine it must complete with every field degraded.
	registerMisbound()
	lying := spec
	lying.Codec = "misbound"
	lying.Transport = core.NopTransport{}
	if _, err := core.Run(ctx, fields, lying); err == nil {
		return nil, errors.New("integrity: bound-violating codec passed the audit")
	} else if !strings.Contains(err.Error(), "exceeds bound") {
		return nil, fmt.Errorf("integrity: bound-audit leg failed for the wrong reason: %w", err)
	}
	res.Values["audit_fails_without_quarantine"] = 1

	lying.BoundAudit = core.BoundAudit{Quarantine: true}
	qres, err := core.Run(ctx, fields, lying)
	if err != nil {
		return nil, fmt.Errorf("integrity: quarantine leg: %w", err)
	}
	if len(qres.DegradedFields) != nFields {
		return nil, fmt.Errorf("integrity: quarantined %d fields, want %d", len(qres.DegradedFields), nFields)
	}
	if qres.DegradedBytes == 0 {
		return nil, errors.New("integrity: quarantine shipped no bytes")
	}
	res.Values["degraded_fields"] = float64(len(qres.DegradedFields))
	res.Values["degraded_bytes"] = float64(qres.DegradedBytes)

	var sb strings.Builder
	sb.WriteString("Integrity: checksummed archives, corruption recovery, bound-guarantee quarantine\n\n")
	sb.WriteString(fmt.Sprintf("corrupt-retransmit: %d/%d groups corrupted on a p=0.35 link, %d retransmit(s)\n",
		dres.CorruptGroups, nFields, dres.Retransmits))
	sb.WriteString(fmt.Sprintf("  recon digest %016x identical to clean run\n", dres.ReconDigest))
	sb.WriteString(fmt.Sprintf("  only corrupted groups re-sent (retransmit-bytes fraction %.3f)\n", retransmitFrac))
	sb.WriteString(fmt.Sprintf("  %.0f injected == %.0f detected: zero silent escapes\n", injected, detected))
	sb.WriteString("frameless testbed: same corruption without the frame fails the campaign (nothing verifies garbage)\n")
	sb.WriteString(fmt.Sprintf("bound audit: lying codec fails the campaign; under quarantine it completes with %d/%d fields re-shipped lossless (%d bytes)\n",
		len(qres.DegradedFields), nFields, qres.DegradedBytes))
	res.Text = sb.String()
	return res, nil
}

package core

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ocelot/internal/codec"
	"ocelot/internal/gridftp"
	"ocelot/internal/journal"
	"ocelot/internal/obs"
	"ocelot/internal/sentinel"
	"ocelot/internal/wan"
)

// countingTransport wraps a simulated WAN link and tallies successful
// deliveries per archive name, so tests can prove only corrupted groups
// were re-sent.
type countingTransport struct {
	inner *SimulatedWANTransport
	mu    sync.Mutex
	sends map[string]int
}

func newCountingTransport(inner *SimulatedWANTransport) *countingTransport {
	return &countingTransport{inner: inner, sends: map[string]int{}}
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
		Engine:          EnginePipelined,
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
		Engine:          EnginePipelined,
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
// the replacement is bit-exact, not merely within bound.
func TestBoundAuditQuarantine(t *testing.T) {
	registerLiar(t)
	fields := pipelineFields(t, 2, 16)
	spec := CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         2,
		GroupParam:      2,
		Engine:          EnginePipelined,
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
	if len(res.DegradedFields) != len(fields) {
		t.Fatalf("degraded %v, want all %d fields", res.DegradedFields, len(fields))
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

// TestResumeAckEchoMismatchResends tampers a finished journal — the done
// record dropped, one ack's archive echo rewritten — and verifies resume
// treats the mismatched ack as void: that group is re-sent, the others are
// skipped, and the digest still matches the uninterrupted run.
func TestResumeAckEchoMismatchResends(t *testing.T) {
	ctx := context.Background()
	jpath := filepath.Join(t.TempDir(), "tampered.ocjl")
	fields := pipelineFields(t, 4, 16)
	spec := resumeSpec(EnginePipelined, jpath, "", NopTransport{})
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

	refSpec := resumeSpec(EnginePipelined, filepath.Join(t.TempDir(), "ref.ocjl"), "", NopTransport{})
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
	spec := resumeSpec(EnginePipelined, jpath, "", slow)
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

	rspec := resumeSpec(EnginePipelined, jpath, jpath, corruptingLink(0.4, wan.CorruptMix, 23))
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

// corruptingProxy forwards gridftp connections to backend, flipping the
// final byte of every data channel's client stream — the tail of the last
// frame's CRC trailer — so the wire arrives damaged but well-formed.
func corruptingProxy(t *testing.T, backend string) string {
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
				b, err := net.Dial("tcp", backend)
				if err != nil {
					return
				}
				defer b.Close()
				br := bufio.NewReader(c)
				first, err := br.ReadString('\n')
				if err != nil {
					return
				}
				if _, err := io.WriteString(b, first); err != nil {
					return
				}
				if strings.HasPrefix(first, "DATA ") {
					// Buffer the client's whole frame stream (the client
					// half-closes after flushing), corrupt the tail, forward.
					buf, _ := io.ReadAll(br)
					if len(buf) > 0 {
						buf[len(buf)-1] ^= 0x01
					}
					b.Write(buf)
					if tc, ok := b.(*net.TCPConn); ok {
						tc.CloseWrite()
					}
					io.Copy(io.Discard, b)
					return
				}
				// Control channel: transparent bidirectional forward.
				go func() {
					io.Copy(b, br)
					if tc, ok := b.(*net.TCPConn); ok {
						tc.CloseWrite()
					}
				}()
				io.Copy(c, b)
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestGridFTPChecksumCorruptionTransient drives a real transfer through a
// corrupting TCP proxy: the server's wire checksum rejects it, the typed
// ErrChecksum identity survives the text-based control channel, and the
// transport classifies it transient so the retry budget re-requests it.
func TestGridFTPChecksumCorruptionTransient(t *testing.T) {
	srv, err := gridftp.NewServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := gridftp.Dial(corruptingProxy(t, srv.Addr()), 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := &GridFTPTransport{Client: client}
	_, err = tr.Send(context.Background(), "blob.bin", make([]byte, 4096))
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

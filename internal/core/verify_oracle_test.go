package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"ocelot/internal/codec"
	"ocelot/internal/datagen"
	"ocelot/internal/grouping"
	"ocelot/internal/metrics"
	"ocelot/internal/obs"
	"ocelot/internal/sz"
)

// verifyMemberOracle is the decode-then-audit verifyMember the streaming
// pass replaced, kept as its reference: decode the whole member, audit it
// with metrics.MaxAbsError, score it with metrics.PSNR and digest
// it with reconDigest, each a separate pass over the reconstruction.
func (c *campaign) verifyMemberOracle(ctx context.Context, m grouping.Member) error {
	_, span := c.spec.Obs.StartSpan(ctx, "verify", obs.String("field", m.Name))
	defer span.End()
	i, ok := c.byName[m.Name]
	if !ok {
		return fmt.Errorf("core: unknown member %q", m.Name)
	}
	j := &c.jobs[i]
	orig := j.field.Data
	recon, dims, err := codec.Decompress(m.Data)
	if err != nil {
		return fmt.Errorf("decompress %s: %w", m.Name, err)
	}
	if len(dims) != len(j.field.Dims) {
		return fmt.Errorf("core: %s: dims mismatch", m.Name)
	}
	maxErr, err := metrics.MaxAbsError(orig, recon)
	if err != nil {
		return err
	}
	if maxErr > j.absEB {
		c.h.led.auditFailures.add(1)
		if !c.spec.BoundAudit.Quarantine {
			return fmt.Errorf("core: %s: error %g exceeds bound %g", m.Name, maxErr, j.absEB)
		}
		if recon, err = c.quarantine(ctx, j); err != nil {
			return fmt.Errorf("core: %s: bound violated (%g > %g) and lossless quarantine failed: %w", m.Name, maxErr, j.absEB, err)
		}
		j.quarantined = true
		c.h.led.degradedFields.add(1)
		span.Annotate(obs.String("quarantined", "lossless"))
	} else {
		j.relErr = maxErr / j.valueRange
		if c.planned {
			if j.psnr, err = metrics.PSNR(orig, recon); err != nil {
				return err
			}
		}
	}
	if c.digestOn {
		j.digest = reconDigest(recon)
	}
	j.verified = true
	return nil
}

// verifyCampaign prepares a campaign the way execute does and resolves
// every field's bound as the compress stage would, ready for direct
// verifyMember calls.
func verifyCampaign(t *testing.T, fields []*datagen.Field, spec CampaignSpec, planned bool) *campaign {
	t.Helper()
	h := &Campaign{fields: fields, now: time.Now, led: newLedger(nil)}
	var settings []fieldSetting
	if planned {
		settings = make([]fieldSetting, len(fields))
		for i := range settings {
			settings[i].relEB = spec.RelErrorBound
		}
	}
	c, err := prepare(h, spec, settings, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c.jobs {
		c.jobs[i].resolveBound()
	}
	return c
}

// encodeMember compresses f under absEB the way c's compress and pack
// stages would: whole, or, when c chunks, chunk by chunk into an OCSC
// container.
func encodeMember(t *testing.T, c *campaign, f *datagen.Field, cdc codec.Codec, absEB float64) []byte {
	t.Helper()
	params := codec.Params{AbsErrorBound: absEB}
	var stream []byte
	var err error
	if chunkBytes := c.spec.chunkBytes(); chunkBytes > 0 {
		var chunks [][]byte
		for _, r := range sz.PlanChunksBytes(f.Dims, chunkBytes, f.ElementSize) {
			s, err := compressChunk(cdc, f, r, params)
			if err != nil {
				t.Fatal(err)
			}
			chunks = append(chunks, s)
		}
		stream, err = sz.AssembleChunks(chunks)
	} else {
		stream, err = cdc.Compress(f.Data, f.Dims, params)
	}
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

// outcome renders what the verify stage wrote to j.
func (j *fieldJob) outcome() string {
	return fmt.Sprintf("{verified:%v quarantined:%v relErr:%g psnr:%g digest:%x}",
		j.verified, j.quarantined, j.relErr, j.psnr, j.digest)
}

// reshaped is f with dims replaced and its data cut or repeated to fit.
func reshaped(f *datagen.Field, dims ...int) *datagen.Field {
	n := 1
	for _, d := range dims {
		n *= d
	}
	data := make([]float64, n)
	for i := range data {
		data[i] = f.Data[i%len(f.Data)]
	}
	return &datagen.Field{App: f.App, Name: f.Name, Dims: dims, Data: data, ElementSize: f.ElementSize}
}

// verifyErrClass names an error for oracle comparison. Decoder and bound
// errors must match word for word; a shape that does not fit the field
// must only be reported as a length mismatch by both.
func verifyErrClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, metrics.ErrLengthMismatch):
		return "length mismatch"
	}
	return err.Error()
}

// oracleMembers builds the members the oracle comparison feeds each field
// through: its own stream, one compressed under a 64× looser bound (a lying
// codec), truncations, random byte flips, streams of a shorter, a longer
// and a flattened field, and a bare magic.
func oracleMembers(t *testing.T, c *campaign, i int, rng *rand.Rand) map[string][]byte {
	t.Helper()
	j, f := &c.jobs[i], c.jobs[i].field
	good := encodeMember(t, c, f, j.codec, j.absEB)
	rows, cols := f.Dims[0], f.Dims[1]
	members := map[string][]byte{
		"good":     good,
		"loose":    encodeMember(t, c, f, j.codec, 64*j.absEB),
		"cut-1":    good[:len(good)-1],
		"cut-half": good[:len(good)/2],
		"cut-20":   good[:20],
		"magic":    good[:4],
		"short":    encodeMember(t, c, reshaped(f, rows-1, cols), j.codec, j.absEB),
		"long":     encodeMember(t, c, reshaped(f, rows+3, cols), j.codec, j.absEB),
		"rank":     encodeMember(t, c, reshaped(f, rows*cols), j.codec, j.absEB),
		"rank-5":   encodeMember(t, c, reshaped(f, rows*cols-5), j.codec, j.absEB),
	}
	for k := 0; k < 6; k++ {
		bad := append([]byte(nil), good...)
		bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
		members[fmt.Sprintf("flip-%d", k)] = bad
	}
	return members
}

// TestVerifyMemberMatchesOracle runs the streaming verifyMember and the
// decode-then-audit oracle side by side over codec × OCSC container ×
// planned × journaled × quarantine, on the oracleMembers of
// two fields. Both must agree on the error (or, for a shape that does not
// fit, its class), on relErr and PSNR to the bit, on the digest, and on the
// quarantine outcome and its ledger counts.
func TestVerifyMemberMatchesOracle(t *testing.T) {
	// Fields of a few TileLen tiles (75 × 150 points), so tiles and OCSC
	// chunk boundaries fall out of step.
	fields := pipelineFields(t, 2, 24)
	ctx := context.Background()
	quarantined := 0
	for _, cdcName := range []string{"sz3", "szx"} {
		for _, chunkMB := range []float64{0, 0.05} {
			base := CampaignSpec{RelErrorBound: 1e-3, Workers: 2, Codec: cdcName, ChunkMB: chunkMB}
			enc := verifyCampaign(t, fields, base, false)
			rng := rand.New(rand.NewSource(int64(len(cdcName)) + int64(chunkMB*100)))
			members := make([]map[string][]byte, len(fields))
			for i := range fields {
				members[i] = oracleMembers(t, enc, i, rng)
			}
			for cfg := 0; cfg < 8; cfg++ {
				planned, journaled, quarantine := cfg&1 != 0, cfg&2 != 0, cfg&4 != 0
				name := fmt.Sprintf("%s/chunk=%g/planned=%v/journaled=%v/quarantine=%v",
					cdcName, chunkMB, planned, journaled, quarantine)
				spec := base
				spec.ChunkMB = 0 // members are prebuilt; verify needs no chunk plan
				spec.BoundAudit = BoundAudit{Quarantine: quarantine}
				if journaled {
					spec.Journal = filepath.Join(t.TempDir(), "unused.ocjl")
				}
				oracle := verifyCampaign(t, fields, spec, planned)
				fused := verifyCampaign(t, fields, spec, planned)
				for i := range fields {
					for mname, data := range members[i] {
						jo, jf := &oracle.jobs[i], &fused.jobs[i]
						for _, j := range []*fieldJob{jo, jf} {
							j.verified, j.quarantined, j.relErr, j.psnr, j.digest = false, false, 0, 0, 0
						}
						m := grouping.Member{Name: jo.name, Data: data}
						errO := oracle.verifyMemberOracle(ctx, m)
						errF := fused.verifyMember(ctx, m, make([]float64, codec.TileLen))
						where := fmt.Sprintf("%s field %d %s", name, i, mname)
						if co, cf := verifyErrClass(errO), verifyErrClass(errF); co != cf {
							t.Fatalf("%s: oracle error %q, fused %q", where, co, cf)
						}
						if jo.verified != jf.verified || jo.quarantined != jf.quarantined || jo.digest != jf.digest ||
							math.Float64bits(jo.relErr) != math.Float64bits(jf.relErr) ||
							math.Float64bits(jo.psnr) != math.Float64bits(jf.psnr) {
							t.Fatalf("%s: oracle outcome %s, fused %s", where, jo.outcome(), jf.outcome())
						}
						if errO == nil && journaled && jf.digest == 0 {
							t.Fatalf("%s: journaled member verified without a digest", where)
						}
						if jo.quarantined {
							quarantined++
						}
					}
				}
				lo, lf := oracle.h.led, fused.h.led
				if lo.auditFailures.load() != lf.auditFailures.load() ||
					lo.degradedFields.load() != lf.degradedFields.load() ||
					lo.degradedBytes.load() != lf.degradedBytes.load() {
					t.Fatalf("%s: ledgers differ: audit failures %d/%d, degraded fields %d/%d, degraded bytes %d/%d", name,
						lo.auditFailures.load(), lf.auditFailures.load(),
						lo.degradedFields.load(), lf.degradedFields.load(),
						lo.degradedBytes.load(), lf.degradedBytes.load())
				}
			}
		}
	}
	if quarantined == 0 {
		t.Fatal("no loose-bound member was quarantined: the quarantine path went unexercised")
	}
}

// TestVerifyMemberAllocationBudget: verifying a 4 Mi-point szx member
// streams it through one tile instead of materialising a 32 MiB
// reconstruction, so the whole verification allocates under 1 MB.
func TestVerifyMemberAllocationBudget(t *testing.T) {
	const n = 4 << 20
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i)*1e-3) + 1e-3*float64(i%17)
	}
	f := &datagen.Field{App: "budget", Name: "f", Dims: []int{n}, Data: data, ElementSize: 8}
	c := verifyCampaign(t, []*datagen.Field{f}, CampaignSpec{RelErrorBound: 1e-3, Workers: 1, Codec: "szx",
		Journal: filepath.Join(t.TempDir(), "unused.ocjl")}, false)
	j := &c.jobs[0]
	m := grouping.Member{Name: j.name, Data: encodeMember(t, c, f, j.codec, j.absEB)}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err := c.verifyMember(context.Background(), m, make([]float64, codec.TileLen))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !j.verified || j.digest == 0 {
		t.Fatalf("member not verified and digested: %s", j.outcome())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("verifying a %d-point szx member allocated %d bytes, want < 1 MiB", n, got)
	}
}

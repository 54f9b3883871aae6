package core

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ocelot/internal/codec"
	"ocelot/internal/datagen"
	"ocelot/internal/metrics"
	"ocelot/internal/sz"
	"ocelot/internal/szx"
)

// codecCampaignFields builds a small CESM workload.
func codecCampaignFields(t *testing.T, n int) []*datagen.Field {
	t.Helper()
	names := datagen.Fields("CESM")[:n]
	fields := make([]*datagen.Field, 0, n)
	for _, name := range names {
		f, err := datagen.Generate("CESM", name, 40, 5)
		if err != nil {
			t.Fatal(err)
		}
		fields = append(fields, f)
	}
	return fields
}

// TestCampaignSzxCodec runs the full pipelined campaign on the szx codec:
// compress, pack, ship, decompress via registry dispatch, verify bounds.
// The same campaign on sz3 must meet the same checks and reach a higher
// ratio: that is the trade the planner arbitrates (szx compresses faster,
// sz3 moves fewer bytes).
func TestCampaignSzxCodec(t *testing.T) {
	fields := codecCampaignFields(t, 6)
	ratio := map[string]float64{}
	for _, name := range []string{szx.Name, sz.CodecName} {
		t.Run(name, func(t *testing.T) {
			res, err := Run(context.Background(), fields, CampaignSpec{
				RelErrorBound: 1e-3,
				Workers:       4,
				GroupParam:    3,
				Codec:         name,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Codec != name {
				t.Errorf("result codec %q, want %q", res.Codec, name)
			}
			if res.MaxRelError > 1e-3*(1+1e-9) {
				t.Errorf("max relative error %g exceeds the bound", res.MaxRelError)
			}
			if res.Ratio <= 1 {
				t.Errorf("ratio %.2f did not compress", res.Ratio)
			}
			if res.Files != 6 || res.Groups != 3 {
				t.Errorf("files %d groups %d", res.Files, res.Groups)
			}
			ratio[name] = res.Ratio
		})
	}
	if len(ratio) == 2 && ratio[sz.CodecName] <= ratio[szx.Name] {
		t.Errorf("sz3 ratio %.2f not above szx ratio %.2f on CESM at rel-eb 1e-3",
			ratio[sz.CodecName], ratio[szx.Name])
	}
}

// TestCampaignSzxChunkFanout exercises the generic codec path through the
// chunk fan-out: szx chunks are compressed by the chunk pool's workers,
// assembled into OCSC containers, and must round-trip within the bound.
func TestCampaignSzxChunkFanout(t *testing.T) {
	fields := codecCampaignFields(t, 4)
	chunkMB := float64(fields[0].RawBytes()) / 4 / 1e6
	res, err := Run(context.Background(), fields, CampaignSpec{
		RelErrorBound:   1e-3,
		Workers:         4,
		GroupParam:      2,
		Codec:           szx.Name,
		ChunkMB:         chunkMB,
		CompressWorkers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks <= res.Files {
		t.Errorf("fields did not split: %d chunks for %d fields", res.Chunks, res.Files)
	}
	if res.MaxRelError > 1e-3*(1+1e-9) {
		t.Errorf("max relative error %g exceeds the bound", res.MaxRelError)
	}
	if res.ReconDigest == 0 {
		t.Error("fan-out campaign should report a reconstruction digest")
	}
}

// TestCampaignMixedCodecs drives the engine with per-field codec
// settings (what a planned campaign does): sz3 and szx members share
// group archives and the verify stage dispatches per member.
func TestCampaignMixedCodecs(t *testing.T) {
	fields := codecCampaignFields(t, 4)
	settings := make([]fieldSetting, len(fields))
	for i := range settings {
		settings[i] = fieldSetting{relEB: 1e-3, codec: sz.CodecName}
		if i%2 == 1 {
			settings[i].codec = szx.Name
		}
	}
	spec := CampaignSpec{Workers: 4, GroupParam: 2, TransferStreams: 2}
	h := &Campaign{fields: fields, now: time.Now, led: newLedger(nil)}
	res, err := h.execute(context.Background(), spec, settings, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Codec != "mixed" {
		t.Errorf("result codec %q, want mixed", res.Codec)
	}
	if res.MaxRelError > 1e-3*(1+1e-9) {
		t.Errorf("max relative error %g exceeds the bound", res.MaxRelError)
	}
}

// TestCampaignUnknownCodecFailsFast: a typo'd codec name errors before
// any compression starts, citing the valid names.
func TestCampaignUnknownCodecFailsFast(t *testing.T) {
	fields := codecCampaignFields(t, 2)
	_, err := Run(context.Background(), fields, CampaignSpec{
		RelErrorBound: 1e-3,
		Codec:         "zstd",
	})
	if err == nil {
		t.Fatal("want error for unknown codec")
	}
	if !strings.Contains(err.Error(), "valid:") {
		t.Errorf("error %q should list the valid codec names", err)
	}
}

// TestCampaignNonFiniteValues: a field holding +Inf, -Inf and NaN has no
// finite value range, so its relative bound resolves against the fallback
// range of 1 — the same fallback sz.Config.AbsoluteBound applies — instead
// of an infinite bound the codecs cannot honour. The campaign must finish
// on both codecs inside the bound, and what the destination holds (pinned
// through ReconDigest) must carry the non-finite values bit for bit.
func TestCampaignNonFiniteValues(t *testing.T) {
	for _, name := range []string{sz.CodecName, szx.Name} {
		t.Run(name, func(t *testing.T) {
			f := codecCampaignFields(t, 1)[0]
			n := len(f.Data)
			planted := []int{n / 4, n / 2, 3 * n / 4}
			f.Data[planted[0]], f.Data[planted[1]], f.Data[planted[2]] = math.Inf(1), math.Inf(-1), math.NaN()
			res, err := Run(context.Background(), []*datagen.Field{f}, CampaignSpec{
				RelErrorBound: 1e-3,
				Codec:         name,
				Journal:       filepath.Join(t.TempDir(), "run.ocjl"),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.MaxRelError > 1e-3*(1+1e-9) {
				t.Errorf("max relative error %g exceeds the bound", res.MaxRelError)
			}
			stream, err := mustCodec(t, name).Compress(f.Data, f.Dims, codec.Params{AbsErrorBound: 1e-3})
			if err != nil {
				t.Fatal(err)
			}
			recon, _, err := codec.Decompress(stream)
			if err != nil {
				t.Fatal(err)
			}
			if got := foldDigests([]uint64{reconDigest(recon)}); got != res.ReconDigest {
				t.Fatalf("campaign digest %016x is not the round trip at the fallback bound (%016x)", res.ReconDigest, got)
			}
			for _, i := range planted {
				if math.Float64bits(recon[i]) != math.Float64bits(f.Data[i]) {
					t.Errorf("value %d: %v reconstructed as %v", i, f.Data[i], recon[i])
				}
			}
		})
	}
}

// TestCampaignNaNPositionKeepsBound: a masked field whose fill value is
// NaN resolves its relative bound against the range of its finite values,
// wherever the NaN sits — first value included. The field is scaled to a
// range well under 1, where a range-1 fallback would loosen the bound a
// hundredfold and the campaign's own audit, which uses the same resolved
// range, would not notice. The destination must hold exactly the round
// trip at rel × finite range, inside that bound at every finite point.
func TestCampaignNaNPositionKeepsBound(t *testing.T) {
	const rel = 1e-3
	for _, name := range []string{sz.CodecName, szx.Name} {
		tmpl := codecCampaignFields(t, 1)[0]
		n := len(tmpl.Data)
		st := metrics.ComputeRange(tmpl.Data)
		for i, v := range tmpl.Data {
			tmpl.Data[i] = (v - st.Min) / st.Range * 0.01 // finite range ≈ 0.01
		}
		// Each NaN below replaces one of these interior values, so the
		// finite range — and the bound every position must resolve — is
		// this one.
		tmpl.Data[0], tmpl.Data[1], tmpl.Data[n/2], tmpl.Data[n-1] = 0.005, 0.005, 0.005, 0.005
		absEB := rel * metrics.ComputeRange(tmpl.Data).Range
		for _, pos := range []int{0, 1, n / 2, n - 1} {
			t.Run(fmt.Sprintf("%s/nan@%d", name, pos), func(t *testing.T) {
				f := *tmpl
				f.Data = append([]float64(nil), tmpl.Data...)
				f.Data[pos] = math.NaN()
				res, err := Run(context.Background(), []*datagen.Field{&f}, CampaignSpec{
					RelErrorBound: rel,
					Codec:         name,
					Journal:       filepath.Join(t.TempDir(), "run.ocjl"),
				})
				if err != nil {
					t.Fatal(err)
				}
				stream, err := mustCodec(t, name).Compress(f.Data, f.Dims, codec.Params{AbsErrorBound: absEB})
				if err != nil {
					t.Fatal(err)
				}
				recon, _, err := codec.Decompress(stream)
				if err != nil {
					t.Fatal(err)
				}
				if got := foldDigests([]uint64{reconDigest(recon)}); got != res.ReconDigest {
					t.Fatalf("campaign digest %016x is not the round trip at rel × finite range (%016x)", res.ReconDigest, got)
				}
				for i, v := range f.Data {
					if i == pos {
						if !math.IsNaN(recon[i]) {
							t.Fatalf("NaN at %d reconstructed as %v", i, recon[i])
						}
					} else if d := math.Abs(recon[i] - v); d > absEB {
						t.Fatalf("point %d: error %g exceeds rel × finite range %g", i, d, absEB)
					}
				}
			})
		}
	}
}

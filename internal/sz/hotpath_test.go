package sz

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"testing"

	"ocelot/internal/datagen"
)

// hotpathField builds a deterministic, mildly noisy field that exercises
// escapes, a spread of quantization bins, and every predictor.
func hotpathField(n int) []float64 {
	data := make([]float64, n)
	for i := range data {
		x := float64(i) / float64(n)
		data[i] = 40*math.Sin(11*x) + 6*x + 0.3*math.Sin(301*x)
	}
	// A few unpredictable spikes force literal escapes.
	for i := 97; i < n; i += 997 {
		data[i] += 1e7
	}
	return data
}

// hotpathCases crosses predictors with dimensionalities (odd extents, so
// boundary code paths run).
func hotpathCases() []struct {
	name string
	dims []int
	pred Predictor
} {
	return []struct {
		name string
		dims []int
		pred Predictor
	}{
		{"interp-1d", []int{1200}, PredictorInterp},
		{"interp-2d", []int{30, 41}, PredictorInterp},
		{"interp-3d", []int{11, 13, 17}, PredictorInterp},
		{"lorenzo-2d", []int{29, 43}, PredictorLorenzo},
		{"lorenzo-4d", []int{5, 7, 6, 9}, PredictorLorenzo},
		{"regression-2d", []int{33, 37}, PredictorRegression},
		{"regression-3d", []int{10, 12, 11}, PredictorRegression},
	}
}

// TestCompressMatchesReference: the overhauled hot path must emit streams
// byte-identical to the pre-overhaul reference path, and both must report
// identical run statistics, for every predictor and dimensionality.
func TestCompressMatchesReference(t *testing.T) {
	for _, tc := range hotpathCases() {
		t.Run(tc.name, func(t *testing.T) {
			n := 1
			for _, d := range tc.dims {
				n *= d
			}
			data := hotpathField(n)
			cfg := DefaultConfig(1e-3)
			cfg.Predictor = tc.pred
			fast, fastStats, err := Compress(data, tc.dims, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, refStats, err := CompressReference(data, tc.dims, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fast, ref) {
				t.Fatalf("streams differ: %d vs %d bytes", len(fast), len(ref))
			}
			if *fastStats != *refStats {
				t.Fatalf("stats differ:\n new %+v\n ref %+v", *fastStats, *refStats)
			}

			fastRecon, fastDims, err := Decompress(fast)
			if err != nil {
				t.Fatal(err)
			}
			refRecon, _, err := DecompressReference(fast)
			if err != nil {
				t.Fatal(err)
			}
			if len(fastDims) != len(tc.dims) {
				t.Fatalf("dims %v", fastDims)
			}
			for i := range fastRecon {
				if fastRecon[i] != refRecon[i] {
					t.Fatalf("reconstruction differs at %d: %g vs %g", i, fastRecon[i], refRecon[i])
				}
			}
			if m := MaxAbsError(data, fastRecon); m > 1e-3*(1+1e-9) {
				t.Fatalf("error %g exceeds bound", m)
			}
		})
	}
}

// TestCompressUnaffectedByDirtyArena pins the arena's no-zeroing contract:
// pooled recon buffers are reused without clearing, which is only sound if
// no traversal ever reads a slot it has not yet written. Poison the pool
// with NaN-filled buffers and assert the emitted stream still matches the
// reference path (which allocates fresh zeroed buffers) bit for bit.
func TestCompressUnaffectedByDirtyArena(t *testing.T) {
	type dirtyCase struct {
		name string
		dims []int
		data []float64
		cfg  Config
	}
	var cases []dirtyCase
	for _, tc := range hotpathCases() {
		n := 1
		for _, d := range tc.dims {
			n *= d
		}
		cfg := DefaultConfig(1e-3)
		cfg.Predictor = tc.pred
		cases = append(cases, dirtyCase{tc.name, tc.dims, hotpathField(n), cfg})
	}
	// Escapes and wide codes in passes the interp kernels iterate out of
	// stream order: their side-lane scratch is pooled too.
	for _, dims := range [][]int{{37, 53}, {17, 33, 20}, {3, 5, 7, 9}} {
		cfg := kernelConfig(InterpCubic, kernelWide)
		cases = append(cases, dirtyCase{fmt.Sprintf("interp-escapes-wide-%dd", len(dims)), dims, kernelField(dims, kernelEscapes), cfg})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, _, err := CompressReference(tc.data, tc.dims, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 8; round++ {
				// Poison a batch of arenas large enough for the run, so the
				// pool hands Compress dirty buffers of sufficient capacity.
				poisoned := make([]*arena, 4)
				for i := range poisoned {
					a := getArena()
					for _, buf := range [][]float64{a.reconScratch(len(tc.data)), a.interp.preds[:]} {
						for j := range buf {
							buf[j] = math.NaN()
						}
					}
					poisoned[i] = a
				}
				for _, a := range poisoned {
					a.release()
				}
				got, _, err := Compress(tc.data, tc.dims, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, ref) {
					t.Fatalf("round %d: dirty arena changed the stream", round)
				}
			}
		})
	}
}

// TestGoldenByteIdentity pins the strongest compatibility invariant: a
// fresh Compress of the golden field reproduces the frozen on-disk stream
// byte for byte (the golden file predates the hot-path overhaul).
func TestGoldenByteIdentity(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden/sz3-v1.ocsz")
	if err != nil {
		t.Fatal(err)
	}
	fresh, _, err := Compress(dispatchField(), []int{30, 40}, DefaultConfig(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, golden) {
		t.Fatalf("freshly compressed stream (%d bytes) differs from frozen golden (%d bytes)",
			len(fresh), len(golden))
	}
}

// TestSteadyStateAllocs budgets the hot path's allocations: with the
// arena pool warm, Compress and Decompress must allocate O(1) — the
// returned stream/reconstruction plus small fixed headers — never
// O(points). A regression back to per-symbol or per-buffer allocation
// blows these budgets by orders of magnitude.
func TestSteadyStateAllocs(t *testing.T) {
	f, err := datagen.Generate("CESM", "TMQ", 24, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1e-3)
	stream, _, err := Compress(f.Data, f.Dims, cfg)
	if err != nil {
		t.Fatal(err)
	}

	compressAllocs := testing.AllocsPerRun(10, func() {
		if _, _, err := Compress(f.Data, f.Dims, cfg); err != nil {
			t.Fatal(err)
		}
	})
	// Measured ~30 in steady state (stream, marshal, flate buffer growth,
	// table window, stats); 3x headroom absorbs runtime noise while still
	// failing hard on any O(points) regression (which adds thousands).
	if compressAllocs > 90 {
		t.Errorf("Compress steady state: %.0f allocs/run, budget 90", compressAllocs)
	}

	decompressAllocs := testing.AllocsPerRun(10, func() {
		if _, _, err := Decompress(stream); err != nil {
			t.Fatal(err)
		}
	})
	if decompressAllocs > 60 {
		t.Errorf("Decompress steady state: %.0f allocs/run, budget 60", decompressAllocs)
	}
}

// TestFreqsScratchCleanCertificate pins the arena's frequency-table
// zeroing contract: the all-zero certificate is a LENGTH, so a later run
// with a larger alphabet that fits capacity must still get zeros beyond
// the previously certified prefix (stale counts there would mint phantom
// symbols into the next Huffman table).
func TestFreqsScratchCleanCertificate(t *testing.T) {
	a := &arena{}
	f := a.freqsScratch(100)
	for i := range f {
		f[i] = 7 // a run dirties the whole table...
	}
	a.freqsCleanLen = 50 // ...but certifies only a 50-entry prefix

	g := a.freqsScratch(100)
	for i, v := range g {
		if v != 0 {
			t.Fatalf("entry %d = %d after partial certificate, want 0", i, v)
		}
	}
	for i := range g {
		g[i] = 9
	}
	a.freqsCleanLen = 100 // full certificate (but entries are 9 — simulate a lying run)
	// A smaller request inside a full certificate skips the clear; the
	// certificate is consumed either way.
	h := a.freqsScratch(40)
	if len(h) != 40 {
		t.Fatalf("len = %d", len(h))
	}
	if a.freqsCleanLen != 0 {
		t.Fatal("certificate not consumed on handout")
	}
	// After an aborted run (no re-certification) everything is cleared.
	k := a.freqsScratch(100)
	for i, v := range k {
		if v != 0 {
			t.Fatalf("entry %d = %d after aborted run, want 0", i, v)
		}
	}
}

// TestCompressAfterRadiusChange: byte-identity must survive arena reuse
// across runs with different quantizer radii (different alphabet sizes
// sharing one pooled frequency table).
func TestCompressAfterRadiusChange(t *testing.T) {
	data := hotpathField(1200)
	for _, radius := range []int{64, 4096, 0, 128, 0} {
		cfg := DefaultConfig(1e-3)
		cfg.Radius = radius
		got, _, err := Compress(data, []int{30, 40}, cfg)
		if err != nil {
			t.Fatalf("radius %d: %v", radius, err)
		}
		want, _, err := CompressReference(data, []int{30, 40}, cfg)
		if err != nil {
			t.Fatalf("radius %d: %v", radius, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("radius %d: stream differs from reference after arena reuse", radius)
		}
	}
}

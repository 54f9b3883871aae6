package sz

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"ocelot/internal/codec"
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

// TestCompressMatchesReference: Compress writes version 2 and
// CompressReference the pre-overhaul version 1 stream; only the entropy
// stage may differ. Compress must emit exactly the version 2 transcoding
// of the reference stream, both streams must decode to the same
// reconstruction bits through every decoder that reads them, and the runs
// must agree on every statistic the entropy stage does not define.
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
			if fast[4] != 2 || ref[4] != 1 {
				t.Fatalf("stream versions %d and %d, want 2 and 1", fast[4], ref[4])
			}
			if !bytes.Equal(fast, transcode(t, ref)) {
				t.Fatalf("stream (%d bytes) differs from the reference stream's transcoding", len(fast))
			}
			if fastStats.NumPoints != refStats.NumPoints || fastStats.NumEscapes != refStats.NumEscapes ||
				fastStats.P0Quant != refStats.P0Quant || fastStats.QuantEntropy != refStats.QuantEntropy {
				t.Fatalf("stats differ:\n new %+v\n ref %+v", *fastStats, *refStats)
			}

			fastRecon, fastDims, err := Decompress(fast)
			if err != nil {
				t.Fatal(err)
			}
			if len(fastDims) != len(tc.dims) {
				t.Fatalf("dims %v", fastDims)
			}
			for _, decode := range []func([]byte) ([]float64, []int, error){Decompress, DecompressReference} {
				refRecon, _, err := decode(ref)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(fastRecon, refRecon) {
					t.Fatal("version 1 and version 2 reconstructions differ")
				}
			}
			if m := maxAbsError(t, data, fastRecon); m > 1e-3*(1+1e-9) {
				t.Fatalf("error %g exceeds bound", m)
			}
		})
	}
}

// TestEntropyStageOnlyChange is the differential test of stream version 2
// against version 1 over the kernel matrix and the other two predictors:
// on every cell, the stream Compress writes and the one CompressReference
// writes decode to the same header, the same code stream and side lanes,
// and the same reconstruction bits.
func TestEntropyStageOnlyChange(t *testing.T) {
	modes := []struct {
		name string
		pred Predictor
		mode InterpMode
	}{
		{"cubic", PredictorInterp, InterpCubic},
		{"linear", PredictorInterp, InterpLinear},
		{"lorenzo", PredictorLorenzo, 0},
		{"regression", PredictorRegression, 0},
	}
	for _, dims := range kernelShapes {
		for _, m := range modes {
			for _, variant := range []string{kernelClean, kernelEscapes, kernelWide} {
				cfg := kernelConfig(m.mode, variant)
				cfg.Predictor = m.pred
				data := kernelField(dims, variant)
				v2, _, err := Compress(data, dims, cfg)
				if err != nil {
					t.Fatal(err)
				}
				v1, _, err := CompressReference(data, dims, cfg)
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%v/%s/%s", dims, m.name, variant)
				h2, syms2, in2 := streamCodes(t, v2)
				h1, syms1, in1 := streamCodes(t, v1)
				h1.version = h2.version
				if fmt.Sprint(*h1) != fmt.Sprint(*h2) {
					t.Fatalf("%s: headers differ: %+v vs %+v", key, *h2, *h1)
				}
				if !slices.Equal(syms2.Packed, syms1.Packed) || !slices.Equal(syms2.Wide, syms1.Wide) ||
					!sameBits(in2.literals, in1.literals) || !sameBits(in2.coeffs, in1.coeffs) {
					t.Fatalf("%s: code streams or side lanes differ", key)
				}
				r2, _, err := Decompress(v2)
				if err != nil {
					t.Fatal(err)
				}
				r1, _, err := Decompress(v1)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(r2, r1) {
					t.Fatalf("%s: reconstructions differ", key)
				}
			}
		}
	}
}

// TestCompressUnaffectedByDirtyArena pins the arena's no-zeroing contract:
// pooled recon buffers are reused without clearing, which is only sound if
// no traversal ever reads a slot it has not yet written. Poison the pool
// with NaN-filled buffers and assert the emitted stream still matches the
// transcoded reference stream (whose traversal allocates fresh zeroed
// buffers) bit for bit, and that DecodeTiles, which rebuilds the field in
// the same pooled buffer, visits exactly the values Decompress returns.
// The poisoned buffers are sized for a larger field, so a traversal that
// read past its own points would read NaN too.
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
			v1, _, err := CompressReference(tc.data, tc.dims, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := transcode(t, v1)
			want, _, err := Decompress(ref)
			if err != nil {
				t.Fatal(err)
			}
			// Poison a batch of arenas larger than the run needs, so the
			// pool hands Compress and DecodeTiles dirty buffers of
			// sufficient capacity.
			poison := func() {
				poisoned := make([]*arena, 4)
				for i := range poisoned {
					a := getArena()
					buf := a.reconScratch(2*len(tc.data) + 100)
					for j := range buf {
						buf[j] = math.NaN()
					}
					poisoned[i] = a
				}
				for _, a := range poisoned {
					a.release()
				}
			}
			for round := 0; round < 8; round++ {
				poison()
				got, _, err := Compress(tc.data, tc.dims, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, ref) {
					t.Fatalf("round %d: dirty arena changed the stream", round)
				}
				poison()
				var visited []float64
				if _, err := codec.DecodeTiles(ref, make([]float64, codec.TileLen), func(start int, vals []float64) error {
					if start != len(visited) {
						t.Fatalf("round %d: tile at %d after %d values", round, start, len(visited))
					}
					visited = append(visited, vals...)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if !sameBits(visited, want) {
					t.Fatalf("round %d: dirty arena changed the decoded values", round)
				}
			}
		})
	}
}

// TestGoldenByteIdentity pins the strongest compatibility invariant: a
// fresh Compress of the golden field reproduces the frozen version 2
// stream and chunked container byte for byte, and CompressReference
// still reproduces the frozen version 1 stream, which predates the
// hot-path overhaul.
func TestGoldenByteIdentity(t *testing.T) {
	chunked := func(data []float64, dims []int, cfg Config) ([]byte, *Stats, error) {
		return CompressChunked(data, dims, cfg, 240)
	}
	for _, tc := range []struct {
		file     string
		compress func([]float64, []int, Config) ([]byte, *Stats, error)
	}{
		{"testdata/golden/sz3-v2.ocsz", Compress},
		{"testdata/golden/sz3-v2.ocsc", chunked},
		{"testdata/golden/sz3-v1.ocsz", CompressReference},
	} {
		golden, err := os.ReadFile(tc.file)
		if err != nil {
			t.Fatal(err)
		}
		fresh, _, err := tc.compress(dispatchField(), []int{30, 40}, DefaultConfig(1e-4))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fresh, golden) {
			t.Errorf("%s: freshly compressed stream (%d bytes) differs from the frozen golden (%d bytes)",
				tc.file, len(fresh), len(golden))
		}
	}
}

// TestSteadyStateAllocs budgets the hot path's allocations: with the
// arena pool warm, Compress and Decompress must allocate O(1) — the
// returned stream/reconstruction plus small fixed headers — never
// O(points), and DecodeTiles, which returns no reconstruction, next to
// nothing. A regression back to per-symbol or per-buffer allocation
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

	// DecodeTiles rebuilds the field in the pooled arena: O(1) allocations
	// (measured 7: header, payload, traversal), and under 1 % of the
	// field's bytes in all (measured 272 bytes of 90 000). Each is the
	// least of ten runs: a GC that empties the pool, or the race detector,
	// whose sync.Pool drops a quarter of what is put back, costs a run a
	// fresh arena.
	tile := make([]float64, codec.TileLen)
	visit := func(int, []float64) error { return nil }
	allocs, bytes := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 10 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := codec.DecodeTiles(stream, tile, visit); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if allocs > 20 {
		t.Errorf("DecodeTiles steady state: %d allocs/run, budget 20", allocs)
	}
	if budget := uint64(8*len(f.Data)) / 100; bytes > budget {
		t.Errorf("DecodeTiles steady state: %d bytes/run, budget %d (1 %% of the field)", bytes, budget)
	}
}

// TestCompressAfterRadiusChange: byte-identity must survive arena reuse
// across runs with different quantizer radii (different alphabet sizes
// sharing one pooled entropy coder).
func TestCompressAfterRadiusChange(t *testing.T) {
	data := hotpathField(1200)
	for _, radius := range []int{64, 4096, 0, 128, 0} {
		cfg := DefaultConfig(1e-3)
		cfg.Radius = radius
		got, _, err := Compress(data, []int{30, 40}, cfg)
		if err != nil {
			t.Fatalf("radius %d: %v", radius, err)
		}
		ref, _, err := CompressReference(data, []int{30, 40}, cfg)
		if err != nil {
			t.Fatalf("radius %d: %v", radius, err)
		}
		if !bytes.Equal(got, transcode(t, ref)) {
			t.Fatalf("radius %d: stream differs from reference after arena reuse", radius)
		}
	}
}

// BenchmarkAblation_EntropyStage compares the two sz3 entropy stages on
// the same quantization codes: version 1 (Huffman, then DEFLATE over the
// body, as CompressReference writes it) against version 2 (the
// context-modelled rANS coder Compress writes). Each reports compress
// MB/s, decompress MB/s and ratio.
func BenchmarkAblation_EntropyStage(b *testing.B) {
	f, err := datagen.Generate("CESM", "TMQ", 10, 7)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(1e-3)
	for _, tc := range []struct {
		name     string
		compress func([]float64, []int, Config) ([]byte, *Stats, error)
	}{{"v1-huffman-deflate", CompressReference}, {"v2-rans", Compress}} {
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(f.NumPoints() * 8))
			b.ReportAllocs()
			var stream []byte
			for i := 0; i < b.N; i++ {
				var err error
				if stream, _, err = tc.compress(f.Data, f.Dims, cfg); err != nil {
					b.Fatal(err)
				}
			}
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, _, err := Decompress(stream); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*f.NumPoints()*8)/1e6/time.Since(start).Seconds(), "decompress-MB/s")
			b.ReportMetric(float64(f.RawBytes())/float64(len(stream)), "ratio")
		})
	}
}

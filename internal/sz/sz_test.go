package sz

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ocelot/internal/lossless"
	"ocelot/internal/metrics"
)

// maxAbsError is metrics.MaxAbsError for two slices the test expects to
// be the same length.
func maxAbsError(t testing.TB, a, b []float64) float64 {
	t.Helper()
	m, err := metrics.MaxAbsError(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// genSmooth produces a smooth multi-octave field: the compressible case.
func genSmooth(seed int64, dims []int) []float64 {
	n := 1
	for _, d := range dims {
		n *= d
	}
	rng := rand.New(rand.NewSource(seed))
	// Random plane + sinusoids.
	nd := len(dims)
	freqs := make([][3]float64, nd)
	for d := range freqs {
		freqs[d] = [3]float64{rng.Float64()*4 + 0.5, rng.Float64()*9 + 1, rng.Float64() * 2 * math.Pi}
	}
	data := make([]float64, n)
	coords := make([]int, nd)
	for i := 0; i < n; i++ {
		flatToCoords(i, dims, coords)
		v := 0.0
		for d := 0; d < nd; d++ {
			x := float64(coords[d]) / float64(dims[d])
			v += math.Sin(freqs[d][0]*2*math.Pi*x+freqs[d][2]) + 0.3*math.Cos(freqs[d][1]*2*math.Pi*x)
		}
		data[i] = v * 10
	}
	return data
}

func genNoisy(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.NormFloat64() * 100
	}
	return data
}

func allPredictors() []Predictor {
	return []Predictor{PredictorLorenzo, PredictorInterp, PredictorRegression}
}

func TestRoundTripErrorBound(t *testing.T) {
	shapes := [][]int{
		{1000},
		{40, 50},
		{16, 20, 24},
		{5, 8, 9, 6},
	}
	ebs := []float64{1e-1, 1e-3, 1e-5}
	for _, dims := range shapes {
		data := genSmooth(7, dims)
		for _, p := range allPredictors() {
			for _, eb := range ebs {
				cfg := DefaultConfig(eb)
				cfg.Predictor = p
				stream, st, err := Compress(data, dims, cfg)
				if err != nil {
					t.Fatalf("%v dims=%v eb=%g: compress: %v", p, dims, eb, err)
				}
				if st.NumPoints != len(data) {
					t.Fatalf("stats points %d != %d", st.NumPoints, len(data))
				}
				out, gotDims, err := Decompress(stream)
				if err != nil {
					t.Fatalf("%v dims=%v eb=%g: decompress: %v", p, dims, eb, err)
				}
				if len(gotDims) != len(dims) {
					t.Fatalf("dims mismatch: %v vs %v", gotDims, dims)
				}
				for i := range dims {
					if gotDims[i] != dims[i] {
						t.Fatalf("dims mismatch: %v vs %v", gotDims, dims)
					}
				}
				if got := maxAbsError(t, data, out); got > eb+1e-12 {
					t.Fatalf("%v dims=%v eb=%g: max error %g exceeds bound", p, dims, eb, got)
				}
			}
		}
	}
}

func TestCompressionRatioOnSmoothData(t *testing.T) {
	dims := []int{64, 64, 64}
	data := genSmooth(3, dims)
	cfg := DefaultConfig(1e-2)
	stream, _, err := Compress(data, dims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw := len(data) * 8
	ratio := float64(raw) / float64(len(stream))
	if ratio < 10 {
		t.Errorf("smooth data should compress well: ratio %.1f", ratio)
	}
}

func TestInterpBeatsLorenzoOnSmoothData(t *testing.T) {
	dims := []int{48, 48, 48}
	data := genSmooth(11, dims)
	sizes := map[Predictor]int{}
	for _, p := range []Predictor{PredictorLorenzo, PredictorInterp} {
		cfg := DefaultConfig(1e-3)
		cfg.Predictor = p
		stream, _, err := Compress(data, dims, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sizes[p] = len(stream)
	}
	// The paper reports SZ-interp achieving the highest ratio on smooth data.
	// Separable sinusoid fields favor Lorenzo, so only require that interp
	// stays in the same ballpark rather than strictly winning.
	if float64(sizes[PredictorInterp]) > 2.2*float64(sizes[PredictorLorenzo]) {
		t.Errorf("interp %d bytes much worse than lorenzo %d bytes",
			sizes[PredictorInterp], sizes[PredictorLorenzo])
	}
}

func TestNoisyDataStillBounded(t *testing.T) {
	data := genNoisy(5, 4096)
	dims := []int{4096}
	for _, p := range allPredictors() {
		cfg := DefaultConfig(0.5)
		cfg.Predictor = p
		stream, _, err := Compress(data, dims, cfg)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		out, _, err := Decompress(stream)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if got := maxAbsError(t, data, out); got > 0.5+1e-12 {
			t.Fatalf("%v: error %g > bound", p, got)
		}
	}
}

func TestRelativeBound(t *testing.T) {
	dims := []int{32, 32}
	data := genSmooth(13, dims)
	lo, hi := data[0], data[0]
	for _, v := range data {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	rel := 1e-3
	cfg := DefaultConfig(rel)
	cfg.BoundMode = BoundRelative
	stream, _, err := Compress(data, dims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	absEB := rel * (hi - lo)
	if got := maxAbsError(t, data, out); got > absEB+1e-12 {
		t.Fatalf("relative bound violated: %g > %g", got, absEB)
	}
}

func TestConstantField(t *testing.T) {
	dims := []int{10, 10, 10}
	data := make([]float64, 1000)
	for i := range data {
		data[i] = 42.5
	}
	for _, p := range allPredictors() {
		cfg := DefaultConfig(1e-6)
		cfg.Predictor = p
		stream, st, err := Compress(data, dims, cfg)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if st.P0Quant < 0.9 {
			t.Errorf("%v: constant field p0 = %.3f, want near 1", p, st.P0Quant)
		}
		out, _, err := Decompress(stream)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if got := maxAbsError(t, data, out); got > 1e-6 {
			t.Fatalf("%v: %g", p, got)
		}
	}
}

func TestSpecialValuesEscape(t *testing.T) {
	dims := []int{64}
	data := make([]float64, 64)
	for i := range data {
		data[i] = float64(i)
	}
	data[10] = math.Inf(1)
	data[20] = math.Inf(-1)
	// NaN cannot round-trip through equality; use Inf only here.
	cfg := DefaultConfig(1e-3)
	cfg.Predictor = PredictorLorenzo
	stream, _, err := Compress(data, dims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(out[10], 1) || !math.IsInf(out[20], -1) {
		t.Fatal("infinities must be preserved as literals")
	}
}

// TestAllStreamVersions: the version 1 streams CompressReference writes
// and the version 2 streams Compress writes both decode within the bound,
// for every predictor.
func TestAllStreamVersions(t *testing.T) {
	dims := []int{24, 24, 24}
	data := genSmooth(17, dims)
	for _, p := range allPredictors() {
		cfg := DefaultConfig(1e-4)
		cfg.Predictor = p
		for v, compress := range map[int]func([]float64, []int, Config) ([]byte, *Stats, error){1: CompressReference, 2: Compress} {
			stream, _, err := compress(data, dims, cfg)
			if err != nil {
				t.Fatalf("%v v%d: %v", p, v, err)
			}
			if int(stream[4]) != v {
				t.Fatalf("%v: stream version %d, want %d", p, stream[4], v)
			}
			out, _, err := Decompress(stream)
			if err != nil {
				t.Fatalf("%v v%d: %v", p, v, err)
			}
			if got := maxAbsError(t, data, out); got > 1e-4+1e-12 {
				t.Fatalf("%v v%d: %g", p, v, got)
			}
		}
	}
}

func TestInterpModes(t *testing.T) {
	dims := []int{100, 100}
	data := genSmooth(19, dims)
	for _, m := range []InterpMode{InterpLinear, InterpCubic} {
		cfg := DefaultConfig(1e-4)
		cfg.Interp = m
		stream, _, err := Compress(data, dims, cfg)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		out, _, err := Decompress(stream)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got := maxAbsError(t, data, out); got > 1e-4+1e-12 {
			t.Fatalf("%v: %g", m, got)
		}
	}
}

func TestOddShapes(t *testing.T) {
	shapes := [][]int{{1}, {2}, {3}, {7}, {1, 1}, {1, 17}, {17, 1}, {3, 5, 7}, {1, 1, 1}, {2, 2, 2}}
	for _, dims := range shapes {
		data := genSmooth(23, dims)
		for _, p := range allPredictors() {
			cfg := DefaultConfig(1e-3)
			cfg.Predictor = p
			stream, _, err := Compress(data, dims, cfg)
			if err != nil {
				t.Fatalf("%v dims=%v: %v", p, dims, err)
			}
			out, _, err := Decompress(stream)
			if err != nil {
				t.Fatalf("%v dims=%v: %v", p, dims, err)
			}
			if got := maxAbsError(t, data, out); got > 1e-3+1e-12 {
				t.Fatalf("%v dims=%v: %g", p, dims, got)
			}
		}
	}
}

func TestInvalidInputs(t *testing.T) {
	data := []float64{1, 2, 3}
	if _, _, err := Compress(data, []int{4}, DefaultConfig(1e-3)); err == nil {
		t.Fatal("dims mismatch must error")
	}
	if _, _, err := Compress(data, []int{3}, DefaultConfig(0)); err == nil {
		t.Fatal("zero error bound must error")
	}
	if _, _, err := Compress(data, []int{3}, DefaultConfig(-1)); err == nil {
		t.Fatal("negative error bound must error")
	}
	if _, _, err := Compress(nil, nil, DefaultConfig(1e-3)); err == nil {
		t.Fatal("empty input must error")
	}
	if _, _, err := Compress(data, []int{1, 1, 1, 1, 3}, DefaultConfig(1e-3)); err == nil {
		t.Fatal("5-D must error")
	}
}

func TestDecompressCorrupt(t *testing.T) {
	dims := []int{16, 16}
	data := genSmooth(29, dims)
	stream, _, err := Compress(data, dims, DefaultConfig(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		nil,
		{1, 2, 3},
		stream[:10],
		stream[:len(stream)/2],
	}
	for i, cse := range cases {
		if _, _, err := Decompress(cse); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	// Flip magic.
	bad := append([]byte{}, stream...)
	bad[0] ^= 0xFF
	if _, _, err := Decompress(bad); err == nil {
		t.Error("bad magic: want error")
	}
}

// TestDecompressRejectsStrayCoefficients appends coefficients no block
// reads to each predictor's inner payload: like leftover literals, they
// must make the stream corrupt rather than be silently ignored.
func TestDecompressRejectsStrayCoefficients(t *testing.T) {
	dims := []int{20, 22}
	data := genSmooth(41, dims)
	for _, pred := range allPredictors() {
		t.Run(pred.String(), func(t *testing.T) {
			cfg := DefaultConfig(1e-3)
			cfg.Predictor = pred
			v2, _, err := Compress(data, dims, cfg)
			if err != nil {
				t.Fatal(err)
			}
			v1, _, err := CompressReference(data, dims, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, stream := range [][]byte{v1, v2} {
				h, body, err := parseHeader(stream)
				if err != nil {
					t.Fatal(err)
				}
				if h.version == 1 {
					if body, err = lossless.Decompress(body); err != nil {
						t.Fatal(err)
					}
				}
				inner, err := parseInnerPayload(body)
				if err != nil {
					t.Fatal(err)
				}
				inner.coeffs = append(inner.coeffs, 1, 2, 3, 4)
				body = inner.marshal()
				if h.version == 1 {
					if body, err = lossless.Compress(body, lossless.Deflate); err != nil {
						t.Fatal(err)
					}
				}
				bad := append(h.marshal(), body...)
				if _, _, err := Decompress(bad); !errors.Is(err, ErrCorrupt) {
					t.Errorf("v%d stream with 4 stray coefficients: err = %v, want ErrCorrupt", h.version, err)
				}
			}
		})
	}
}

func TestStatsConsistency(t *testing.T) {
	dims := []int{32, 32, 32}
	data := genSmooth(31, dims)
	_, st, err := Compress(data, dims, DefaultConfig(1e-2))
	if err != nil {
		t.Fatal(err)
	}
	if st.P0Quant < 0 || st.P0Quant > 1 {
		t.Errorf("p0 out of range: %v", st.P0Quant)
	}
	if st.HuffP0 < 0 || st.HuffP0 > 1 {
		t.Errorf("P0 out of range: %v", st.HuffP0)
	}
	if st.QuantEntropy < 0 || st.QuantEntropy > 17 {
		t.Errorf("entropy out of range: %v", st.QuantEntropy)
	}
	if st.CompressedBytes <= 0 {
		t.Error("compressed size must be positive")
	}
}

func TestLargerBoundHigherP0(t *testing.T) {
	dims := []int{48, 48}
	data := genSmooth(37, dims)
	var prev float64 = -1
	for _, eb := range []float64{1e-5, 1e-3, 1e-1} {
		_, st, err := Compress(data, dims, DefaultConfig(eb))
		if err != nil {
			t.Fatal(err)
		}
		if st.P0Quant < prev {
			t.Errorf("p0 should grow with eb: eb=%g p0=%.4f prev=%.4f", eb, st.P0Quant, prev)
		}
		prev = st.P0Quant
	}
}

func TestSampledCodes(t *testing.T) {
	dims := []int{64, 64}
	data := genSmooth(41, dims)
	codes, err := SampledCodes(data, dims, DefaultConfig(1e-3), 100)
	if err != nil {
		t.Fatal(err)
	}
	wantN := (len(data) + 99) / 100
	if len(codes) != wantN {
		t.Fatalf("sampled %d codes, want %d", len(codes), wantN)
	}
	// All codes must fall inside the alphabet.
	for _, c := range codes {
		if c < 0 || c >= 2*32768 {
			t.Fatalf("code %d out of alphabet", c)
		}
	}
}

func TestAvgLorenzoError(t *testing.T) {
	dims := []int{32, 32}
	smooth := genSmooth(43, dims)
	noisy := genNoisy(43, 1024)
	se, err := AvgLorenzoError(smooth, dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	ne, err := AvgLorenzoError(noisy, dims, 1)
	if err != nil {
		t.Fatal(err)
	}
	if se >= ne {
		t.Errorf("smooth lorenzo error %g should be below noisy %g", se, ne)
	}
}

func TestParsePredictor(t *testing.T) {
	for _, tt := range []struct {
		in   string
		want Predictor
	}{
		{"lorenzo", PredictorLorenzo},
		{"interp", PredictorInterp},
		{"", PredictorInterp},
		{"sz-interp", PredictorInterp},
		{"regression", PredictorRegression},
	} {
		got, err := ParsePredictor(tt.in)
		if err != nil || got != tt.want {
			t.Errorf("ParsePredictor(%q) = %v, %v", tt.in, got, err)
		}
	}
	if _, err := ParsePredictor("nope"); err == nil {
		t.Error("want error for unknown predictor")
	}
}

// Property test: error bound holds for random fields across predictors.
func TestErrorBoundQuick(t *testing.T) {
	f := func(seed int64, rough bool, predSel uint8) bool {
		dims := []int{17, 23}
		var data []float64
		if rough {
			data = genNoisy(seed, 17*23)
		} else {
			data = genSmooth(seed, dims)
		}
		preds := allPredictors()
		p := preds[int(predSel)%len(preds)]
		eb := 1e-3
		cfg := DefaultConfig(eb)
		cfg.Predictor = p
		stream, _, err := Compress(data, dims, cfg)
		if err != nil {
			return false
		}
		out, _, err := Decompress(stream)
		if err != nil {
			return false
		}
		return maxAbsError(t, data, out) <= eb+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompressInterp3D(b *testing.B) {
	dims := []int{64, 64, 64}
	data := genSmooth(2, dims)
	cfg := DefaultConfig(1e-3)
	b.SetBytes(int64(len(data) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Compress(data, dims, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressLorenzo3D(b *testing.B) {
	dims := []int{64, 64, 64}
	data := genSmooth(2, dims)
	cfg := DefaultConfig(1e-3)
	cfg.Predictor = PredictorLorenzo
	b.SetBytes(int64(len(data) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Compress(data, dims, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress3D(b *testing.B) {
	dims := []int{64, 64, 64}
	data := genSmooth(2, dims)
	stream, _, err := Compress(data, dims, DefaultConfig(1e-3))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decompress(stream); err != nil {
			b.Fatal(err)
		}
	}
}

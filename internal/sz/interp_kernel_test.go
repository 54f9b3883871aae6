package sz

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"ocelot/internal/huffman"
	"ocelot/internal/quant"
)

// checkKernelsAgainstOracle compresses data with the shipping kernels and
// with the oracle traversal and requires the same bytes, the same escape
// count, and — through both decoders — the same reconstruction bits.
func checkKernelsAgainstOracle(t *testing.T, data []float64, dims []int, cfg Config) {
	t.Helper()
	stream, st, err := Compress(data, dims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, run := oracleCompress(t, data, dims, cfg)
	if !bytes.Equal(stream, want) {
		t.Fatalf("dims %v: kernel stream (%d bytes) differs from the oracle's (%d bytes)", dims, len(stream), len(want))
	}
	if st.NumEscapes != len(run.literals) {
		t.Fatalf("dims %v: %d escapes reported, oracle has %d", dims, st.NumEscapes, len(run.literals))
	}
	recon, gotDims, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotDims) != len(dims) {
		t.Fatalf("decoded dims %v, want %v", gotDims, dims)
	}
	if !sameBits(recon, run.recon) {
		t.Fatalf("dims %v: decode kernel disagrees with the encoder's reconstruction", dims)
	}
	if !sameBits(recon, oracleDecompress(t, stream)) {
		t.Fatalf("dims %v: decode kernel disagrees with the oracle decoder", dims)
	}
}

// FuzzInterpKernelMatchesOracle is the differential test of the interp
// row kernels: random shape, data, bound, radius and interpolation mode
// must give the stream and reconstruction of the point-at-a-time oracle.
// shape packs four extents (0 drops the axis); knobs picks the rest.
func FuzzInterpKernelMatchesOracle(f *testing.F) {
	f.Add(uint64(1), uint32(0x00000040), uint16(0))      // 1-D
	f.Add(uint64(2), uint32(0x00002535), uint16(0x0111)) // 37×53, specials
	f.Add(uint64(3), uint32(0x00112114), uint16(0x0203)) // 17×33×20, wide lane
	f.Add(uint64(4), uint32(0x03050709), uint16(0x1312)) // 4-D, linear, both lanes
	f.Add(uint64(5), uint32(0x00050140), uint16(0x0121)) // 5×1×64: degenerate axis
	f.Add(uint64(6), uint32(0x01010101), uint16(0))      // a single point
	f.Add(uint64(7), uint32(0x00400201), uint16(0x0334)) // 64×2×1
	f.Add(uint64(8), uint32(0x00003f3f), uint16(0x1005)) // 63×63, coarse bound
	f.Fuzz(func(t *testing.T, seed uint64, shape uint32, knobs uint16) {
		var dims []int
		n := 1
		for s := 24; s >= 0; s -= 8 {
			if d := int(shape>>s) & 0x7f; d > 0 && n*d <= 1<<15 {
				dims = append(dims, d)
				n *= d
			}
		}
		if len(dims) == 0 {
			dims = []int{1}
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		data := make([]float64, n)
		walk := 0.0
		for i := range data {
			walk += rng.NormFloat64()
			data[i] = 20*math.Sin(float64(i)/17) + walk*0.05
		}
		if density := int(knobs>>4) & 0xf; density > 0 {
			specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e15, -1e-300, math.MaxFloat64, math.Copysign(0, -1)}
			for i := range data {
				if rng.Intn(64) < density {
					data[i] = specials[rng.Intn(len(specials))]
				}
			}
		}
		cfg := DefaultConfig(math.Pow(10, -float64(knobs&0x7)))
		cfg.Radius = []int{0, 0, 64, 65536, 40000, 2}[int(knobs>>8&0xf)%6]
		if knobs>>12&1 == 1 {
			cfg.Interp = InterpLinear
		}
		checkKernelsAgainstOracle(t, data, dims, cfg)
	})
}

// TestInterpKernelMatchesOracle runs the differential check on the kernel
// matrix's small and mid shapes, where the recorded digests only say that
// something changed and the oracle says what.
func TestInterpKernelMatchesOracle(t *testing.T) {
	for _, dims := range kernelShapes {
		for _, mode := range []InterpMode{InterpCubic, InterpLinear} {
			for _, variant := range []string{kernelClean, kernelEscapes, kernelWide} {
				checkKernelsAgainstOracle(t, kernelField(dims, variant), dims, kernelConfig(mode, variant))
			}
		}
	}
}

// craftedInterpStreams builds interp streams no encoder would write, to
// attack the decode kernel's side-lane lookups: escape and wide codes
// moved to arbitrary positions (so they sit in passes decoded out of
// stream order) with the lane lengths still consistent, and streams whose
// escape count and literal count disagree. valid ones must decode exactly
// as the oracle decodes them; invalid ones must be rejected.
func craftedInterpStreams(tb testing.TB) (valid, invalid [][]byte) {
	tb.Helper()
	for _, tc := range []struct {
		dims   []int
		radius int
	}{{[]int{17, 33, 20}, 0}, {[]int{37, 53}, 65536}, {[]int{3, 5, 7, 9}, 40000}} {
		data := kernelField(tc.dims, kernelEscapes)
		cfg := DefaultConfig(1e-3)
		cfg.Radius = tc.radius
		_, run := oracleCompress(tb, data, tc.dims, cfg)
		h := &header{predictor: PredictorInterp, interp: InterpCubic, boundMode: BoundAbsolute,
			radius: run.radius, absEB: run.eb, dims: tc.dims}
		build := func(packed []uint16, literals []float64) []byte {
			syms := &huffman.SymbolStream{Packed: packed, Wide: run.syms.Wide}
			return assembleStream(tb, h, syms, literals, nil)
		}
		// Shuffled codes: every escape and wide marker lands somewhere
		// else, the counts are unchanged.
		rng := rand.New(rand.NewSource(int64(len(data))))
		shuffled := append([]uint16(nil), run.syms.Packed...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		valid = append(valid, build(shuffled, run.literals))
		// All escapes at the front of the stream (the coarse levels), and
		// all at the back (the finest pass over the last axis).
		front := append([]uint16(nil), run.syms.Packed...)
		k := len(front)
		for i := len(front) - 1; i >= 0; i-- {
			if front[i] != quant.EscapeCode {
				k--
				front[k] = front[i]
			}
		}
		for i := 0; i < k; i++ {
			front[i] = quant.EscapeCode
		}
		back := make([]uint16, len(front))
		for i, p := range front {
			back[len(back)-1-i] = p
		}
		valid = append(valid, build(front, run.literals), build(back, run.literals))

		// One escape too many for the literals, one too few, and none of
		// the literals the codes ask for.
		extra := append([]uint16(nil), run.syms.Packed...)
		for i := len(extra) - 1; i >= 0; i-- {
			if extra[i] != quant.EscapeCode && extra[i] != huffman.WideEscape {
				extra[i] = quant.EscapeCode
				break
			}
		}
		invalid = append(invalid,
			build(extra, run.literals),
			build(run.syms.Packed, run.literals[:len(run.literals)-1]),
			build(run.syms.Packed, nil))
	}
	return valid, invalid
}

func TestDecompressCraftedEscapePlacement(t *testing.T) {
	valid, invalid := craftedInterpStreams(t)
	for i, stream := range valid {
		recon, _, err := Decompress(stream)
		if err != nil {
			t.Fatalf("valid crafted stream %d: %v", i, err)
		}
		// A code no encoder would emit can make a decoder add NaNs of
		// different payloads, and which payload survives depends on how
		// the compiler ordered the operands — so NaNs compare as a class.
		want := oracleDecompress(t, stream)
		for j := range want {
			if math.Float64bits(recon[j]) != math.Float64bits(want[j]) && !(math.IsNaN(recon[j]) && math.IsNaN(want[j])) {
				t.Fatalf("valid crafted stream %d: point %d decodes to %v, the oracle decoder gives %v", i, j, recon[j], want[j])
			}
		}
	}
	for i, stream := range invalid {
		if _, _, err := Decompress(stream); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("invalid crafted stream %d: got %v, want ErrCorrupt", i, err)
		}
	}
}

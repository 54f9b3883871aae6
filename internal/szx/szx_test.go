package szx

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"ocelot/internal/codec"
)

// maxAbsErr returns the L∞ distance between two equal-length slices.
func maxAbsErr(t *testing.T, a, b []float64) float64 {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("length mismatch: %d vs %d", len(a), len(b))
	}
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// genField synthesizes a smooth field with localized turbulence so all
// four block classes (constant, linear, packed, raw via spikes) appear.
func genField(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		x := float64(i) / float64(n)
		out[i] = 40*math.Sin(6*x) + 5*x + rng.NormFloat64()*0.3
	}
	// A constant plateau and a pure ramp, block-aligned.
	for i := 0; i < 256 && i < n; i++ {
		out[i] = 17.5
	}
	for i := 256; i < 512 && i < n; i++ {
		out[i] = 3 + 0.01*float64(i-256)
	}
	return out
}

func TestRoundTripBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		dims []int
		eb   float64
	}{
		{"1d-tight", []int{4096}, 1e-4},
		{"1d-loose", []int{4096}, 1e-1},
		{"2d", []int{64, 67}, 1e-3},
		{"3d", []int{16, 17, 18}, 1e-2},
		{"short-tail", []int{1000}, 1e-3}, // last block shorter than BlockSize
		{"tiny", []int{3}, 1e-3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := 1
			for _, d := range tc.dims {
				n *= d
			}
			data := genField(n, 7)
			stream, err := Compress(data, tc.dims, tc.eb)
			if err != nil {
				t.Fatal(err)
			}
			recon, dims, err := Decompress(stream)
			if err != nil {
				t.Fatal(err)
			}
			if len(dims) != len(tc.dims) {
				t.Fatalf("dims = %v, want %v", dims, tc.dims)
			}
			for i, d := range dims {
				if d != tc.dims[i] {
					t.Fatalf("dims = %v, want %v", dims, tc.dims)
				}
			}
			if m := maxAbsErr(t, data, recon); m > tc.eb {
				t.Errorf("max error %g exceeds bound %g", m, tc.eb)
			}
		})
	}
}

func TestConstantFieldCompressesHard(t *testing.T) {
	data := make([]float64, 1<<14)
	for i := range data {
		data[i] = 42
	}
	stream, err := Compress(data, []int{len(data)}, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Constant blocks cost 9 bytes per 256 values; anything near raw size
	// means block classification broke.
	if len(stream) > len(data)/16 {
		t.Errorf("constant field compressed to %d bytes (raw %d)", len(stream), len(data)*8)
	}
	recon, _, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if m := maxAbsErr(t, data, recon); m > 1e-6 {
		t.Errorf("max error %g", m)
	}
}

func TestNonFiniteValuesEscapeLosslessly(t *testing.T) {
	data := genField(1024, 3)
	data[10] = math.NaN()
	data[500] = math.Inf(1)
	data[900] = math.Inf(-1)
	stream, err := Compress(data, []int{len(data)}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(recon[10]) || !math.IsInf(recon[500], 1) || !math.IsInf(recon[900], -1) {
		t.Error("non-finite values not preserved")
	}
	for i, v := range data {
		if i == 10 {
			continue
		}
		if math.Abs(v-recon[i]) > 1e-3 {
			t.Fatalf("value %d: error %g", i, math.Abs(v-recon[i]))
		}
	}
}

func TestHugeDynamicRangeEscapes(t *testing.T) {
	// Offsets would need far more than maxPackedBits: blocks must fall
	// back to raw and stay lossless.
	data := make([]float64, 512)
	for i := range data {
		data[i] = float64(i) * 1e12
	}
	data[5] = 3e15
	stream, err := Compress(data, []int{len(data)}, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if data[i] != recon[i] {
			t.Fatalf("value %d not lossless: %g vs %g", i, data[i], recon[i])
		}
	}
}

func TestCompressRejectsBadInput(t *testing.T) {
	data := []float64{1, 2, 3}
	if _, err := Compress(data, []int{3}, 0); err == nil {
		t.Error("want error for zero bound")
	}
	if _, err := Compress(data, []int{3}, math.NaN()); err == nil {
		t.Error("want error for NaN bound")
	}
	if _, err := Compress(data, []int{4}, 1e-3); err == nil {
		t.Error("want error for dims mismatch")
	}
	if _, err := Compress(nil, nil, 1e-3); err == nil {
		t.Error("want error for empty input")
	}
}

func TestDecompressRejectsCorrupt(t *testing.T) {
	data := genField(1024, 9)
	stream, err := Compress(data, []int{1024}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"short":        stream[:10],
		"bad-magic":    append([]byte{1, 2, 3, 4}, stream[4:]...),
		"truncated":    stream[:len(stream)-7],
		"trailing":     append(append([]byte(nil), stream...), 0xFF),
		"bad-version":  append([]byte{stream[0], stream[1], stream[2], stream[3], 99}, stream[5:]...),
		"zero-bound":   corruptBound(stream),
		"bad-blocksz":  corruptBlockSize(stream),
		"bad-tag":      corruptFirstTag(stream),
		"bad-ndims":    corruptNDims(stream),
		"body-missing": stream[:headerFixed+8],
	}
	for name, s := range cases {
		if _, _, err := Decompress(s); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func corruptBound(stream []byte) []byte {
	s := append([]byte(nil), stream...)
	for i := 9; i < 17; i++ {
		s[i] = 0
	}
	return s
}

func corruptBlockSize(stream []byte) []byte {
	s := append([]byte(nil), stream...)
	s[5], s[6], s[7], s[8] = 0, 0, 0, 0
	return s
}

func corruptFirstTag(stream []byte) []byte {
	s := append([]byte(nil), stream...)
	s[headerFixed+8] = 0x7F
	return s
}

func corruptNDims(stream []byte) []byte {
	s := append([]byte(nil), stream...)
	s[17] = 200
	return s
}

// TestDimsProductOverflowRejected: a crafted header whose per-axis dims
// pass the 2^32 cap but whose product wraps int64 must error, not reach
// an allocation with a negative point count (found by FuzzDecompress-
// style review; the check-before-multiply guard in parseHeader).
func TestDimsProductOverflowRejected(t *testing.T) {
	hdr := marshalHeader(nil, 1e-3, 256, []int{1 << 31, 1 << 32})
	stream := append(hdr, make([]byte, 64)...)
	if _, _, err := Decompress(stream); err == nil {
		t.Fatal("want error for wrapped dims product")
	}
	if _, err := StreamDims(stream); err == nil {
		t.Fatal("want error from StreamDims for wrapped dims product")
	}
}

func TestStreamDims(t *testing.T) {
	data := genField(60, 1)
	stream, err := Compress(data, []int{5, 12}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	dims, err := StreamDims(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 2 || dims[0] != 5 || dims[1] != 12 {
		t.Errorf("dims = %v, want [5 12]", dims)
	}
}

func TestProbe(t *testing.T) {
	data := genField(4096, 5)
	codes, err := Probe(data, []int{4096}, 1e-2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4096/7 + 1; len(codes) != want {
		t.Errorf("got %d codes, want %d", len(codes), want)
	}
	for _, c := range codes {
		if c < 0 {
			t.Fatalf("negative code %d", c)
		}
	}
	if _, err := Probe(data, []int{4096}, 0, 1); err == nil {
		t.Error("want error for zero bound")
	}
}

func TestRegisteredInCodecRegistry(t *testing.T) {
	c, err := codec.Lookup(Name)
	if err != nil {
		t.Fatal(err)
	}
	if c.Magic() != Magic {
		t.Errorf("magic %#x, want %#x", c.Magic(), Magic)
	}
	if caps := c.Caps(); caps.Predictors {
		t.Errorf("caps = %+v", caps)
	}
	data := genField(2048, 11)
	stream, err := c.Compress(data, []int{2048}, codec.Params{AbsErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	recon, dims, err := codec.Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	if dims[0] != 2048 {
		t.Errorf("dims = %v", dims)
	}
	if m := maxAbsErr(t, data, recon); m > 1e-3 {
		t.Errorf("max error %g", m)
	}
	if _, err := c.Compress(data, []int{2048}, codec.Params{}); err == nil {
		t.Error("want error for missing bound")
	}
}

// TestDecodeTilesVisitError: the registry routes szx streams to the native
// tile decoder, which fills whole tiles of blocks and stops at the first
// visit error, returning it unwrapped.
func TestDecodeTilesVisitError(t *testing.T) {
	if codec.TileLen < MaxBlockSize {
		t.Fatalf("codec.TileLen %d cannot hold a %d-value block", codec.TileLen, MaxBlockSize)
	}
	data := genField(5*DefaultBlockSize+7, 3)
	stream, err := Compress(data, []int{len(data)}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	var starts []int
	_, err = codec.DecodeTiles(stream, make([]float64, 2*DefaultBlockSize+1), func(start int, vals []float64) error {
		starts = append(starts, start)
		if len(vals) != 2*DefaultBlockSize {
			t.Errorf("tile at %d holds %d values, want two whole blocks", start, len(vals))
		}
		if len(starts) == 2 {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("DecodeTiles returned %v, want the visit's error", err)
	}
	if len(starts) != 2 || starts[1] != 2*DefaultBlockSize {
		t.Fatalf("visited tiles at %v, want [0 %d]", starts, 2*DefaultBlockSize)
	}
}

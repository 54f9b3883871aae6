package szx

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"ocelot/internal/codec"
	"ocelot/internal/sz"
)

// sameRelative fails t unless the relative entry, the codec's
// CompressRelative, returns exactly what CompressBlocked returns at
// sz.Config.AbsoluteBound's bound: the same stream, the same bound bit for
// bit, or an error from both. It returns the stream.
func sameRelative(t *testing.T, data []float64, dims []int, relEB float64) []byte {
	t.Helper()
	absEB := sz.Config{ErrorBound: relEB, BoundMode: sz.BoundRelative}.AbsoluteBound(data)
	want, wErr := CompressBlocked(data, dims, absEB, DefaultBlockSize)
	got, gotEB, release, gErr := szxCodec{}.CompressRelative(data, dims, relEB, codec.Params{})
	if release != nil {
		defer release()
	}
	if (gErr == nil) != (wErr == nil) {
		t.Fatalf("relEB %g: CompressRelative err %v; CompressBlocked at %g err %v", relEB, gErr, absEB, wErr)
	}
	if wErr != nil {
		return nil
	}
	if math.Float64bits(gotEB) != math.Float64bits(absEB) {
		t.Fatalf("relEB %g: bound %g, want AbsoluteBound's %g", relEB, gotEB, absEB)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("relEB %g: relative stream (%d bytes) differs from CompressBlocked's at %g (%d bytes)", relEB, len(got), absEB, len(want))
	}
	return bytes.Clone(got)
}

// TestRelativeMatchesAbsoluteBound runs the relative entry over the fields
// where its one-pass range could part from metrics.ValueRange's: non-finite
// values where a block's scan stops early, extremes that are zeros of
// either sign, degenerate ranges that fall back to 1, and blocks that do
// not fill.
func TestRelativeMatchesAbsoluteBound(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	ramp := func(n int) []float64 { return genField(n, 11) }
	with := func(data []float64, at map[int]float64) []float64 {
		for i, v := range at {
			data[i] = v
		}
		return data
	}
	filled := func(n int, v float64) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	nanStarts := ramp(1100)
	for i := 0; i < len(nanStarts); i += DefaultBlockSize {
		nanStarts[i] = nan
	}
	signedZeros := make([]float64, 700)
	for i := range signedZeros {
		switch i % 3 {
		case 0:
			signedZeros[i] = math.Copysign(0, -1)
		case 1:
			signedZeros[i] = 0
		default:
			signedZeros[i] = -1e-9 * float64(i%5)
		}
	}
	for _, tc := range []struct {
		name string
		data []float64
	}{
		{"NaN at block starts", nanStarts},
		{"+Inf", with(ramp(900), map[int]float64{300: inf})},
		{"-Inf", with(ramp(900), map[int]float64{5: -inf})},
		{"both infinities", with(ramp(900), map[int]float64{5: -inf, 800: inf})},
		// The field's maximum sits in a block that goes raw for its NaN, so
		// only the raw block's own NaN-skipping scan sees it.
		{"extreme inside a raw block", with(ramp(900), map[int]float64{520: nan, 600: 1e6, 601: -1e6})},
		{"mixed ±0 extremes", signedZeros},
		{"±0 only", with(filled(600, 0), map[int]float64{0: math.Copysign(0, -1), 257: math.Copysign(0, -1)})},
		{"constant", filled(1000, 3.25)},
		{"all NaN", filled(513, nan)},
		{"NaN and one finite value", with(filled(300, nan), map[int]float64{299: 7})},
		{"one value", []float64{42}},
		{"partial last block", ramp(1000)},
		{"shorter than a group of four", []float64{1, -2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, relEB := range []float64{1e-1, 1e-4, 1e-7} {
				if stream := sameRelative(t, tc.data, []int{len(tc.data)}, relEB); stream == nil {
					t.Fatalf("relEB %g: no stream", relEB)
				}
			}
		})
	}
	// Bounds and shapes both entries refuse.
	data := ramp(64)
	for _, relEB := range []float64{0, -1e-3, nan, inf} {
		if sameRelative(t, data, []int{64}, relEB) != nil {
			t.Errorf("relEB %g accepted", relEB)
		}
	}
	sameRelative(t, data, []int{8, 9}, 1e-3)
	sameRelative(t, nil, []int{0}, 1e-3)
	sameRelative(t, []float64{1e308, -1e308}, []int{2}, 1)
}

// TestRelativeReservesOnce: a relative-bound compression reserves its
// stream once, from the scan's per-block bound, so a fresh encoder's
// buffer grows exactly once — to that bound, or to room's 64 KiB floor —
// where doubling from 64 KiB would grow it up to three times for these
// 1 MiB fields, and the stream and its slack fit inside.
func TestRelativeReservesOnce(t *testing.T) {
	spiky := genField(1<<17, 5)
	for i := 700; i < len(spiky); i += 3001 {
		spiky[i] = math.Inf(1) // a raw block every dozen
	}
	for name, data := range map[string][]float64{"smooth": genField(1<<17, 4), "spiky": spiky} {
		for _, relEB := range []float64{1e-2, 1e-4, 1e-7} {
			e := new(encoder)
			stream, absEB, err := e.compressRelative(data, []int{len(data)}, relEB)
			if err != nil {
				t.Fatal(err)
			}
			want := max(64<<10, headerFixed+8+streamBound(make([]byte, len(e.ext)/2), e.ext, len(data), DefaultBlockSize, absEB))
			if len(e.buf) != want {
				t.Errorf("%s at %g: buffer of %d bytes, want the one reservation of %d", name, relEB, len(e.buf), want)
			}
			if len(stream)+8 > len(e.buf) {
				t.Errorf("%s at %g: stream of %d bytes and its slack outgrew the %d reserved", name, relEB, len(stream), len(e.buf))
			}
			t.Logf("%s at %g: stream %d bytes in a reservation of %d", name, relEB, len(stream), len(e.buf))
			sameRelative(t, data, []int{len(data)}, relEB)
		}
	}
}

// TestPooledMatchesCompress holds the codec's lent absolute-bound stream to
// Compress's bytes.
func TestPooledMatchesCompress(t *testing.T) {
	data := genField(5000, 3)
	want, err := Compress(data, []int{50, 100}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	got, release, err := szxCodec{}.CompressPooled(data, []int{50, 100}, codec.Params{AbsErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	if !bytes.Equal(got, want) {
		t.Fatalf("pooled stream (%d bytes) differs from Compress's (%d bytes)", len(got), len(want))
	}
}

// FuzzSZXRelative holds the relative entry to CompressBlocked at
// sz.Config.AbsoluteBound's bound on arbitrary fields (fuzzField: raw bit
// patterns, with NaN, ±Inf and ±0 in any block, or a random walk) and
// relative bounds: the same stream and the same bound, or an error from
// both.
func FuzzSZXRelative(f *testing.F) {
	for _, variant := range goldenVariants {
		data := goldenField(variant)[:600]
		raw := make([]byte, 0, 8*len(data))
		for _, v := range data {
			raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
		}
		f.Add(raw, uint8(0), uint8(3))
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(0), uint8(2))          // -0, +0
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f}, uint8(0), uint8(1)) // NaN, +Inf
	f.Add(bytes.Repeat([]byte{3, 250, 7}, 300), uint8(1), uint8(5))
	f.Add([]byte{}, uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, mode, ebExp uint8) {
		data := fuzzField(raw, mode)
		relEB := math.Pow(10, -float64(ebExp%13)) * (1 + float64(mode>>1)/7)
		sameRelative(t, data, []int{len(data)}, relEB)
	})
}

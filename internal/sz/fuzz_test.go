package sz

import (
	"testing"

	"ocelot/internal/codec"
	"ocelot/internal/szx"
)

// fuzzSeeds builds valid streams of every registered family — plain sz3,
// each predictor, a chunked container, and an szx stream via the registry
// — so mutation starts from deep inside the accept space. The checked-in
// corpus under testdata/fuzz holds byte-frozen copies plus crafted
// corruptions; these programmatic seeds track the implementation as it
// evolves.
func fuzzSeeds(f *testing.F) [][]byte {
	f.Helper()
	data := make([]float64, 600)
	for i := range data {
		data[i] = float64(i%37) * 0.25
	}
	var seeds [][]byte
	for _, p := range []Predictor{PredictorLorenzo, PredictorInterp, PredictorRegression} {
		cfg := DefaultConfig(1e-3)
		cfg.Predictor = p
		stream, _, err := Compress(data, []int{20, 30}, cfg)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, stream)
	}
	// Table-boundary seed: four in five residuals cluster near the zero
	// bin, the rest scatter across ~thousands of distinct bins with
	// frequency one, so the canonical code lengths straddle the decoder's
	// 12-bit primary table and mutation starts from a stream whose decode
	// crosses into the overflow (second-level) path.
	longTail := make([]float64, 8000)
	acc := 0.0
	for i := range longTail {
		r := float64((uint32(i+1)*2654435761)%2000) - 1000 // deterministic noise in ±1000
		if i%5 == 0 {
			acc += r * 20 // wide bin, mostly unique
		} else {
			acc += r * 0.01 // near-zero bin
		}
		longTail[i] = acc * 1e-3
	}
	cfgTail := DefaultConfig(1e-3)
	cfgTail.Predictor = PredictorLorenzo
	tailStream, _, err := Compress(longTail, []int{8000}, cfgTail)
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, tailStream)
	// Interp streams whose escape and wide codes sit in passes the decode
	// kernel walks out of stream order, some with side lanes too short
	// for them: right values or ErrCorrupt, never a read past a lane.
	valid, invalid := craftedInterpStreams(f)
	seeds = append(append(seeds, valid...), invalid...)
	// NOTE: the chunked container must stay at len(seeds)-2 — see
	// FuzzSplitChunked.
	chunked, _, err := CompressChunked(data, []int{20, 30}, DefaultConfig(1e-3), 150)
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, chunked)
	szxc, err := codec.Lookup("szx")
	if err != nil {
		f.Fatal(err)
	}
	szxStream, err := szxc.Compress(data, []int{600}, codec.Params{AbsErrorBound: 1e-3})
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, szxStream)
	return seeds
}

// FuzzDecompress feeds arbitrary bytes to the registry's decode dispatch
// — the path every grouped-archive member and chunked-container payload
// crosses. Any input may error (including unknown codec magic), but none
// may panic, and a successful decode must be shape-consistent.
func FuzzDecompress(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	for _, s := range craftedSZXStreams(f) {
		f.Add(s)
	}
	f.Add([]byte{})
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3}) // unknown magic
	f.Fuzz(func(t *testing.T, stream []byte) {
		recon, dims, err := codec.Decompress(stream)
		if err != nil {
			return
		}
		n := 1
		for _, d := range dims {
			if d <= 0 {
				t.Fatalf("non-positive dim %d in %v", d, dims)
			}
			n *= d
		}
		if n != len(recon) {
			t.Fatalf("dims %v product %d != %d reconstructed points", dims, n, len(recon))
		}
	})
}

// craftedSZXStreams builds szx streams that end where the decoder's
// word-at-a-time unpacking has to switch to its byte-wise tail: a packed
// last block whose payload ends exactly at the end of the body, a last
// block packed at the maximum width of 40 bits, and that stream with its
// final block cut short.
func craftedSZXStreams(f *testing.F) [][]byte {
	f.Helper()
	const eb = 1e-3
	noise := make([]float64, 300)
	lcg := uint64(0x9E3779B97F4A7C15)
	for i := range noise {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		noise[i] = float64(lcg>>11) / (1 << 53) // [0, 1): every block packed
	}
	wide := append([]float64(nil), noise...)
	for i := 256; i < len(wide); i++ {
		k := uint64(i*0x9E3779B1) & (1<<40 - 1)
		wide[i] = 2 * eb * float64(k)
	}
	wide[256], wide[257] = 0, 2*eb*float64(uint64(1<<40-1))+0.2*eb
	var out [][]byte
	for _, tc := range []struct {
		data  []float64
		width int // of the last block; 0 = any
	}{{noise, 0}, {wide, 40}} {
		stream, err := szx.Compress(tc.data, []int{len(tc.data)}, eb)
		if err != nil {
			f.Fatal(err)
		}
		if w := lastPackedWidth(stream, len(tc.data)%szx.DefaultBlockSize); w == 0 || (tc.width != 0 && w != tc.width) {
			f.Fatalf("crafted szx stream ends in a block of width %d, want a packed block of width %d", w, tc.width)
		}
		out = append(out, stream)
	}
	return append(out, out[1][:len(out[1])-3])
}

// lastPackedWidth returns the width of an szx stream's last block when it
// is packed and holds n values (tag, float64 base, width byte, then the
// payload runs to the end of the stream), or 0.
func lastPackedWidth(stream []byte, n int) int {
	for w := 1; w <= 40; w++ {
		payload := (n*w + 7) / 8
		if at := len(stream) - payload - 10; at > 0 && stream[at] == 0x02 && int(stream[at+9]) == w {
			return w
		}
	}
	return 0
}

// FuzzSplitChunked attacks the OCSC container framing: splitting must
// never panic, and when it succeeds, every chunk must either decode
// consistently or error cleanly through the registry.
func FuzzSplitChunked(f *testing.F) {
	seeds := fuzzSeeds(f)
	f.Add(seeds[len(seeds)-2]) // the chunked container
	f.Add([]byte{0x43, 0x53, 0x43, 0x4F, 1, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, stream []byte) {
		chunks, err := SplitChunked(stream)
		if err != nil {
			return
		}
		if len(chunks) == 0 {
			t.Fatal("SplitChunked returned no chunks without error")
		}
		if _, err := ChunkedDims(stream); err != nil {
			// Chunk payloads may still be garbage; ChunkedDims erroring is
			// fine, panicking is not.
			return
		}
		for _, c := range chunks {
			if _, _, err := codec.Decompress(c); err != nil {
				return
			}
		}
	})
}

// FuzzHeaderParse hammers the low-level sz3 parsers (fixed header and
// inner payload) directly, below the magic dispatch.
func FuzzHeaderParse(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte{0x5A, 0x53, 0x43, 0x4F, 1, 1, 2, 1})
	f.Fuzz(func(t *testing.T, stream []byte) {
		if h, body, err := parseHeader(stream); err == nil {
			if h == nil || len(h.dims) == 0 {
				t.Fatal("parseHeader succeeded with no dims")
			}
			if len(body) > len(stream) {
				t.Fatal("body longer than stream")
			}
		}
		if p, err := parseInnerPayload(stream); err == nil && p == nil {
			t.Fatal("parseInnerPayload succeeded with nil payload")
		}
	})
}

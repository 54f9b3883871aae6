package szx

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"ocelot/internal/codec"
)

// Variants of goldenField.
const (
	fieldNoise   = "noise"   // HACC-like: a float32-rounded random walk plus jitter
	fieldBlocks  = "blocks"  // constant and linear runs, a near-constant run, ±0 minima in both orders
	fieldEscapes = "escapes" // NaN, ±Inf and ±1e300 planted in noise, a leading NaN, a ramp too wide for 40 bits
	fieldWidths  = "widths"  // 40 runs of 256 values whose offsets need exactly 1…40 bits at eb 1e-3
)

var (
	goldenVariants   = []string{fieldWidths, fieldNoise, fieldBlocks, fieldEscapes}
	goldenBlockSizes = []int{7, 256, 1000, 4096}
	goldenBounds     = []float64{1e-3, 1e-6}
)

// lcg is the deterministic generator behind the golden fields.
type lcg uint64

// next returns 53 random bits.
func (s *lcg) next() uint64 {
	*s = *s*6364136223846793005 + 1442695040888963407
	return uint64(*s >> 11)
}

// unit returns a value in [0, 1).
func (s *lcg) unit() float64 { return float64(s.next()) / (1 << 53) }

func noiseField(rng *lcg, n int) []float64 {
	out := make([]float64, n)
	walk := 3.0
	for i := range out {
		walk += (rng.unit() - 0.5) * 0.05
		out[i] = float64(float32(walk + (rng.unit()-0.5)*0.01))
	}
	return out
}

func blocksField(rng *lcg) []float64 {
	negZero := math.Copysign(0, -1)
	var out []float64
	for i := 0; i < 300; i++ {
		out = append(out, 17.5)
	}
	for i := 0; i < 300; i++ {
		out = append(out, 3+0.01*float64(i))
	}
	for i := 0; i < 300; i++ {
		out = append(out, 42+(rng.unit()-0.5)*1e-4)
	}
	// All-zero runs whose first zero is +0, then -0: the stored midpoint
	// keeps the sign of the first zero of each block.
	for _, first := range []float64{0, negZero} {
		for i := 0; i < 200; i++ {
			if i%2 == 0 {
				out = append(out, first)
			} else {
				out = append(out, -first)
			}
		}
	}
	// Packed runs whose minimum is a zero of both signs: the stored base is
	// whichever comes first in the block.
	for _, first := range []float64{0, negZero} {
		for i := 0; i < 300; i++ {
			switch {
			case i%10 == 0:
				out = append(out, first)
			case i%10 == 5:
				out = append(out, -first)
			default:
				out = append(out, rng.unit()*0.5)
			}
		}
	}
	return out
}

func escapesField(rng *lcg, n int) []float64 {
	out := noiseField(rng, n)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300}
	for i, k := 0, 0; i < n; i, k = i+97, k+1 {
		out[i] = specials[k%len(specials)]
	}
	for i := 1200; i < 1800 && i < n; i++ {
		out[i] = float64(i) * 1e12
	}
	out[0] = math.NaN()
	return out
}

func widthsField(rng *lcg) []float64 {
	const eb = 1e-3
	out := make([]float64, 0, 40*256)
	for w := 1; w <= 40; w++ {
		base := float64(w) * 10
		for i := 0; i < 256; i++ {
			k := rng.next() & (1<<w - 1)
			jitter := rng.unit() * 0.25 * eb
			switch i {
			case 0:
				k, jitter = 0, 0
			case 128:
				k, jitter = 1<<w-1, 0.2*eb
			}
			out = append(out, base+2*eb*float64(k)+jitter)
		}
	}
	return out
}

// goldenField builds one variant deterministically.
func goldenField(variant string) []float64 {
	rng := lcg(0x9E3779B97F4A7C15)
	switch variant {
	case fieldNoise:
		return noiseField(&rng, 5000)
	case fieldBlocks:
		return blocksField(&rng)
	case fieldEscapes:
		return escapesField(&rng, 3000)
	case fieldWidths:
		return widthsField(&rng)
	}
	panic("unknown golden variant " + variant)
}

// goldenComposite is the field behind testdata/golden/szx-v1.ocsx: every
// variant back to back, widths first so its runs stay block-aligned,
// shaped 20×1007.
func goldenComposite() ([]float64, []int) {
	var data []float64
	for _, v := range goldenVariants {
		data = append(data, goldenField(v)...)
	}
	return data, []int{20, 1007}
}

func fnvBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// fnvDigest hashes float64 bit patterns with FNV-64a, the digest the
// recorded golden and stream-digest tables were taken with.
func fnvDigest(vals []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		w := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (w >> s) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// goldenStreamDigest is fnvDigest of szx-v1.ocsx's reconstruction.
const goldenStreamDigest = 0x4d0ae534ee6674c7

// TestGoldenStream pins the szx stream format: compressing the composite
// field reproduces the frozen file byte for byte, and decoding the file —
// directly and through the registry — reproduces the frozen
// reconstruction.
func TestGoldenStream(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden/szx-v1.ocsx")
	if err != nil {
		t.Fatal(err)
	}
	data, dims := goldenComposite()
	stream, err := Compress(data, dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream, golden) {
		t.Errorf("stream (%d bytes, fnv %#x) differs from the golden file (%d bytes, fnv %#x)",
			len(stream), fnvBytes(stream), len(golden), fnvBytes(golden))
	}
	for name, decode := range map[string]func([]byte) ([]float64, []int, error){"szx": Decompress, "registry": codec.Decompress} {
		recon, rDims, err := decode(golden)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rDims) != 2 || rDims[0] != dims[0] || rDims[1] != dims[1] {
			t.Fatalf("%s: dims %v, want %v", name, rDims, dims)
		}
		if got := fnvDigest(recon); got != goldenStreamDigest {
			t.Errorf("%s: recon digest %#x, want %#x", name, got, uint64(goldenStreamDigest))
		}
	}
}

// streamDigests holds {FNV-64a of the stream, fnvDigest of its
// reconstruction} for every cell of the variant × block size × bound
// matrix, recorded from the bitstream-based kernels before the
// word-at-a-time kernels replaced them.
var streamDigests = map[string][2]uint64{
	"widths/7/0.001":     {0xb3a9d96e27875ce4, 0x793fa1e700b1c926},
	"widths/7/1e-06":     {0xfb0f89e7abb4c147, 0x874c6f94c26d3bb},
	"widths/256/0.001":   {0x1e139f77ab86b653, 0xad36e633ba0ea2d5},
	"widths/256/1e-06":   {0x58f409ebb4f89e3d, 0x10a1a375671283aa},
	"widths/1000/0.001":  {0x582d9b636ea1a0b2, 0x61bf57e75ad38cd3},
	"widths/1000/1e-06":  {0x70e28cc3a1f9d03b, 0xec81c16789d30635},
	"widths/4096/0.001":  {0x38c63daa8572f5ae, 0x9a58084e9e34b31b},
	"widths/4096/1e-06":  {0xffdc07d8227e7752, 0xcf9100fb3bec1f16},
	"noise/7/0.001":      {0x86b528231a64e79a, 0x1cfe3d1f1a9e8de4},
	"noise/7/1e-06":      {0xd75b877d5a5e088e, 0xbd4d615cce257198},
	"noise/256/0.001":    {0xf77db8ab33dd2432, 0xef5f8a9f176a55a0},
	"noise/256/1e-06":    {0xe6bcd0eb54813aaa, 0x9bb20e89146383a3},
	"noise/1000/0.001":   {0x5298ebb0ca409d03, 0xada4f0faf4a35492},
	"noise/1000/1e-06":   {0x36f98d3daeb66e9a, 0xe82f7cb04c2b93db},
	"noise/4096/0.001":   {0xe5d07c9cce6e762c, 0xdb00b551cb826cce},
	"noise/4096/1e-06":   {0x85d1ffbba17cde03, 0x573bbfa937f5650b},
	"blocks/7/0.001":     {0x3ee423481ac5f04b, 0x7838effef87d6307},
	"blocks/7/1e-06":     {0xe3004eabba57f936, 0x2e31ffcb84488fd4},
	"blocks/256/0.001":   {0x40fc05494b378712, 0xef11e04c768640a1},
	"blocks/256/1e-06":   {0x6a3693191e605e0f, 0x501a035e50679bf1},
	"blocks/1000/0.001":  {0x2825f188102dc6df, 0xa818651060d48e35},
	"blocks/1000/1e-06":  {0x4670dba2805e92a5, 0x5e0b2db5621b92c5},
	"blocks/4096/0.001":  {0xf0ce25e8021d10a4, 0xa818651060d48e35},
	"blocks/4096/1e-06":  {0xd746ed7ab862382b, 0x5e0b2db5621b92c5},
	"escapes/7/0.001":    {0xd2cb4fb64b1aee13, 0xc7d28ffa02ca4b90},
	"escapes/7/1e-06":    {0x5fa27252ef94734f, 0xd18d6bebbeba617b},
	"escapes/256/0.001":  {0xf3578b54eed9ba9d, 0x8b8568f3f6ecc650},
	"escapes/256/1e-06":  {0x4b3280c8a2d8ecd3, 0x8b8568f3f6ecc650},
	"escapes/1000/0.001": {0x47db3f24cb2786c6, 0x8b8568f3f6ecc650},
	"escapes/1000/1e-06": {0xb5a11457c40d050c, 0x8b8568f3f6ecc650},
	"escapes/4096/0.001": {0xf57ba778600c03f, 0x8b8568f3f6ecc650},
	"escapes/4096/1e-06": {0xc8baadf7a9a6996d, 0x8b8568f3f6ecc650},
}

func TestStreamDigests(t *testing.T) {
	for _, variant := range goldenVariants {
		data := goldenField(variant)
		for _, bs := range goldenBlockSizes {
			for _, eb := range goldenBounds {
				key := fmt.Sprintf("%s/%d/%g", variant, bs, eb)
				stream, err := CompressBlocked(data, []int{len(data)}, eb, bs)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				recon, _, err := Decompress(stream)
				if err != nil {
					t.Fatalf("%s: decompress: %v", key, err)
				}
				got := [2]uint64{fnvBytes(stream), fnvDigest(recon)}
				want, ok := streamDigests[key]
				if !ok {
					t.Errorf("no digest recorded:\t%q: {%#x, %#x},", key, got[0], got[1])
				} else if got != want {
					t.Errorf("%s: stream/recon digests %#x, want %#x", key, got, want)
				}
			}
		}
	}
}

// blockCensus walks a stream's blocks and counts tags and packed widths.
func blockCensus(t *testing.T, stream []byte) (tags, widths map[byte]int) {
	t.Helper()
	_, blockSize, dims, body, err := parseHeader(stream)
	if err != nil {
		t.Fatal(err)
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	tags, widths = map[byte]int{}, map[byte]int{}
	off := 0
	for done := 0; done < n; done += blockSize {
		bn := min(blockSize, n-done)
		tag := body[off]
		tags[tag]++
		switch tag {
		case tagConstant:
			off += 9
		case tagLinear:
			off += 17
		case tagPacked:
			nb := body[off+9]
			widths[nb]++
			off += 10 + (bn*int(nb)+7)/8
		case tagRaw:
			off += 1 + 8*bn
		}
	}
	return tags, widths
}

// TestGoldenCoverage: the golden fields reach every block class and every
// packed width, so the digests above pin all of them.
func TestGoldenCoverage(t *testing.T) {
	data, dims := goldenComposite()
	stream, err := Compress(data, dims, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	tags, widths := blockCensus(t, stream)
	for _, tag := range []byte{tagConstant, tagLinear, tagPacked, tagRaw} {
		if tags[tag] == 0 {
			t.Errorf("no block with tag %d in the golden stream (census %v)", tag, tags)
		}
	}
	for w := byte(1); w <= maxPackedBits; w++ {
		if widths[w] == 0 {
			t.Errorf("no packed block of width %d in the golden stream (census %v)", w, widths)
		}
	}
}

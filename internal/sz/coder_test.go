package sz

import (
	"fmt"
	"testing"

	"ocelot/internal/ans"
	"ocelot/internal/datagen"
	"ocelot/internal/huffman"
)

// Context models of an internal/ans coded section: its first byte.
const (
	sectionDistance = 0
	sectionOrder0   = 1
	sectionOrder1   = 2
)

// coderSectionCase is one field whose coded section TestCoderSectionDigests
// pins, with the context model its section must pick.
type coderSectionCase struct {
	name  string
	data  []float64
	dims  []int
	cfg   Config
	model byte
}

// markovField is a 1-D field whose Lorenzo codes follow one another in a
// fixed cycle of 14 steps, all of them past the distance model's last
// bucket: the previous code's distance says nothing about the next one,
// the previous code itself says everything, so the coder picks order 1.
func markovField(n int, eb float64) []float64 {
	data := make([]float64, n)
	d := 0
	for i := 1; i < n; i++ {
		d = (d*8 + 5) % 21
		data[i] = data[i-1] + float64(20+d)*2*eb
	}
	return data
}

func coderSectionCases(tb testing.TB) []coderSectionCase {
	tb.Helper()
	gen := func(app, field string, shrink int) *datagen.Field {
		f, err := datagen.Generate(app, field, shrink, 7)
		if err != nil {
			tb.Fatal(err)
		}
		return f
	}
	tmq, density, vx := gen("CESM", "TMQ", 8), gen("Miranda", "density", 8), gen("HACC", "vx", 256)
	// The nop-sz3 benchmark's bound: a thousandth of each field's range.
	rel := DefaultConfig(1e-3)
	rel.BoundMode = BoundRelative
	lorenzo := DefaultConfig(1e-3)
	lorenzo.Predictor = PredictorLorenzo
	wideDims := []int{64, 96, 96}
	return []coderSectionCase{
		{"CESM/TMQ/8", tmq.Data, tmq.Dims, rel, sectionDistance},
		{"Miranda/density/8", density.Data, density.Dims, rel, sectionDistance},
		{"HACC/vx/256", vx.Data, vx.Dims, rel, sectionOrder0},
		{"odd", hotpathField(30001), []int{30001}, DefaultConfig(1e-3), sectionDistance},
		{"short", hotpathField(300), []int{300}, DefaultConfig(1e-3), sectionOrder0},
		{"order1", markovField(20000, 1e-3), []int{20000}, lorenzo, sectionOrder1},
		{"wide", kernelField(wideDims, kernelWide), wideDims, kernelConfig(InterpCubic, kernelWide), sectionDistance},
	}
}

// coderSectionDigests holds the FNV-64a digest of each case's version 2
// coded section, recorded before the coder's hot loops were split into
// leaf functions, and coderSectionDigestsV3 of its version 3 section,
// recorded when the 16-lane layout and its kernels came in: a change to
// internal/ans that is meant to be a speed-up only must leave every one
// of them as it is.
var coderSectionDigestsV3 = map[string]uint64{
	"CESM/TMQ/8":        0x5e621a1e4d23a05b,
	"Miranda/density/8": 0x94386d2de7bd248b,
	"HACC/vx/256":       0xab72be531ba8c73d,
	"odd":               0x9f180cc209bd88b9,
	"short":             0x156fa8b6d28fa734,
	"order1":            0xc8ef601d866804d6,
	"wide":              0x7b4af2eb029f2422,
}

var coderSectionDigests = map[string]uint64{
	"CESM/TMQ/8":        0xec5f704df8a909da,
	"Miranda/density/8": 0x5538a13738c26bce,
	"HACC/vx/256":       0x93c26c30bf5f9790,
	"odd":               0x3927e3f0f407d8e2,
	"short":             0x575c86c812517a84,
	"order1":            0xa7bdaa0adc78b43b,
	"wide":              0x144f76e54de8a9e9,
}

// TestCoderSectionDigests pins the bytes internal/ans writes, in both
// layouts, for sz3 fields of every rank, an odd code count (a lane's
// extra code), a stream short enough for order 0, one that picks order 1,
// and wide codes — each checked to take the model it is here to cover,
// and to decode back.
func TestCoderSectionDigests(t *testing.T) {
	for _, tc := range coderSectionCases(t) {
		for _, v := range []struct {
			version int
			digests map[string]uint64
		}{{ans.V2, coderSectionDigests}, {ans.V3, coderSectionDigestsV3}} {
			stream, _, err := compress(tc.data, tc.dims, tc.cfg, v.version)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if stream[4] != byte(v.version) {
				t.Fatalf("%s: stream version %d, want %d", tc.name, stream[4], v.version)
			}
			_, syms, inner := streamCodes(t, stream)
			sec := inner.codes
			if len(sec) == 0 || sec[0] != tc.model {
				t.Errorf("%s: section of %d bytes picks model %v, want %d", tc.name, len(sec), sec[:min(1, len(sec))], tc.model)
			}
			if wide := tc.cfg.Radius > 32767; wide != (len(syms.Wide) > 0) {
				t.Errorf("%s: %d wide codes at radius %d", tc.name, len(syms.Wide), tc.cfg.Radius)
			}
			got := fnvBytes(sec)
			if want, ok := v.digests[tc.name]; !ok {
				t.Errorf("no v%d digest recorded:\t%q: %#x,", v.version, tc.name, got)
			} else if got != want {
				t.Errorf("%s: v%d coded section digest %#x, want %#x (%d bytes)", tc.name, v.version, got, want, len(sec))
			}
			if _, _, err := Decompress(stream); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		}
	}
}

// BenchmarkEntropyCoder times the rANS coder alone, Encode and Decode in
// each layout, on the codes sz3 quantizes CESM/TMQ (2-D) and
// Miranda/density (3-D) to at the nop-sz3 benchmark's relative bound: at
// shrink 8, and at the benchmark's own shapes, CESM at shrink 2 and
// Miranda at shrink 4, seed 42. It reports ns/code and the section's
// bytes; version 2 runs through the version 2 writer, so its and version
// 3's ns/code sit side by side.
func BenchmarkEntropyCoder(b *testing.B) {
	cfg := DefaultConfig(1e-3)
	cfg.BoundMode = BoundRelative
	for _, tc := range []struct {
		app, field   string
		shrink, seed int
	}{{"CESM", "TMQ", 8, 7}, {"Miranda", "density", 8, 7}, {"CESM", "TMQ", 2, 42}, {"Miranda", "density", 4, 42}} {
		f, err := datagen.Generate(tc.app, tc.field, tc.shrink, int64(tc.seed))
		if err != nil {
			b.Fatal(err)
		}
		stream, _, err := Compress(f.Data, f.Dims, cfg)
		if err != nil {
			b.Fatal(err)
		}
		h, syms, _ := streamCodes(b, stream)
		n := syms.Len()
		var c ans.Coder
		perCode := func(b *testing.B, sec []byte) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/code")
			b.ReportMetric(float64(len(sec)), "section-bytes")
		}
		for _, version := range []int{ans.V2, ans.V3} {
			sec, _, wrote, err := c.Encode(nil, syms, h.radius, version)
			if err != nil || wrote != version {
				b.Fatalf("version %d: wrote %d: %v", version, wrote, err)
			}
			name := fmt.Sprintf("%s/%s/shrink=%d/seed=%d/v%d", tc.app, tc.field, tc.shrink, tc.seed, version)
			b.Run(name+"/encode", func(b *testing.B) {
				out := sec
				for i := 0; i < b.N; i++ {
					if out, _, _, err = c.Encode(out[:0], syms, h.radius, version); err != nil {
						b.Fatal(err)
					}
				}
				perCode(b, out)
			})
			b.Run(name+"/decode", func(b *testing.B) {
				var out huffman.SymbolStream
				for i := 0; i < b.N; i++ {
					if _, err := c.Decode(&out, sec, n, h.radius, version); err != nil {
						b.Fatal(err)
					}
				}
				perCode(b, sec)
			})
		}
	}
}

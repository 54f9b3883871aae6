package sz

import (
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

// coderSectionDigests holds the FNV-64a digest of each case's coded
// section, recorded before the coder's hot loops were split into leaf
// functions: a change to internal/ans that is meant to be a speed-up only
// must leave every one of them as it is.
var coderSectionDigests = map[string]uint64{
	"CESM/TMQ/8":        0xec5f704df8a909da,
	"Miranda/density/8": 0x5538a13738c26bce,
	"HACC/vx/256":       0x93c26c30bf5f9790,
	"odd":               0x3927e3f0f407d8e2,
	"short":             0x575c86c812517a84,
	"order1":            0xa7bdaa0adc78b43b,
	"wide":              0x144f76e54de8a9e9,
}

// TestCoderSectionDigests pins the bytes internal/ans writes for sz3
// fields of every rank, an odd code count (lane B's extra code), a stream
// short enough for order 0, one that picks order 1, and wide codes — each
// checked to take the model it is here to cover, and to decode back.
func TestCoderSectionDigests(t *testing.T) {
	for _, tc := range coderSectionCases(t) {
		stream, _, err := Compress(tc.data, tc.dims, tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
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
		if want, ok := coderSectionDigests[tc.name]; !ok {
			t.Errorf("no digest recorded:\t%q: %#x,", tc.name, got)
		} else if got != want {
			t.Errorf("%s: coded section digest %#x, want %#x (%d bytes)", tc.name, got, want, len(sec))
		}
		if _, _, err := Decompress(stream); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// BenchmarkEntropyCoder times the rANS coder alone, Encode and Decode, on
// the codes sz3 quantizes CESM/TMQ (2-D) and Miranda/density (3-D) to at
// the nop-sz3 benchmark's relative bound, and reports ns/code.
func BenchmarkEntropyCoder(b *testing.B) {
	cfg := DefaultConfig(1e-3)
	cfg.BoundMode = BoundRelative
	for _, tc := range []struct{ app, field string }{{"CESM", "TMQ"}, {"Miranda", "density"}} {
		f, err := datagen.Generate(tc.app, tc.field, 8, 7)
		if err != nil {
			b.Fatal(err)
		}
		stream, _, err := Compress(f.Data, f.Dims, cfg)
		if err != nil {
			b.Fatal(err)
		}
		h, syms, inner := streamCodes(b, stream)
		n := syms.Len()
		var c ans.Coder
		perCode := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/code")
		}
		b.Run(tc.app+"/"+tc.field+"/encode", func(b *testing.B) {
			var sec []byte
			for i := 0; i < b.N; i++ {
				if sec, _, err = c.Encode(sec[:0], syms, h.radius); err != nil {
					b.Fatal(err)
				}
			}
			perCode(b)
		})
		b.Run(tc.app+"/"+tc.field+"/decode", func(b *testing.B) {
			var out huffman.SymbolStream
			for i := 0; i < b.N; i++ {
				if _, err := c.Decode(&out, inner.codes, n, h.radius); err != nil {
					b.Fatal(err)
				}
			}
			perCode(b)
		})
	}
}

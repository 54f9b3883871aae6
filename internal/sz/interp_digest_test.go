package sz

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// kernelShapes are the extents the interp-kernel tests cross: every
// rank, odd and even sides, a degenerate middle axis, and two sizes big
// enough that the finest passes span many cache lines.
var kernelShapes = [][]int{
	{1000},
	{37, 53},
	{450, 900},
	{17, 33, 20},
	{5, 1, 64},
	{64, 96, 96},
	{3, 5, 7, 9},
}

// Variants of kernelField / kernelConfig.
const (
	kernelClean   = "clean"
	kernelEscapes = "escapes" // NaN/±Inf/outliers, many in passes over a non-last axis
	kernelWide    = "wide"    // Radius 65536: codes ≥ 0xFFFF ride the wide lane
)

// kernelField builds a deterministic field for dims: smooth in every
// coordinate plus a little LCG noise so the codes spread over many bins.
// The escapes variant plants non-finite values and outliers at ~1 % of the
// points and at (odd, 0, …, 0) — coordinates the multilevel traversal
// predicts in a pass over axis 0, i.e. one the kernels iterate out of
// stream order whenever the field has more than one axis.
func kernelField(dims []int, variant string) []float64 {
	n := 1
	for _, d := range dims {
		n *= d
	}
	data := make([]float64, n)
	coords := make([]int, len(dims))
	lcg := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return lcg >> 33
	}
	for i := range data {
		flatToCoords(i, dims, coords)
		v := 0.0
		for a, c := range coords {
			x := float64(c) / float64(dims[a])
			v += 12*math.Sin(float64(3+a)*x+float64(a)) + 5*x*x
		}
		data[i] = v + 0.02*(float64(next()%2001)-1000)/1000
	}
	if variant != kernelEscapes {
		return data
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e12, -3e9}
	for i := range data {
		if r := next(); r%97 == 0 {
			data[i] = specials[(r/97)%uint64(len(specials))]
		}
	}
	data[0] = math.NaN()
	for c, k := 1, 0; c < dims[0]; c, k = c+2, k+1 {
		data[c*(n/dims[0])] = specials[k%len(specials)]
	}
	return data
}

func kernelConfig(mode InterpMode, variant string) Config {
	cfg := DefaultConfig(1e-3)
	cfg.Interp = mode
	if variant == kernelWide {
		cfg.Radius = 65536
	}
	return cfg
}

func fnvBytes(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// interpStreamDigests holds {FNV-64a of the stream, fnvDigest of its
// reconstruction} for every cell of the kernel matrix, recorded from the
// generic point-at-a-time traversal before the row kernels replaced it
// (commit f87b989). The kernels iterate passes in a different order and
// must still produce these bytes.
var interpStreamDigests = map[string][2]uint64{
	"[1000]/cubic/clean":        {0x83deb3707441ee67, 0xbbe61717d1e67df9},
	"[1000]/cubic/escapes":      {0x678a13ea46bc2b15, 0x2edae60caf2ff4b3},
	"[1000]/cubic/wide":         {0xd3059cdae8f16e3f, 0xbbe61717d1e67df9},
	"[1000]/linear/clean":       {0xaf3c5dfa019a9cfa, 0xf11bed21371350fb},
	"[1000]/linear/escapes":     {0xb58a0bf8803e4935, 0x4f74b9b71bf9499},
	"[1000]/linear/wide":        {0x16005c5cb8cbb10d, 0xf11bed21371350fb},
	"[37 53]/cubic/clean":       {0xefaf830cbc4239f4, 0x84428dcd991dbf25},
	"[37 53]/cubic/escapes":     {0xe05840c5fd8ad1a, 0x7366cc3637170f36},
	"[37 53]/cubic/wide":        {0x79116bba8a95eba9, 0x84428dcd991dbf25},
	"[37 53]/linear/clean":      {0x60df12bfb43783a1, 0x5fe8723adc047063},
	"[37 53]/linear/escapes":    {0xa2bd3fbb40fe952a, 0x5936f6493f3bc02e},
	"[37 53]/linear/wide":       {0x2eb505182de32955, 0x5fe8723adc047063},
	"[450 900]/cubic/clean":     {0x2d1c610d8e3ecc40, 0xe85f68eba3eeb944},
	"[450 900]/cubic/escapes":   {0x9c58674cc0491c5, 0x8b324294aa79581d},
	"[450 900]/cubic/wide":      {0x1f424f0cc0ba3646, 0xe85f68eba3eeb944},
	"[450 900]/linear/clean":    {0x60a99aabee1afa3b, 0x9aa58204d3615e83},
	"[450 900]/linear/escapes":  {0x51ed35c04b62eb12, 0xda66e29fd4f412b9},
	"[450 900]/linear/wide":     {0x503a7651e76acd9f, 0x9aa58204d3615e83},
	"[17 33 20]/cubic/clean":    {0x64d79bbbc1cdf590, 0xb47b0d5084817cfd},
	"[17 33 20]/cubic/escapes":  {0xbbc4bdd1517f467c, 0x484405d5b9f415c9},
	"[17 33 20]/cubic/wide":     {0x17e887db7b38fa6b, 0xb47b0d5084817cfd},
	"[17 33 20]/linear/clean":   {0x305b923df1935d9d, 0x1f23289fcc47c01f},
	"[17 33 20]/linear/escapes": {0x7f6cf7d37093a23d, 0x18aeb8341563a846},
	"[17 33 20]/linear/wide":    {0x92947b7f18d4d774, 0x1f23289fcc47c01f},
	"[5 1 64]/cubic/clean":      {0x1add827619b33717, 0xaf12d252b6c10646},
	"[5 1 64]/cubic/escapes":    {0x666d371b10bf1fd5, 0x4527b04eae9706db},
	"[5 1 64]/cubic/wide":       {0x770440e0bb7b005, 0xaf12d252b6c10646},
	"[5 1 64]/linear/clean":     {0x23f85d8de001cfed, 0xee127583c40867bc},
	"[5 1 64]/linear/escapes":   {0xa522391a1a39222a, 0x120f1ab92b2fd119},
	"[5 1 64]/linear/wide":      {0x889ac50c78d3a1d8, 0xee127583c40867bc},
	"[64 96 96]/cubic/clean":    {0xa2b7fa4db25c84ab, 0x296521bd736bd042},
	"[64 96 96]/cubic/escapes":  {0xe72d4a9c27b261e3, 0x100e29073f722037},
	"[64 96 96]/cubic/wide":     {0x9f8d65d200f4cc64, 0x296521bd736bd042},
	"[64 96 96]/linear/clean":   {0x5669c844ff1a4785, 0x9ca88630b805ccac},
	"[64 96 96]/linear/escapes": {0xbd5ba306cf25039f, 0x86481f17a414b552},
	"[64 96 96]/linear/wide":    {0x699a10380d82cdf, 0x9ca88630b805ccac},
	"[3 5 7 9]/cubic/clean":     {0x77fe95a80c4ad0b8, 0x5e776406c279885c},
	"[3 5 7 9]/cubic/escapes":   {0xadfcf63f2fffa2a4, 0x70c921bdb397a053},
	"[3 5 7 9]/cubic/wide":      {0xaa4f2b99a0d6d800, 0x5e776406c279885c},
	"[3 5 7 9]/linear/clean":    {0xa4ad18176378402e, 0x8733c0c61bc114b8},
	"[3 5 7 9]/linear/escapes":  {0x55bd0bd3c1dd5b6a, 0x9c89ac39ad056c47},
	"[3 5 7 9]/linear/wide":     {0x15d60d121e617d11, 0x8733c0c61bc114b8},
}

func TestInterpStreamDigests(t *testing.T) {
	for _, dims := range kernelShapes {
		for _, mode := range []InterpMode{InterpCubic, InterpLinear} {
			for _, variant := range []string{kernelClean, kernelEscapes, kernelWide} {
				key := fmt.Sprintf("%v/%v/%s", dims, mode, variant)
				data := kernelField(dims, variant)
				stream, st, err := Compress(data, dims, kernelConfig(mode, variant))
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				recon, _, err := Decompress(stream)
				if err != nil {
					t.Fatalf("%s: decompress: %v", key, err)
				}
				if variant == kernelEscapes && st.NumEscapes < dims[0]/2 {
					t.Fatalf("%s: only %d escapes, the variant is not exercising the literal lane", key, st.NumEscapes)
				}
				got := [2]uint64{fnvBytes(stream), fnvDigest(recon)}
				want, ok := interpStreamDigests[key]
				if !ok {
					t.Errorf("no digest recorded:\t%q: {%#x, %#x},", key, got[0], got[1])
				} else if got != want {
					t.Errorf("%s: stream/recon digests %#x, want %#x", key, got, want)
				}
			}
		}
	}
}

package sz

import (
	"math"
	"testing"
)

// The relative→absolute bound resolution is shared between Compress and
// SampledCodes; these are the regressions for the constant-field skew
// where the feature pass once quantized at a different bound than the
// real compression run.
func TestAbsoluteBoundResolution(t *testing.T) {
	rel := Config{ErrorBound: 1e-3, BoundMode: BoundRelative}
	cases := []struct {
		name string
		data []float64
		want float64
	}{
		{"ranged", []float64{0, 2, 10}, 1e-3 * 10},
		{"constant", []float64{5, 5, 5, 5}, 1e-3}, // range falls back to 1
		{"single", []float64{3}, 1e-3},
		{"nan", []float64{math.NaN(), 1, 2}, 1e-3},
		{"inf", []float64{math.Inf(-1), 0, 1}, 1e-3},
	}
	for _, c := range cases {
		if got := rel.AbsoluteBound(c.data); got != c.want {
			t.Errorf("%s: AbsoluteBound = %g, want %g", c.name, got, c.want)
		}
	}
	abs := Config{ErrorBound: 0.25, BoundMode: BoundAbsolute}
	if got := abs.AbsoluteBound([]float64{0, 100}); got != 0.25 {
		t.Errorf("absolute mode: AbsoluteBound = %g, want 0.25", got)
	}
}

// A NaN is skipped wherever it sits. Seeding the range scan with data[0]
// once made a leading NaN poison the range, so the bound fell back to
// range 1: a thousand times too loose on this field, and only while the
// NaN came first.
func TestAbsoluteBoundSkipsNaNAnywhere(t *testing.T) {
	rel := Config{ErrorBound: 1e-3, BoundMode: BoundRelative}
	finite := []float64{0, 1e-6, 5e-7, 2.5e-7}
	want := 1e-3 * 1e-6
	for pos := 0; pos <= len(finite); pos++ {
		data := append(append(append([]float64(nil), finite[:pos]...), math.NaN()), finite[pos:]...)
		if got := rel.AbsoluteBound(data); got != want {
			t.Errorf("NaN at %d: AbsoluteBound = %g, want %g", pos, got, want)
		}
	}
	if got := rel.AbsoluteBound([]float64{math.NaN(), math.NaN()}); got != 1e-3 {
		t.Errorf("all-NaN: AbsoluteBound = %g, want the range-1 fallback 1e-3", got)
	}
}

// On a constant field, the sampling pass must quantize at exactly the
// bound the real run uses: the relative config and its resolved absolute
// equivalent must produce identical codes.
func TestSampledCodesMatchesCompressBoundOnConstantField(t *testing.T) {
	data := make([]float64, 64)
	for i := range data {
		data[i] = 42.0
	}
	dims := []int{8, 8}
	rel := DefaultConfig(1e-3)
	rel.BoundMode = BoundRelative

	resolved := DefaultConfig(rel.AbsoluteBound(data)) // BoundAbsolute
	relCodes, err := SampledCodes(data, dims, rel, 1)
	if err != nil {
		t.Fatal(err)
	}
	absCodes, err := SampledCodes(data, dims, resolved, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(relCodes) != len(absCodes) {
		t.Fatalf("code count %d != %d", len(relCodes), len(absCodes))
	}
	for i := range relCodes {
		if relCodes[i] != absCodes[i] {
			t.Fatalf("code %d: relative-bound pass %d != resolved-bound pass %d", i, relCodes[i], absCodes[i])
		}
	}

	// And the real run honours the same resolved bound.
	stream, _, err := Compress(data, dims, rel)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Decompress(stream)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if math.Abs(v-data[i]) > rel.AbsoluteBound(data) {
			t.Fatalf("point %d: error %g exceeds resolved bound %g", i, math.Abs(v-data[i]), rel.AbsoluteBound(data))
		}
	}
}

// A non-finite bound must be rejected up front: quantizing under +Inf
// "succeeds" and emits a stream no decoder can read back, and NaN slips
// past a plain ≤ 0 check.
func TestCompressRejectsNonFiniteBound(t *testing.T) {
	data := []float64{0, 1, 2, 3}
	for _, eb := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, -1} {
		if _, _, err := Compress(data, []int{4}, DefaultConfig(eb)); err == nil {
			t.Errorf("Compress accepted error bound %g", eb)
		}
	}
}

package quant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroResidual(t *testing.T) {
	q := New(0.01, 512)
	code, rec, ok := q.Quantize(5.0, 5.0)
	if !ok {
		t.Fatal("zero residual should quantize")
	}
	if code != q.ZeroCode() {
		t.Fatalf("code = %d want %d", code, q.ZeroCode())
	}
	if rec != 5.0 {
		t.Fatalf("rec = %v want 5.0", rec)
	}
}

func TestErrorBoundRespected(t *testing.T) {
	q := New(0.1, 512)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		val := rng.NormFloat64() * 10
		pred := val + rng.NormFloat64()*5
		code, rec, ok := q.Quantize(val, pred)
		if !ok {
			continue
		}
		if code == EscapeCode {
			t.Fatalf("ok=true but code is escape")
		}
		if math.Abs(rec-val) > q.ErrorBound()+1e-15 {
			t.Fatalf("error %g exceeds bound %g", math.Abs(rec-val), q.ErrorBound())
		}
		// Recover from code must equal the returned reconstruction.
		if got := q.Recover(pred, code); got != rec {
			t.Fatalf("Recover mismatch: %v vs %v", got, rec)
		}
	}
}

func TestEscapeOnLargeResidual(t *testing.T) {
	q := New(1e-6, 64)
	_, rec, ok := q.Quantize(1000.0, 0.0)
	if ok {
		t.Fatal("huge residual must escape")
	}
	if rec != 1000.0 {
		t.Fatalf("escape must return original value, got %v", rec)
	}
}

func TestNaNAndInf(t *testing.T) {
	q := New(0.1, 64)
	if _, _, ok := q.Quantize(math.NaN(), 0); ok {
		t.Fatal("NaN must escape")
	}
	if _, _, ok := q.Quantize(math.Inf(1), 0); ok {
		t.Fatal("+Inf must escape")
	}
	if _, _, ok := q.Quantize(0, math.Inf(-1)); ok {
		t.Fatal("-Inf prediction must escape")
	}
}

func TestDefaultRadius(t *testing.T) {
	q := New(0.5, 0)
	if q.Radius() != DefaultRadius {
		t.Fatalf("radius = %d want %d", q.Radius(), DefaultRadius)
	}
	if q.AlphabetSize() != 2*DefaultRadius {
		t.Fatalf("alphabet = %d", q.AlphabetSize())
	}
}

func TestCodeNeverEscapeWhenOK(t *testing.T) {
	// Residual exactly at -radius+1 boundary should produce code 1, never 0.
	q := New(0.5, 4)
	val, pred := 0.0, 3.0 // diff=-3, bin=-3, code=1
	code, _, ok := q.Quantize(val, pred)
	if !ok || code != 1 {
		t.Fatalf("code=%d ok=%v, want code=1 ok=true", code, ok)
	}
	// diff=-4 → bin=-4 = -radius → escape.
	if _, _, ok := q.Quantize(0.0, 4.0); ok {
		t.Fatal("bin at -radius must escape")
	}
}

// Property: quantize/recover never exceeds the bound for any finite inputs.
func TestQuantizeRecoverQuick(t *testing.T) {
	q := New(0.25, 1024)
	f := func(val, pred float64) bool {
		if math.IsNaN(val) || math.IsInf(val, 0) || math.IsNaN(pred) || math.IsInf(pred, 0) {
			return true
		}
		// Keep magnitudes sane to avoid float64 precision artifacts dominating.
		val = math.Mod(val, 1e6)
		pred = math.Mod(pred, 1e6)
		code, rec, ok := q.Quantize(val, pred)
		if !ok {
			return rec == val
		}
		return code > 0 && code < q.AlphabetSize() &&
			math.Abs(rec-val) <= q.ErrorBound()+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkQuantize(b *testing.B) {
	q := New(0.01, DefaultRadius)
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 4096)
	preds := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.NormFloat64()
		preds[i] = vals[i] + rng.NormFloat64()*0.05
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & 4095
		q.Quantize(vals[j], preds[j])
	}
}

// TestRoundMatchesMathRound pins Round to int(math.Round(d)) where the two
// could part: at every half-integer up to the widest default alphabet, one
// ulp to either side of it, and on random residuals across magnitudes.
func TestRoundMatchesMathRound(t *testing.T) {
	check := func(d float64) {
		t.Helper()
		if got, want := Round(d), int(math.Round(d)); got != want {
			t.Fatalf("Round(%v) = %d, math.Round gives %d", d, got, want)
		}
	}
	for k := -65536; k <= 65536; k++ {
		for _, half := range []float64{float64(k) - 0.5, float64(k) + 0.5} {
			check(half)
			check(math.Nextafter(half, math.Inf(-1)))
			check(math.Nextafter(half, math.Inf(1)))
		}
	}
	rng := rand.New(rand.NewSource(9))
	for _, scale := range []float64{1e-3, 1, 300, 65536, 1 << 23} {
		for i := 0; i < 200000; i++ {
			check(rng.NormFloat64() * scale)
		}
	}
}

// legacyQuantize is Quantize as it stood before the range test absorbed
// the NaN/Inf checks and Round replaced math.Round.
func legacyQuantize(q *Quantizer, value, pred float64) (int, float64, bool) {
	diff := value - pred
	if math.IsNaN(diff) || math.IsInf(diff, 0) {
		return EscapeCode, value, false
	}
	d := diff / q.eb2
	if d >= q.radF || d <= -q.radF {
		return EscapeCode, value, false
	}
	bin := int(math.Round(d))
	if bin >= q.radius || bin <= -q.radius {
		return EscapeCode, value, false
	}
	rec := pred + float64(bin)*q.eb2
	if math.Abs(rec-value) > q.eb {
		return EscapeCode, value, false
	}
	code := bin + q.radius
	if code == EscapeCode {
		return EscapeCode, value, false
	}
	return code, rec, true
}

func TestQuantizeMatchesLegacy(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	rng := rand.New(rand.NewSource(11))
	for _, q := range []*Quantizer{New(1e-3, 0), New(0.5, 64), New(1e-300, 65536), New(1e300, 2)} {
		same := func(value, pred float64) {
			t.Helper()
			c1, r1, ok1 := q.Quantize(value, pred)
			c2, r2, ok2 := legacyQuantize(q, value, pred)
			if c1 != c2 || ok1 != ok2 || math.Float64bits(r1) != math.Float64bits(r2) {
				t.Fatalf("eb %g radius %d: Quantize(%v, %v) = (%d, %v, %v), legacy (%d, %v, %v)",
					q.eb, q.radius, value, pred, c1, r1, ok1, c2, r2, ok2)
			}
		}
		for _, v := range specials {
			for _, p := range specials {
				same(v, p)
			}
		}
		for i := 0; i < 200000; i++ {
			pred := rng.NormFloat64() * 50
			// Residuals from deep inside the zero bin to past the radius,
			// plus exact bin edges.
			same(pred+rng.NormFloat64()*q.eb*math.Pow(10, float64(rng.Intn(8))-1), pred)
			same(pred+(float64(rng.Intn(2*q.radius+3)-q.radius-1)+0.5)*q.eb2, pred)
		}
	}
}

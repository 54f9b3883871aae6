package metrics

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestComputeRange(t *testing.T) {
	st := ComputeRange([]float64{3, -1, 4, 1, 5, -9, 2, 6})
	if st.Min != -9 || st.Max != 6 || st.Range != 15 {
		t.Fatalf("got %+v", st)
	}
	if math.Abs(st.Mean-1.375) > 1e-12 {
		t.Fatalf("mean = %v", st.Mean)
	}
}

func TestComputeRangeEdge(t *testing.T) {
	if st := ComputeRange(nil); st.Range != 0 {
		t.Fatal("empty input should be zero stats")
	}
	st := ComputeRange([]float64{math.NaN(), 2, math.NaN(), 4})
	if st.Min != 2 || st.Max != 4 {
		t.Fatalf("NaN skipping broken: %+v", st)
	}
	one := ComputeRange([]float64{7})
	if one.Min != 7 || one.Max != 7 || one.Range != 0 || one.Std != 0 {
		t.Fatalf("single value stats: %+v", one)
	}
}

// TestValueRangeMatchesComputeRange: the min/max-only scan must report the
// very bits ComputeRange does, on every input class a campaign can meet —
// relative bounds and PSNR are resolved from it.
func TestValueRangeMatchesComputeRange(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := [][]float64{
		nil, {}, {7}, {nan}, {nan, nan}, {nan, 2, nan, 4}, {4, nan, -2},
		{inf}, {-inf}, {inf, inf}, {-inf, -inf}, {-inf, 3, inf}, {nan, inf, 1},
		{3, -1, 4, 1, 5, -9, 2, 6}, {0, math.Copysign(0, -1)},
		{math.MaxFloat64, -math.MaxFloat64}, {1e-320, 3e-320},
	}
	for _, data := range cases {
		got, want := ValueRange(data), ComputeRange(data).Range
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("ValueRange(%v) = %v, ComputeRange gives %v", data, got, want)
		}
	}
	same := func(data []float64) bool {
		return math.Float64bits(ValueRange(data)) == math.Float64bits(ComputeRange(data).Range)
	}
	if err := quick.Check(same, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMSEAndRMSE(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	b := []float64{1, 2, 3, 6}
	m, err := MSE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m != 1.0 {
		t.Fatalf("MSE = %v want 1", m)
	}
	r, err := RMSE(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1.0 {
		t.Fatalf("RMSE = %v want 1", r)
	}
	if _, err := MSE(a, b[:2]); err != ErrLengthMismatch {
		t.Fatal("want ErrLengthMismatch")
	}
}

func TestPSNR(t *testing.T) {
	orig := make([]float64, 1000)
	rec := make([]float64, 1000)
	for i := range orig {
		orig[i] = math.Sin(float64(i) / 50)
		rec[i] = orig[i] + 1e-4
	}
	p, err := PSNR(orig, rec)
	if err != nil {
		t.Fatal(err)
	}
	// range ≈ 2, mse = 1e-8 → PSNR = 20log10(2) + 80 ≈ 86 dB.
	if p < 80 || p > 92 {
		t.Fatalf("PSNR = %v, want ~86", p)
	}
	// Perfect reconstruction → +Inf.
	pi, err := PSNR(orig, orig)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(pi, 1) {
		t.Fatalf("perfect PSNR = %v", pi)
	}
}

func TestPSNRMonotoneInError(t *testing.T) {
	orig := make([]float64, 500)
	for i := range orig {
		orig[i] = float64(i % 37)
	}
	var prev = math.Inf(1)
	for _, noise := range []float64{1e-6, 1e-4, 1e-2, 1} {
		rec := make([]float64, len(orig))
		for i := range rec {
			rec[i] = orig[i] + noise
		}
		p, err := PSNR(orig, rec)
		if err != nil {
			t.Fatal(err)
		}
		if p >= prev {
			t.Fatalf("PSNR must fall as error grows: %v !< %v", p, prev)
		}
		prev = p
	}
}

func TestMaxAbsError(t *testing.T) {
	m, err := MaxAbsError([]float64{1, 2, 3}, []float64{1.5, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if m != 1.0 {
		t.Fatalf("max = %v", m)
	}
	if _, err := MaxAbsError([]float64{1}, []float64{}); err == nil {
		t.Fatal("want mismatch error")
	}
}

func TestByteEntropy(t *testing.T) {
	// Constant data has low byte entropy; random data is near 8 bits/byte
	// in the mantissa but constant in exponent, so between the two.
	constant := make([]float64, 4096)
	for i := range constant {
		constant[i] = 1.0
	}
	ce := ByteEntropy(constant, 4)
	if ce > 1.5 {
		t.Fatalf("constant entropy = %v", ce)
	}
	varied := make([]float64, 4096)
	for i := range varied {
		varied[i] = float64(i)*0.7183 + math.Sin(float64(i))
	}
	ve := ByteEntropy(varied, 4)
	if ve <= ce {
		t.Fatalf("varied entropy %v should exceed constant %v", ve, ce)
	}
	if e := ByteEntropy(nil, 4); e != 0 {
		t.Fatalf("empty entropy = %v", e)
	}
	// 8-byte view also works and differs from the 4-byte view.
	if e8 := ByteEntropy(varied, 8); e8 <= 0 {
		t.Fatalf("8-byte entropy = %v", e8)
	}
}

func TestSymbolEntropy(t *testing.T) {
	if e := SymbolEntropy(nil); e != 0 {
		t.Fatal("empty symbol entropy")
	}
	uniform := []int{0, 1, 2, 3, 0, 1, 2, 3}
	if e := SymbolEntropy(uniform); math.Abs(e-2) > 1e-12 {
		t.Fatalf("uniform-4 entropy = %v want 2", e)
	}
	constant := []int{5, 5, 5, 5}
	if e := SymbolEntropy(constant); e != 0 {
		t.Fatalf("constant entropy = %v", e)
	}
}

func TestCompressionRatio(t *testing.T) {
	if r := CompressionRatio(100, 10); r != 10 {
		t.Fatalf("ratio = %v", r)
	}
	if r := CompressionRatio(100, 0); r != 0 {
		t.Fatalf("zero divisor ratio = %v", r)
	}
}

// Property: PSNR is symmetric under adding the same offset to both inputs.
func TestPSNRShiftInvariantQuick(t *testing.T) {
	f := func(offset float64) bool {
		if math.IsNaN(offset) || math.IsInf(offset, 0) || math.Abs(offset) > 1e6 {
			return true
		}
		orig := []float64{1, 2, 3, 4, 5, 6, 7, 8}
		rec := []float64{1.01, 2, 3.01, 4, 5.01, 6, 7.01, 8}
		p1, err1 := PSNR(orig, rec)
		o2 := make([]float64, len(orig))
		r2 := make([]float64, len(rec))
		for i := range orig {
			o2[i] = orig[i] + offset
			r2[i] = rec[i] + offset
		}
		p2, err2 := PSNR(o2, r2)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(p1-p2) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAuditTilesMatchWholeField: however a reconstruction is cut into
// tiles, Audit reports MaxAbsErrorSampled and PSNR of the whole field bit
// for bit, for full and strided audits (the final point included), NaN
// differences and all.
func TestAuditTilesMatchWholeField(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(200)
		orig, recon := make([]float64, n), make([]float64, n)
		for i := range orig {
			orig[i] = rng.NormFloat64() * 100
			recon[i] = orig[i] + rng.NormFloat64()*1e-3
			if rng.Intn(50) == 0 {
				recon[i] = math.NaN()
			}
		}
		stride := []int{0, 1, 7, 64}[trial%4]
		wantMax, err := MaxAbsErrorSampled(orig, recon, stride)
		if err != nil {
			t.Fatal(err)
		}
		wantPSNR, err := PSNR(orig, recon)
		if err != nil {
			t.Fatal(err)
		}
		a := NewAudit(orig, stride, true)
		for start := 0; start < n; {
			k := min(n-start, rng.Intn(20))
			if err := a.Add(start, recon[start:start+k]); err != nil {
				t.Fatal(err)
			}
			start += k
		}
		gotMax, err := a.MaxAbsError()
		if err != nil {
			t.Fatal(err)
		}
		gotPSNR, err := a.PSNR()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(gotMax) != math.Float64bits(wantMax) || math.Float64bits(gotPSNR) != math.Float64bits(wantPSNR) {
			t.Fatalf("trial %d (n=%d, stride %d): audit max %v psnr %v, whole field %v %v",
				trial, n, stride, gotMax, gotPSNR, wantMax, wantPSNR)
		}
	}
}

// TestAuditRejectsMisfits: a tile past the end, out of order, or a short
// total is a length mismatch, never a panic or a partial answer.
func TestAuditRejectsMisfits(t *testing.T) {
	orig := []float64{1, 2, 3, 4, 5}
	a := NewAudit(orig, 2, true)
	if err := a.Add(1, []float64{2}); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("out-of-order tile: %v", err)
	}
	if err := a.Add(0, make([]float64, 6)); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("tile past the end: %v", err)
	}
	if err := a.Add(0, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.MaxAbsError(); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("short total, MaxAbsError: %v", err)
	}
	if _, err := a.PSNR(); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("short total, PSNR: %v", err)
	}
	if err := a.Add(3, []float64{4, 5, 6}); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("final tile past the end: %v", err)
	}
	if err := a.Add(3, []float64{4, 6}); err != nil {
		t.Fatal(err)
	}
	if m, err := a.MaxAbsError(); err != nil || m != 1 {
		t.Errorf("MaxAbsError = %v, %v; want the final point's error 1", m, err)
	}
}

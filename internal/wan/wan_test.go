package wan

import (
	"math"
	"testing"
)

func coriBebop() *Link {
	return StandardLinks()["Bebop->Cori"]
}

func TestValidate(t *testing.T) {
	bad := []Link{
		{BandwidthMBps: 0, Concurrency: 1},
		{BandwidthMBps: 100, Concurrency: 0},
		{BandwidthMBps: 100, Concurrency: 1, PerFileOverheadSec: -1},
	}
	for i, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
	if err := coriBebop().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestTableIIEstimatesPinned pins Estimate's seconds, exactly, for Table
// II's four 300 GB inventories on the calibrated Bebop->Cori link and on a
// jittered copy of it, whose unequal per-file costs exercise the
// makespan's tie-breaking: the scheduler may change shape, never these
// numbers.
func TestTableIIEstimatesPinned(t *testing.T) {
	std := coriBebop()
	jit := *std
	jit.JitterFrac = 0.25
	cases := []struct {
		link   *Link
		fileMB int64
		want   float64
	}{
		{std, 1, 1055.609417143227},
		{std, 10, 364.4094171428734},
		{std, 100, 295.28941714285617},
		{std, 1000, 292.883314285714},
		{&jit, 1, 1061.7629667686574},
		{&jit, 10, 370.40436125279706},
		{&jit, 100, 300.884184187523},
		{&jit, 1000, 293.5477081922855},
	}
	for _, c := range cases {
		sizes := make([]int64, (int64(300)<<30)/(c.fileMB<<20))
		for i := range sizes {
			sizes[i] = c.fileMB << 20
		}
		tr, err := c.link.Estimate(sizes, 7)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Seconds != c.want {
			t.Errorf("jitter %v, %d MB files: %v s, want %v", c.link.JitterFrac, c.fileMB, tr.Seconds, c.want)
		}
	}
}

// Regression: JitterFrac ≥ 1 could draw a zero or negative per-file
// bandwidth in Estimate/Transfer and produce infinite or negative costs;
// such links must fail validation up front.
func TestValidateRejectsDegenerateJitter(t *testing.T) {
	for _, jf := range []float64{-0.1, 1.0, 1.5, math.Inf(1)} {
		l := &Link{BandwidthMBps: 1000, Concurrency: 4, JitterFrac: jf}
		if err := l.Validate(); err == nil {
			t.Errorf("JitterFrac=%g: want validation error", jf)
		}
		if _, err := l.Estimate([]int64{1 << 20}, 1); err == nil {
			t.Errorf("JitterFrac=%g: Estimate accepted a degenerate link", jf)
		}
	}
	for _, jf := range []float64{0, 0.5, 0.99} {
		l := &Link{BandwidthMBps: 1000, Concurrency: 4, JitterFrac: jf}
		if err := l.Validate(); err != nil {
			t.Errorf("JitterFrac=%g: unexpected error %v", jf, err)
		}
		res, err := l.Estimate([]int64{1 << 20, 1 << 22}, 7)
		if err != nil {
			t.Fatalf("JitterFrac=%g: %v", jf, err)
		}
		if res.Seconds <= 0 {
			t.Errorf("JitterFrac=%g: non-positive transfer seconds %g", jf, res.Seconds)
		}
	}
}

func TestEstimateEmpty(t *testing.T) {
	res, err := coriBebop().Estimate(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds != 0 || res.Files != 0 {
		t.Fatalf("empty result %+v", res)
	}
}

func TestEstimateNegativeSize(t *testing.T) {
	if _, err := coriBebop().Estimate([]int64{-5}, 1); err == nil {
		t.Fatal("want error for negative size")
	}
}

// TestTableIIShape reproduces the paper's Table II: same 300GB payload,
// file counts 300000/30000/3000/300 — effective speed must rise steeply as
// files get bigger, then flatten near the link bandwidth.
func TestTableIIShape(t *testing.T) {
	l := coriBebop()
	const totalGB = 300
	cases := []struct {
		fileMB int64
		files  int
	}{
		{1, 300000},
		{10, 30000},
		{100, 3000},
		{1000, 300},
	}
	speeds := make([]float64, len(cases))
	for i, c := range cases {
		sizes := make([]int64, c.files)
		for j := range sizes {
			sizes[j] = c.fileMB * 1e6
		}
		res, err := l.Estimate(sizes, 42)
		if err != nil {
			t.Fatal(err)
		}
		speeds[i] = res.EffectiveMBps
		t.Logf("%5dMB x %6d files: %7.1f MB/s in %7.1fs", c.fileMB, c.files, res.EffectiveMBps, res.Seconds)
	}
	// Monotone improvement from 1MB to 100MB files.
	if !(speeds[0] < speeds[1] && speeds[1] < speeds[2]) {
		t.Fatalf("speeds not increasing: %v", speeds)
	}
	// Small files should be several times slower than large ones (paper: 247
	// vs ~1100 MB/s).
	if speeds[2]/speeds[0] < 2.5 {
		t.Fatalf("small-file penalty too weak: %v", speeds)
	}
	// Large-file speed approaches the link bandwidth.
	if speeds[3] < 0.85*l.BandwidthMBps {
		t.Fatalf("large files should near bandwidth: %.0f of %.0f", speeds[3], l.BandwidthMBps)
	}
}

func TestMakespanMonotoneInBytes(t *testing.T) {
	l := coriBebop()
	small, err := l.Estimate([]int64{1e9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	large, err := l.Estimate([]int64{2e9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if large.Seconds <= small.Seconds {
		t.Fatalf("2GB (%v) should take longer than 1GB (%v)", large.Seconds, small.Seconds)
	}
}

func TestConcurrencyHelps(t *testing.T) {
	many := &Link{Name: "x", BandwidthMBps: 1000, PerFileOverheadSec: 0.1, Concurrency: 16}
	one := &Link{Name: "x", BandwidthMBps: 1000, PerFileOverheadSec: 0.1, Concurrency: 1}
	sizes := make([]int64, 1000)
	for i := range sizes {
		sizes[i] = 1e6
	}
	rMany, err := many.Estimate(sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	rOne, err := one.Estimate(sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	// With per-file overhead dominating, concurrency amortizes it.
	if rMany.Seconds >= rOne.Seconds {
		t.Fatalf("concurrency should reduce makespan: %v vs %v", rMany.Seconds, rOne.Seconds)
	}
}

func TestStandardLinksComplete(t *testing.T) {
	links := StandardLinks()
	for _, name := range []string{"Anvil->Cori", "Anvil->Bebop", "Bebop->Cori", "Cori->Bebop"} {
		l, ok := links[name]
		if !ok {
			t.Fatalf("missing link %s", name)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// Anvil->Cori is the fast path in the paper (3.6+ GB/s).
	if links["Anvil->Cori"].BandwidthMBps < 2*links["Anvil->Bebop"].BandwidthMBps {
		t.Error("Anvil->Cori should be much faster than Anvil->Bebop")
	}
}

func TestJitterDeterministic(t *testing.T) {
	l := &Link{Name: "j", BandwidthMBps: 1000, PerFileOverheadSec: 0.01, Concurrency: 4, JitterFrac: 0.2}
	sizes := []int64{1e8, 2e8, 3e8}
	a, err := l.Estimate(sizes, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.Estimate(sizes, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds != b.Seconds {
		t.Fatal("same seed must give same result")
	}
	c, err := l.Estimate(sizes, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.Seconds == a.Seconds {
		t.Fatal("different seed should change jitter")
	}
}

func BenchmarkEstimate(b *testing.B) {
	l := coriBebop()
	sizes := make([]int64, 7182)
	for i := range sizes {
		sizes[i] = 224e6
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Estimate(sizes, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

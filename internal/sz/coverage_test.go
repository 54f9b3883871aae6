package sz

import (
	"testing"

	"ocelot/internal/datagen"
	"ocelot/internal/simd"
)

// TestKernelCoverage pins the share of the work the AVX2 kernels take
// from their Go loops on two fixed fields at a relative bound of 1e-4: a
// 900×1800 CESM field and a 128×192×192 Miranda field, the shapes the
// interp kernels were measured on (99.4 % and 97.2 % of the points coded,
// and of those decoded), and the share of the codes the version 3 rANS
// kernels encode and decode (99 % or more). A change that keeps every
// byte but sends work back to a generic loop — a narrower vectorizes, a
// slack rule that stops a kernel early — fails here rather than only in a
// timing.
func TestKernelCoverage(t *testing.T) {
	if !simd.HasKernels() {
		t.Skip("the AVX2 kernels do not run in this build or on this CPU (purego tag, not amd64, or no AVX2): nothing to count")
	}
	cfg := DefaultConfig(1e-4)
	cfg.BoundMode = BoundRelative
	for _, tc := range []struct {
		app, field  string
		interp, ans float64
		wantDims    []int
	}{
		{"CESM", "TMQ", 0.994, 0.99, []int{900, 1800}},
		{"Miranda", "density", 0.972, 0.99, []int{128, 192, 192}},
	} {
		f, err := datagen.Generate(tc.app, tc.field, 2, 42)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Dims) != len(tc.wantDims) || f.Dims[0] != tc.wantDims[0] {
			t.Fatalf("%s/%s: dims %v, want %v", tc.app, tc.field, f.Dims, tc.wantDims)
		}
		var counts simd.KernelCounts
		simd.Counting.Store(&counts)
		stream, _, err := Compress(f.Data, f.Dims, cfg)
		if err == nil {
			_, _, err = Decompress(stream)
		}
		simd.Counting.Store(nil)
		if err != nil {
			t.Fatal(err)
		}
		n := float64(len(f.Data))
		for _, c := range []struct {
			what        string
			took, floor float64
		}{
			{"interp encode", float64(counts.InterpEncode.Load()), tc.interp},
			{"interp decode", float64(counts.InterpDecode.Load()), tc.interp},
			{"rANS encode", float64(counts.RANSEncode.Load()), tc.ans},
			{"rANS decode", float64(counts.RANSDecode.Load()), tc.ans},
		} {
			t.Logf("%s/%s: %s kernel took %.2f %%", tc.app, tc.field, c.what, 100*c.took/n)
			if c.took < c.floor*n {
				t.Errorf("%s/%s: the %s kernel took %.2f %% of the values, below its floor of %.1f %%",
					tc.app, tc.field, c.what, 100*c.took/n, 100*c.floor)
			}
		}
	}
}

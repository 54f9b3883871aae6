package datagen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"

	"ocelot/internal/metrics"
)

func TestAppsAndFields(t *testing.T) {
	apps := Apps()
	if len(apps) != 7 {
		t.Fatalf("want 7 applications, got %d: %v", len(apps), apps)
	}
	for _, app := range apps {
		fields := Fields(app)
		if len(fields) == 0 {
			t.Errorf("%s: no fields", app)
		}
	}
	if Fields("nope") != nil {
		t.Error("unknown app must return nil fields")
	}
}

func TestGenerateEveryApp(t *testing.T) {
	for _, app := range Apps() {
		fields, err := GenerateFirst(app, 0, 16, 1)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		for _, f := range fields {
			if f.NumPoints() == 0 {
				t.Errorf("%s/%s: empty", app, f.Name)
			}
			n := 1
			for _, d := range f.Dims {
				n *= d
			}
			if n != f.NumPoints() {
				t.Errorf("%s/%s: dims %v product != %d", app, f.Name, f.Dims, f.NumPoints())
			}
			if f.RawBytes() != 4*f.NumPoints() {
				t.Errorf("%s/%s: raw bytes %d", app, f.Name, f.RawBytes())
			}
			for i, v := range f.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s/%s: bad value at %d: %v", app, f.Name, i, v)
				}
			}
		}
	}
}

func TestDeterministic(t *testing.T) {
	a, err := Generate("CESM", "CLDHGH", 20, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("CESM", "CLDHGH", 20, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("not deterministic at %d", i)
		}
	}
	c, err := Generate("CESM", "CLDHGH", 20, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds must differ")
	}
}

// TestTableIRanges verifies the paper's Table I value ranges are matched.
func TestTableIRanges(t *testing.T) {
	cases := []struct {
		app, field string
		min, max   float64
	}{
		{"CESM", "CLDHGH", 0.00, 0.92},
		{"CESM", "FLDSC", 92.84, 418.24},
		{"CESM", "PCONVT", 39025.27, 103207.45},
		{"HACC", "vx", -3846.21, 4031.25},
		{"HACC", "xx", 0.00, 256.00},
	}
	for _, c := range cases {
		f, err := Generate(c.app, c.field, 16, 7)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.app, c.field, err)
		}
		st := metrics.ComputeRange(f.Data)
		tolMin := math.Max(1e-3, math.Abs(c.min)*1e-3)
		tolMax := math.Max(1e-3, math.Abs(c.max)*1e-3)
		if math.Abs(st.Min-c.min) > tolMin {
			t.Errorf("%s/%s: min %.4f want %.4f", c.app, c.field, st.Min, c.min)
		}
		if math.Abs(st.Max-c.max) > tolMax {
			t.Errorf("%s/%s: max %.4f want %.4f", c.app, c.field, st.Max, c.max)
		}
	}
}

func TestClampedFieldsHaveZeroPlateaus(t *testing.T) {
	f, err := Generate("CESM", "CLDHGH", 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, v := range f.Data {
		if v == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Error("cloud-fraction field should have a zero plateau")
	}
}

func TestRTMSnapshots(t *testing.T) {
	early, err := Generate("RTM", "snap-0200", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	late, err := Generate("RTM", "snap-3200", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Different snapshots must differ: the wavefront moved.
	diff := 0
	for i := range early.Data {
		if early.Data[i] != late.Data[i] {
			diff++
		}
	}
	if diff < len(early.Data)/10 {
		t.Error("snapshots too similar")
	}
	if _, err := Generate("RTM", "bogus", 8, 1); err == nil {
		t.Error("bad RTM field name must error")
	}
	if _, err := Generate("RTM", "snap-9999", 8, 1); err == nil {
		t.Error("out-of-range snapshot must error")
	}
}

func TestUnknownAppAndField(t *testing.T) {
	if _, err := Generate("nope", "x", 8, 1); err == nil {
		t.Error("unknown app must error")
	}
	if _, err := Generate("CESM", "nope", 8, 1); err == nil {
		t.Error("unknown field must error")
	}
	if _, err := GenerateFirst("nope", 2, 8, 1); err == nil {
		t.Error("unknown app must error")
	}
}

// TestGenerateFirst: the first n fields in Fields order, each identical to
// its own Generate call; n ≤ 0 or past the end means all of them.
func TestGenerateFirst(t *testing.T) {
	names := Fields("CESM")
	two, err := GenerateFirst("CESM", 2, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 {
		t.Fatalf("got %d fields, want 2", len(two))
	}
	for i, f := range two {
		want, err := Generate("CESM", names[i], 64, 3)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name != names[i] || !reflect.DeepEqual(f, want) {
			t.Errorf("field %d = %s, want Generate(%q)", i, f.Name, names[i])
		}
	}
	for _, n := range []int{0, -1, len(names) + 5} {
		all, err := GenerateFirst("CESM", n, 64, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != len(names) {
			t.Errorf("n = %d: got %d fields, want all %d", n, len(all), len(names))
		}
	}
}

// TestGenerateFirstRTM: RTM's fields are snapshots in time order, not
// sorted names of a field table; GenerateFirst takes the earliest.
func TestGenerateFirstRTM(t *testing.T) {
	snaps, err := GenerateFirst("RTM", 2, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || snaps[0].Name != "snap-0200" || snaps[1].Name != "snap-0594" {
		t.Fatalf("got %d snapshots, want snap-0200 and snap-0594", len(snaps))
	}
	want, err := Generate("RTM", "snap-0594", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snaps[1], want) {
		t.Error("second snapshot differs from its own Generate call")
	}
}

func TestShrinkScaling(t *testing.T) {
	small, err := Generate("Miranda", "density", 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	large, err := Generate("Miranda", "density", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if small.NumPoints() >= large.NumPoints() {
		t.Errorf("shrink 32 (%d pts) should be smaller than shrink 16 (%d pts)",
			small.NumPoints(), large.NumPoints())
	}
	// Extreme shrink clamps to minimum size 4 per dim.
	tiny, err := Generate("Miranda", "density", 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range tiny.Dims {
		if d < 4 {
			t.Errorf("dims clamped below 4: %v", tiny.Dims)
		}
	}
}

func TestSmoothVsNoisyCompressibility(t *testing.T) {
	// Miranda density (smooth) must have lower byte entropy than HACC vx.
	smooth, err := Generate("Miranda", "density", 24, 5)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := Generate("HACC", "vx", 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	se := metrics.ByteEntropy(smooth.Data, 4)
	ne := metrics.ByteEntropy(noisy.Data, 4)
	if se >= ne {
		t.Errorf("smooth entropy %.3f should be below noisy %.3f", se, ne)
	}
}

func TestFieldID(t *testing.T) {
	f, err := Generate("CESM", "TMQ", 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID() != "CESM/TMQ" {
		t.Errorf("ID = %q", f.ID())
	}
}

func BenchmarkGenerateCESM(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate("CESM", "TMQ", 8, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGeneratedDigests pins the bits of one field per texture, each at
// two shrinks, one of which leaves a last axis that is not a multiple of
// four (the cos kernel's group width): an FNV-64a over the dims and every
// value's IEEE bits. A generator change that is meant to be speed only
// must leave every digest as it is.
func TestGeneratedDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// gc fuses a product into the add that consumes it on arm64 and
		// the other FMA architectures — in math.Cos's polynomials and in
		// the wave, vortex and orbital expressions — so fields there round
		// once where amd64 rounds twice and their last bits differ.
		t.Skipf("digests are recorded on amd64; %s fuses multiply-adds, so its last bits differ", runtime.GOARCH)
	}
	cases := []struct {
		app, field string
		shrink     int
		want       uint64
	}{
		{"CESM", "CLDHGH", 16, 0xcea20bd135ffc83e}, // texClamped, 112×225
		{"CESM", "CLDHGH", 32, 0x28c132dc7380d925},
		{"CESM", "PSL", 16, 0xa1667defb8f19a5e}, // texSmooth
		{"CESM", "PSL", 32, 0x79e91a52c7f8b515},
		{"CESM", "ODV_ocar2", 16, 0x0d870d3e18f861ba}, // texLogSmooth
		{"CESM", "ODV_ocar2", 32, 0x11edb8e85030a185},
		{"Miranda", "density", 16, 0xf430e1192b4645f8},    // texSmooth, 3-D
		{"Miranda", "density", 10, 0x5d5ba0beb48992e9},    // 25×38×38
		{"Nyx", "baryon_density", 16, 0x3dc4fbcfbff0fbc4}, // texLognormal
		{"Nyx", "baryon_density", 10, 0xc2dd9400643ac9a9}, // 51³
		{"ISABEL", "Uf48", 16, 0xf0f7b470fccb5b1a},        // texVortex, 6×31×31
		{"ISABEL", "Uf48", 8, 0x57f256ad32cd512d},
		{"RTM", "snap-1800", 16, 0x3ad4d72436de505e},     // texWave with its reflected front
		{"RTM", "snap-1800", 9, 0x707341c1b44289ec},      // 26×49×49
		{"QMCPACK", "einspline", 16, 0x84b604c47391f138}, // texOrbital
		{"QMCPACK", "einspline", 7, 0xdca02a51aaca6290},  // 41×9×9
		{"HACC", "vx", 64, 0xc6b554a32d7dc617},           // texGaussian
		{"HACC", "vx", 63, 0x48e9b1866396c3d2},           // 532610 values
		{"HACC", "xx", 64, 0x85133b9922c9b96c},           // texUniform
		{"HACC", "xx", 63, 0x90aa417b28c88457},
	}
	for _, c := range cases {
		f, err := Generate(c.app, c.field, c.shrink, 9)
		if err != nil {
			t.Fatalf("%s/%s: %v", c.app, c.field, err)
		}
		if got := fieldDigest(f); got != c.want {
			t.Errorf("%s/%s at shrink %d %v: digest %#016x, want %#016x", c.app, c.field, c.shrink, f.Dims, got, c.want)
		}
	}
}

// fieldDigest is the FNV-64a of f's dims and its values' bits, little-endian.
func fieldDigest(f *Field) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, d := range f.Dims {
		binary.LittleEndian.PutUint64(b[:], uint64(d))
		_, _ = h.Write(b[:])
	}
	for _, v := range f.Data {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}

// BenchmarkGenerate times one field of each shape the nop-sz3 benchmark
// workload generates, in ns a point.
func BenchmarkGenerate(b *testing.B) {
	for _, c := range []struct {
		app, field string
		shrink     int
	}{{"CESM", "PSL", 2}, {"Miranda", "density", 4}} {
		b.Run(c.app+"/"+c.field, func(b *testing.B) {
			points := 0
			for i := 0; i < b.N; i++ {
				f, err := Generate(c.app, c.field, c.shrink, 42)
				if err != nil {
					b.Fatal(err)
				}
				points += f.NumPoints()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(points), "ns/point")
		})
	}
}

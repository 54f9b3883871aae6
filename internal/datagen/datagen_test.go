package datagen

import (
	"math"
	"reflect"
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

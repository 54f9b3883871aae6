//go:build amd64 && !purego

package simd

import (
	"testing"
	"unsafe"
)

// TestUnpackPlanLayout pins the field offsets unpackGroupsAVX2 reads the
// plan at.
func TestUnpackPlanLayout(t *testing.T) {
	var p unpackPlan
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"shuf", unsafe.Offsetof(p.shuf), 0},
		{"shift", unsafe.Offsetof(p.shift), 64},
		{"at", unsafe.Offsetof(p.at), 128},
		{"right", unsafe.Offsetof(p.right), 152},
		{"width", unsafe.Offsetof(p.width), 160},
	} {
		if f.got != f.want {
			t.Errorf("unpackPlan.%s at byte %d; simd_amd64.s reads it at %d", f.name, f.got, f.want)
		}
	}
}

// TestInterpQuantLayout pins the field offsets the interp kernels read
// the quantizer at.
func TestInterpQuantLayout(t *testing.T) {
	var q interpQuant
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"eb2", unsafe.Offsetof(q.eb2), 0},
		{"eb", unsafe.Offsetof(q.eb), 8},
		{"negEB", unsafe.Offsetof(q.negEB), 16},
		{"negRadF", unsafe.Offsetof(q.negRadF), 24},
		{"binHi", unsafe.Offsetof(q.binHi), 32},
		{"radius", unsafe.Offsetof(q.radius), 40},
	} {
		if f.got != f.want {
			t.Errorf("interpQuant.%s at byte %d; simd_amd64.s reads it at %d", f.name, f.got, f.want)
		}
	}
}

// TestRANSStateLayout pins the field offsets the rANS kernels read and
// write the lanes' state at.
func TestRANSStateLayout(t *testing.T) {
	var d RANSDecoder
	var e RANSEncoder
	for _, f := range []struct {
		name      string
		got, want uintptr
	}{
		{"RANSDecoder.X", unsafe.Offsetof(d.X), 0},
		{"RANSDecoder.Ctx", unsafe.Offsetof(d.Ctx), 64},
		{"RANSDecoder.Pos", unsafe.Offsetof(d.Pos), 128},
		{"RANSDecoder.Esc", unsafe.Offsetof(d.Esc), 136},
		{"RANSDecoder.Bad", unsafe.Offsetof(d.Bad), 144},
		{"RANSEncoder.X", unsafe.Offsetof(e.X), 0},
		{"RANSEncoder.Cur", unsafe.Offsetof(e.Cur), 64},
		{"RANSEncoder.N", unsafe.Offsetof(e.N), 128},
	} {
		if f.got != f.want {
			t.Errorf("%s at byte %d; simd_amd64.s reads it at %d", f.name, f.got, f.want)
		}
	}
}

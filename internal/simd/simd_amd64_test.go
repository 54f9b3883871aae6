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

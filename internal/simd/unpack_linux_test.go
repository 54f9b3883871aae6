//go:build linux

package simd

import (
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
)

// TestUnpackStaysInSrc ends src where a page this test maps PROT_NONE
// begins and decodes every width 1–40 at every length 1–300 from it, so a
// read past src faults: szx hands Unpack the rest of a stream body an
// attacker may have cut short.
func TestUnpackStaysInSrc(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	defer func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Errorf("munmap: %v", err)
		}
	}()
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	rand.New(rand.NewSource(3)).Read(mem[:page])
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	for nb := uint(1); nb <= 40; nb++ {
		for n := 1; n <= 300; n++ {
			size := (n*int(nb) + 7) / 8
			if size > page {
				continue
			}
			src := mem[page-size : page : page]
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%d codes of %d bits from the %d bytes before a guard page: %v", n, nb, size, r)
					}
				}()
				checkUnpack(t, n, src, nb, -1.5, 0.25)
			}()
		}
	}
}

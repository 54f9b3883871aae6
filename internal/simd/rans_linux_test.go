//go:build linux

package simd

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"syscall"
	"testing"
	"unsafe"
)

// guarded maps two pages and makes the second PROT_NONE, so a read or a
// write past the end of a slice that ends at the first page's end faults.
func guarded(t *testing.T) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() {
		if err := syscall.Munmap(mem); err != nil {
			t.Errorf("munmap: %v", err)
		}
	})
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return mem[:page:page]
}

// tail16 returns the last n uint16s of page, which end at its end.
func tail16(page []byte, n int) []uint16 {
	u := unsafe.Slice((*uint16)(unsafe.Pointer(&page[0])), len(page)/2)
	return u[len(u)-n:]
}

// TestRANSStaysInBounds ends, in turn, the decoder's words, its code
// lanes, the encoder's code lanes and its word buffer where a guard page
// begins, over lane lengths around the kernels' block sizes, so a load or
// store past any of them faults: a section's words come from a stream an
// attacker may have cut short.
func TestRANSStaysInBounds(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(11))
	md := newRANSModel(rng, 11, 3, 40, true)
	guard := func(what string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: %v", what, r)
			}
		}()
		f()
	}
	for _, m := range []int{8, 15, 16, 33, 70} {
		codes := md.stream(rng, m, false)
		w, x := md.encode(codes, m, ransEncodeGeneric)
		if 2*len(w) > 4096 || 16*m*2 > 4096 {
			continue
		}
		// The words, whole and cut, at the page's end.
		for _, cut := range []int{len(w), len(w) - 2, len(w) / 2 &^ 1} {
			page := guarded(t)
			src := page[len(page)-cut:]
			copy(src, w[:cut])
			guard("words before a guard page", func() {
				checkRANSDecode(t, RANSDecoder{X: x}, make([]uint16, RANSLanes*m), m, 0, m, &md.dec, src)
			})
		}
		// The decoded lanes at the page's end.
		out := tail16(guarded(t), RANSLanes*m)
		guard("code lanes before a guard page", func() {
			d := RANSDecoder{X: x}
			d.Decode(out, m, 0, m, &md.dec, w)
			if !slices.Equal(out, codes) {
				t.Fatalf("m %d: the decode into guarded lanes does not give the stream back", m)
			}
		})
		// The encoder's code lanes, and its word buffer, cut to the room
		// Encode asks for, at the page's end.
		in := tail16(guarded(t), RANSLanes*m)
		copy(in, codes)
		words := tail16(guarded(t), RANSLanes*m)
		guard("encoder lanes and words before a guard page", func() {
			var e RANSEncoder
			for k := range e.X {
				e.X[k], e.Cur[k] = 1<<16, md.enc.Sym[in[k*m+m-1]]
			}
			e.Encode(in, m, 1, m, &md.enc, words)
		})
	}
}

package bitstream

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleBits(t *testing.T) {
	w := NewWriter(16)
	bits := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range bits {
		w.WriteBits(uint64(b), 1)
	}
	r := NewReader(w.Bytes())
	for i, want := range bits {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestWriteBitsWidths(t *testing.T) {
	tests := []struct {
		name   string
		values []uint64
		widths []uint
	}{
		{"bytes", []uint64{0xAB, 0xCD, 0x12}, []uint{8, 8, 8}},
		{"mixed", []uint64{0x3, 0x1F, 0x0, 0xFFFF}, []uint{2, 5, 1, 16}},
		{"wide", []uint64{0xDEADBEEFCAFEF00D, 0x1}, []uint{64, 1}},
		{"cross-boundary", []uint64{0x1FF, 0x7F, 0x3FFFF}, []uint{9, 7, 18}},
		{"zero-width", []uint64{0x0, 0xFF}, []uint{0, 8}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			w := NewWriter(64)
			for i, v := range tt.values {
				w.WriteBits(v, tt.widths[i])
			}
			r := NewReader(w.Bytes())
			for i, want := range tt.values {
				got, err := r.ReadBits(tt.widths[i])
				if err != nil {
					t.Fatalf("value %d: %v", i, err)
				}
				mask := uint64(0)
				if tt.widths[i] == 64 {
					mask = ^uint64(0)
				} else {
					mask = (1 << tt.widths[i]) - 1
				}
				if got != want&mask {
					t.Fatalf("value %d: got %#x want %#x", i, got, want&mask)
				}
			}
		})
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("first byte: %v", err)
	}
	if _, err := r.ReadBits(1); err != ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

func TestReaderWidthTooLarge(t *testing.T) {
	r := NewReader(make([]byte, 16))
	if _, err := r.ReadBits(65); err == nil {
		t.Fatal("want error for width 65")
	}
}

func TestReset(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0xFF, 8)
	w.Reset()
	w.WriteBits(0x2, 2)
	got := w.Bytes()
	if len(got) != 1 || got[0] != 0x80 {
		t.Fatalf("after reset bytes = %#v", got)
	}
}

func TestZeroValueWriter(t *testing.T) {
	var w Writer
	w.WriteBits(0x5, 3)
	if got := w.Bytes(); len(got) != 1 || got[0] != 0xA0 {
		t.Fatalf("zero-value writer bytes = %#v", got)
	}
}

func TestNewWriterNegativeHint(t *testing.T) {
	w := NewWriter(-4)
	w.WriteBits(0xC, 4)
	if got := w.Bytes(); len(got) != 1 || got[0] != 0xC0 {
		t.Fatalf("bytes = %#v", got)
	}
}

// TestWriteAfterBytes: Bytes pads to a byte boundary, and the padding stays
// in the stream when writing resumes.
func TestWriteAfterBytes(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(0x1, 1)
	w.Bytes()
	w.WriteBits(0xFF, 8)
	got := w.Bytes()
	if len(got) != 2 || got[0] != 0x80 || got[1] != 0xFF {
		t.Fatalf("bytes = %#v, want [0x80 0xff]", got)
	}
}

// TestReadBitAcrossRefills interleaves ReadBit and ReadBits over a stream
// long enough to take both the word-load and the byte-at-a-time refill.
func TestReadBitAcrossRefills(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type op struct {
		v     uint64
		width uint // 0 means a single ReadBit
	}
	ops := make([]op, 300)
	w := NewWriter(256)
	for i := range ops {
		if i%3 == 0 {
			ops[i] = op{v: uint64(rng.Intn(2))}
			w.WriteBits(ops[i].v, 1)
			continue
		}
		width := uint(rng.Intn(13) + 1)
		ops[i] = op{v: rng.Uint64() & (1<<width - 1), width: width}
		w.WriteBits(ops[i].v, width)
	}
	r := NewReader(w.Bytes())
	for i, o := range ops {
		var got uint64
		if o.width == 0 {
			b, err := r.ReadBit()
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			got = uint64(b)
		} else {
			var err error
			if got, err = r.ReadBits(o.width); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		if got != o.v {
			t.Fatalf("op %d: got %#x want %#x", i, got, o.v)
		}
	}
}

func TestReadBitEOF(t *testing.T) {
	r := NewReader([]byte{0x80})
	for i := 0; i < 8; i++ {
		if _, err := r.ReadBit(); err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
	}
	if _, err := r.ReadBit(); err != ErrUnexpectedEOF {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

// TestReaderShortRead: a read wider than what remains fails rather than
// zero-padding past the end.
func TestReaderShortRead(t *testing.T) {
	r := NewReader([]byte{0xAB, 0xCD})
	if _, err := r.ReadBits(17); err != ErrUnexpectedEOF {
		t.Fatalf("17 bits from 16: want ErrUnexpectedEOF, got %v", err)
	}
}

// TestRoundTripQuick verifies that arbitrary (value, width) sequences
// round-trip exactly.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%64) + 1
		values := make([]uint64, count)
		widths := make([]uint, count)
		for i := range values {
			widths[i] = uint(rng.Intn(64) + 1)
			values[i] = rng.Uint64() & ((1 << widths[i]) - 1)
			if widths[i] == 64 {
				values[i] = rng.Uint64()
			}
		}
		w := NewWriter(count * 8)
		for i, v := range values {
			w.WriteBits(v, widths[i])
		}
		r := NewReader(w.Bytes())
		for i, want := range values {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

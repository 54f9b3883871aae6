package ans

import (
	"math/rand"
	"slices"
	"testing"

	"ocelot/internal/huffman"
)

// codeStream builds n codes around the zero bin of radius: mostly small
// steps, every escapeEvery-th one an escape (0 disables), every
// wideEvery-th one a wide code (0 disables).
func codeStream(seed int64, n, radius int, spread float64, escapeEvery, wideEvery int) *huffman.SymbolStream {
	rng := rand.New(rand.NewSource(seed))
	s := &huffman.SymbolStream{}
	for i := 0; i < n; i++ {
		code := radius + int(rng.NormFloat64()*spread)
		code = min(max(code, 1), 2*radius-1)
		if escapeEvery > 0 && i%escapeEvery == escapeEvery-1 {
			code = 0
		}
		if wideEvery > 0 && i%wideEvery == wideEvery-1 {
			code = huffman.WideEscape + rng.Intn(2*radius-huffman.WideEscape)
		}
		s.Append(code)
	}
	return s
}

// roundTrip encodes syms in layout version, decodes the section and
// requires the same codes back and the escape count.
func roundTrip(t *testing.T, c *Coder, syms *huffman.SymbolStream, radius, version int) []byte {
	t.Helper()
	sec, _, wrote, err := c.Encode(nil, syms, radius, version)
	if err != nil {
		t.Fatal(err)
	}
	if wrote != version {
		t.Fatalf("asked for version %d, wrote %d", version, wrote)
	}
	var got huffman.SymbolStream
	esc, err := c.Decode(&got, sec, syms.Len(), radius, version)
	if err != nil {
		t.Fatalf("decode %d codes from %d bytes of version %d: %v", syms.Len(), len(sec), version, err)
	}
	if !slices.Equal(got.Packed, syms.Packed) || !slices.Equal(got.Wide, syms.Wide) {
		t.Fatalf("round trip of %d codes changed them", syms.Len())
	}
	want := 0
	for _, p := range syms.Packed {
		if p == 0 {
			want++
		}
	}
	if esc != want {
		t.Fatalf("%d escapes decoded, %d coded", esc, want)
	}
	return sec
}

func TestRoundTrip(t *testing.T) {
	var c Coder
	for _, tc := range []struct {
		name                          string
		n, radius, spread, esc, wides int
	}{
		{"empty", 0, 32768, 1, 0, 0},
		{"one", 1, 32768, 0, 0, 0},
		{"odd", 1001, 32768, 2, 0, 0},
		{"peaked", 200000, 32768, 0, 0, 0},
		{"spread", 100000, 32768, 40, 97, 0},
		{"noise", 50000, 32768, 3000, 0, 0},
		{"escapes", 4000, 32768, 3, 1, 0},
		{"tiny-radius", 3000, 2, 1, 5, 0},
		{"wide", 30000, 65536, 20, 50, 31},
		{"all-wide", 777, 40000, 1, 0, 1},
		{"wide-odd", 30001, 65536, 20, 50, 31},
		{"lanes-short", 15, 32768, 2, 0, 0},
		{"lanes-tail", 16*333 + 7, 32768, 4, 0, 0},
		{"lanes-wide-tail", 16*200 + 15, 65536, 9, 7, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			syms := codeStream(int64(tc.n), tc.n, tc.radius, float64(tc.spread), tc.esc, tc.wides)
			for _, v := range []int{V2, V3} {
				roundTrip(t, &c, syms, tc.radius, v)
			}
		})
	}
}

// TestCoderReuse runs streams of different alphabets through one Coder in
// turn, in both layouts: counts left behind by one run must not leak into
// the next.
func TestCoderReuse(t *testing.T) {
	var c Coder
	a := codeStream(1, 5000, 32768, 30, 11, 0)
	b := codeStream(2, 5000, 65536, 5, 0, 13)
	for _, v := range []int{V2, V3} {
		first := roundTrip(t, &c, a, 32768, v)
		roundTrip(t, &c, b, 65536, v)
		if again := roundTrip(t, &c, a, 32768, v); !slices.Equal(again, first) {
			t.Fatalf("the same stream coded differently in version %d after the coder was reused", v)
		}
	}
	for i, v := range c.hist {
		if v != 0 {
			t.Fatalf("hist slot %d left at %d", i, v)
		}
	}
}

// TestReciprocalDivision holds the encoder's multiply-and-shift to the
// division it replaces, for every state the encoder can hold: coding f
// must map x to (x/f)·2^L + x%f + start.
func TestReciprocalDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const L = maxLog
	for k := 0; k < 200000; k++ {
		f := uint32(1 + rng.Intn(total(L)))
		if k%7 == 0 {
			f = uint32(1) << rng.Intn(L)
		}
		var e encSym
		e.set(f, 5, L)
		x := rng.Uint64() >> 1
		switch k % 4 {
		case 1:
			x = e.xmax - 1
		case 2:
			x = uint64(f)*uint64(rng.Intn(1<<20)) + uint64(f) - 1
		}
		x = min(x, e.xmax-1)
		if x < stateLow {
			x = stateLow
		}
		got, _ := put(x, &e, make([]uint32, 1), 0)
		want := (x/uint64(f))<<L + x%uint64(f) + 5
		if got != want {
			t.Fatalf("f=%d x=%d: coded to %d, want %d", f, x, got, want)
		}
	}
}

// TestWideTableFallsBackToV2 codes a stream with more distinct codes in
// one context than a 2^16-slot table holds twice over — a table log of 17
// — in version 2 when version 3 is asked for, and one that fits version
// 3's table log of 16 only once capped, in version 3.
func TestWideTableFallsBackToV2(t *testing.T) {
	var c Coder
	for _, tc := range []struct {
		distinct, want int
	}{{40000, V3}, {total(maxLog3) + 1, V2}} {
		s := &huffman.SymbolStream{}
		for i := 0; i < 3*tc.distinct; i++ {
			s.Append(1 + (i*7919)%tc.distinct)
		}
		const radius = 1 << 17
		sec, _, wrote, err := c.Encode(nil, s, radius, V3)
		if err != nil {
			t.Fatal(err)
		}
		if wrote != tc.want || int(sec[1]) > map[int]int{V2: maxLog, V3: maxLog3}[wrote] {
			t.Fatalf("%d distinct codes: version %d, table log %d; want version %d", tc.distinct, wrote, sec[1], tc.want)
		}
		var got huffman.SymbolStream
		if _, err := c.Decode(&got, sec, s.Len(), radius, wrote); err != nil || !slices.Equal(got.Packed, s.Packed) || !slices.Equal(got.Wide, s.Wide) {
			t.Fatalf("%d distinct codes: round trip: %v", tc.distinct, err)
		}
	}
}

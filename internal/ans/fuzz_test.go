package ans

import (
	"cmp"
	"encoding/binary"
	"errors"
	"testing"

	"ocelot/internal/huffman"
)

// fuzzRadii are the quantizer radii the fuzz targets pick from: the
// default, the wide-lane one the sz tests use, an odd one above the wide
// marker, and radii so small that the escape bin and the wide marker land
// inside the distance buckets.
var fuzzRadii = []int{32768, 65536, 40000, 2, 9}

// fuzzCodes turns bytes into a code stream around the zero bin of radius:
// 0 is the escape bin, 0xFF followed by two bytes a wide code (when the
// alphabet has any), anything else a step of b−128 from the zero bin. The
// pattern repeats reps times.
func fuzzCodes(data []byte, radius, reps int) *huffman.SymbolStream {
	s := &huffman.SymbolStream{}
	alphabet := 2 * radius
	for r := 0; r < reps; r++ {
		for i := 0; i < len(data); i++ {
			b := data[i]
			switch {
			case b == 0:
				s.Append(0)
			case b == 0xFF && i+2 < len(data) && alphabet > huffman.WideEscape:
				s.Append(huffman.WideEscape + (int(data[i+1])<<8|int(data[i+2]))%(alphabet-huffman.WideEscape))
				i += 2
			default:
				s.Append(min(max(radius+int(b)-128, 1), alphabet-1))
			}
		}
	}
	return s
}

// FuzzEntropyRoundTrip codes arbitrary code streams — wide codes,
// single-symbol streams, empty and all-escape ones, long repeats that
// push the coder towards order 1 — and requires the same codes and escape
// count back, through one Coder reused across inputs.
func FuzzEntropyRoundTrip(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(1))
	f.Add([]byte{0x80}, uint8(0), uint8(1))
	f.Add([]byte{0x81}, uint8(0), uint8(200))
	f.Add([]byte{0}, uint8(0), uint8(50))
	f.Add([]byte{0x80, 0x81, 0x7F, 0x80, 0x80, 0x90, 0x00}, uint8(0), uint8(90))
	f.Add([]byte{0xFF, 0x12, 0x34, 0x80, 0xFF, 0x00, 0x01, 0x83}, uint8(1), uint8(40))
	f.Add([]byte{0xFF, 0xFF, 0xFF}, uint8(2), uint8(3))
	f.Add([]byte{0x10, 0x50, 0xA0, 0xF0, 0x33, 0x77, 0xCC, 0x01}, uint8(0), uint8(255))
	f.Add([]byte{0x7E, 0x80, 0x82, 0x00}, uint8(3), uint8(20))
	var c Coder
	f.Fuzz(func(t *testing.T, data []byte, radiusKnob, reps uint8) {
		radius := fuzzRadii[int(radiusKnob)%len(fuzzRadii)]
		syms := fuzzCodes(data, radius, int(reps))
		roundTrip(t, &c, syms, radius)
	})
}

// FuzzEntropyDecode feeds hostile sections to the decoder: it must return
// codes inside the alphabet or ErrCorrupt, never panic, and never size the
// code stream or its tables past what the section's length allows.
func FuzzEntropyDecode(f *testing.F) {
	for _, tc := range corruptSections(f) {
		f.Add(tc.sec, uint32(tc.n), uint8(0))
	}
	var c Coder
	for i, s := range []*huffman.SymbolStream{
		codeStream(1, 300, 32768, 3, 17, 0),
		fuzzCodes([]byte{0xFF, 0x01, 0x02, 0x80, 0x81}, 65536, 30),
		fuzzCodes([]byte{0x10, 0x50, 0xA0, 0xF0, 0x33}, 32768, 60),
	} {
		radius := []int{32768, 65536, 32768}[i]
		sec, _, err := c.Encode(nil, s, radius)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sec, uint32(s.Len()), uint8(i))
	}
	f.Fuzz(func(t *testing.T, sec []byte, n uint32, radiusKnob uint8) {
		radius := fuzzRadii[int(radiusKnob)%len(fuzzRadii)]
		var c Coder
		var syms huffman.SymbolStream
		esc, err := c.Decode(&syms, sec, int(n), radius)
		if len(sec) <= 64 && (cap(syms.Packed) > maxSymbols(len(sec)) || len(c.dec) > maxEntries(len(sec))) {
			t.Fatalf("a %d-byte section sized %d codes and %d table entries", len(sec), cap(syms.Packed), len(c.dec))
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
			return
		}
		if syms.Len() != int(n) {
			t.Fatalf("%d codes decoded, %d asked for", syms.Len(), n)
		}
		escapes, wides := 0, 0
		for _, p := range syms.Packed {
			if p == 0 {
				escapes++
			}
			if p == huffman.WideEscape {
				wides++
			}
			if int(p) >= 2*radius {
				t.Fatalf("code %d outside the alphabet of radius %d", p, radius)
			}
		}
		if escapes != esc || wides != len(syms.Wide) {
			t.Fatalf("%d escapes and %d wide codes, reported %d and %d", escapes, wides, esc, len(syms.Wide))
		}
	})
}

// section assembles a coded section by hand: model, table log, used
// symbols, per-context frequency lists over them (no zero runs), lane
// states and words.
func section(model, L byte, used []uint32, freqs [][]uint64, xa, xb uint64, words ...uint32) []byte {
	out := []byte{model, L}
	out = binary.AppendUvarint(out, uint64(len(used)))
	prev := uint32(0)
	for _, u := range used {
		out = binary.AppendUvarint(out, uint64(u-prev))
		prev = u
	}
	for _, fs := range freqs {
		for _, f := range fs {
			out = binary.AppendUvarint(out, f)
			if f == 0 {
				out = append(out, 0)
			}
		}
	}
	out = binary.LittleEndian.AppendUint64(out, xa)
	out = binary.LittleEndian.AppendUint64(out, xb)
	for _, w := range words {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out
}

type corruptCase struct {
	name   string
	sec    []byte
	n      int
	radius int // 0: 32768
}

// corruptSections builds one section for each way Decode must refuse a
// section.
func corruptSections(tb testing.TB) []corruptCase {
	tb.Helper()
	const r = 32768
	full := uint64(total(minLog))
	empty := []uint64{0}
	var c Coder
	syms := codeStream(5, 4001, r, 4, 13, 0)
	valid, _, err := c.Encode(nil, syms, r)
	if err != nil {
		tb.Fatal(err)
	}
	return []corruptCase{
		{"frequencies short of the table total", section(modelOrder0, minLog, []uint32{r}, [][]uint64{{full - 1}}, stateLow, stateLow), 2, 0},
		{"empty context reached", section(modelDistance, minLog, []uint32{r + 1},
			[][]uint64{{full}, empty, empty, empty, empty, empty}, stateLow, stateLow), 4, 0},
		{"unsorted symbol list", section(modelOrder0, minLog, []uint32{r, r}, [][]uint64{{full - 1, 1}}, stateLow, stateLow), 2, 0},
		{"symbol outside the alphabet", section(modelOrder0, minLog, []uint32{2 * r}, [][]uint64{{full}}, stateLow, stateLow), 2, 0},
		{"truncated", valid[:len(valid)-4], syms.Len(), 0},
		{"not whole words", valid[:len(valid)-1], syms.Len(), 0},
		// One code a lane from a one-symbol table: each lane reads its word
		// and ends far above the encoder's start state.
		{"final state mismatch", section(modelOrder0, minLog, []uint32{r}, [][]uint64{{full}}, stateLow+1, stateLow+1, 7, 7), 2, 0},
		{"one code short", valid, syms.Len() - 1, 0},
		{"one code too many", valid, syms.Len() + 1, 0},
		{"codes outside a smaller alphabet", valid, syms.Len(), 16},
		{"more codes than the section holds", valid, maxSymbols(len(valid)) + 1, 0},
		{"empty section", nil, 0, 0},
	}
}

// TestDecodeRejectsEachCorruption runs every crafted corruption through
// Decode: each must fail with ErrCorrupt.
func TestDecodeRejectsEachCorruption(t *testing.T) {
	var c Coder
	var syms huffman.SymbolStream
	for _, tc := range corruptSections(t) {
		if _, err := c.Decode(&syms, tc.sec, tc.n, cmp.Or(tc.radius, 32768)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

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
// push the coder towards order 1 — in both layouts, and requires the same
// codes and escape count back, through one Coder reused across inputs.
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
	// Version 3's lanes: fewer codes than lanes, a whole number of steps,
	// and a tail on lane 15 with a wide code in it.
	f.Add([]byte{0x80, 0x81, 0x7F}, uint8(0), uint8(5))
	f.Add([]byte{0x80, 0x81, 0x7F, 0x80}, uint8(0), uint8(64))
	f.Add([]byte{0x80, 0xFF, 0x01, 0x02, 0x81, 0x00, 0x7F}, uint8(1), uint8(37))
	var c Coder
	f.Fuzz(func(t *testing.T, data []byte, radiusKnob, reps uint8) {
		radius := fuzzRadii[int(radiusKnob)%len(fuzzRadii)]
		syms := fuzzCodes(data, radius, int(reps))
		for _, v := range []int{V2, V3} {
			roundTrip(t, &c, syms, radius, v)
		}
	})
}

// FuzzEntropyDecode feeds hostile sections to the decoder, in the layout
// the knob's top bit picks (version 3 when set): it must return codes
// inside the alphabet or ErrCorrupt, never panic, and never size the code
// stream or its tables past what the section's length allows.
func FuzzEntropyDecode(f *testing.F) {
	for _, tc := range corruptSections(f) {
		f.Add(tc.sec, uint32(tc.n), uint8(tc.version-V2)<<7)
	}
	var c Coder
	for i, s := range []*huffman.SymbolStream{
		codeStream(1, 300, 32768, 3, 17, 0),
		fuzzCodes([]byte{0xFF, 0x01, 0x02, 0x80, 0x81}, 65536, 30),
		fuzzCodes([]byte{0x10, 0x50, 0xA0, 0xF0, 0x33}, 32768, 60),
		codeStream(2, 16*40+9, 32768, 5, 23, 0),
	} {
		radius := []int{32768, 65536, 32768, 32768}[i]
		for _, v := range []int{V2, V3} {
			sec, _, _, err := c.Encode(nil, s, radius, v)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(sec, uint32(s.Len()), uint8(i)|uint8(v-V2)<<7)
		}
	}
	f.Fuzz(func(t *testing.T, sec []byte, n uint32, knob uint8) {
		radius := fuzzRadii[int(knob&0x7F)%len(fuzzRadii)]
		version := V2 + int(knob>>7)
		var c Coder
		var syms huffman.SymbolStream
		esc, err := c.Decode(&syms, sec, int(n), radius, version)
		entries := max(len(c.dec), len(c.sym3d))
		if len(sec) <= 64 && (cap(syms.Packed) > maxSymbols(len(sec), version) || entries > maxEntries(len(sec))) {
			t.Fatalf("a %d-byte version %d section sized %d codes and %d table entries", len(sec), version, cap(syms.Packed), entries)
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

// table assembles a coded section's tables by hand: model, table log,
// used symbols and per-context frequency lists over them (no zero runs).
func table(model, L byte, used []uint32, freqs [][]uint64) []byte {
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
	return out
}

// section assembles a version 2 section by hand: tables, lane states and
// words.
func section(model, L byte, used []uint32, freqs [][]uint64, xa, xb uint64, words ...uint32) []byte {
	out := table(model, L, used, freqs)
	out = binary.LittleEndian.AppendUint64(out, xa)
	out = binary.LittleEndian.AppendUint64(out, xb)
	for _, w := range words {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out
}

// section3 assembles a version 3 section by hand: tables, words and the
// 16 lanes' states, every one x.
func section3(model, L byte, used []uint32, freqs [][]uint64, x uint32, words ...uint16) []byte {
	out := table(model, L, used, freqs)
	for _, w := range words {
		out = binary.LittleEndian.AppendUint16(out, w)
	}
	for range lanes {
		out = binary.LittleEndian.AppendUint32(out, x)
	}
	return out
}

type corruptCase struct {
	name    string
	sec     []byte
	n       int
	radius  int // 0: 32768
	version int
}

// corruptSections builds one section for each way Decode must refuse a
// section, in each layout.
func corruptSections(tb testing.TB) []corruptCase {
	tb.Helper()
	const r = 32768
	full := uint64(total(minLog))
	empty := []uint64{0}
	var c Coder
	syms := codeStream(5, 4001, r, 4, 13, 0)
	valid, _, _, err := c.Encode(nil, syms, r, V2)
	if err != nil {
		tb.Fatal(err)
	}
	valid3, _, _, err := c.Encode(nil, syms, r, V3)
	if err != nil {
		tb.Fatal(err)
	}
	// One code a lane from a one-symbol table: each lane takes a word and
	// ends far above the encoder's start state.
	oneWordEach := make([]uint16, lanes)
	for k := range oneWordEach {
		oneWordEach[k] = 7
	}
	return []corruptCase{
		{"v3: frequencies short of the table total", section3(modelOrder0, minLog, []uint32{r}, [][]uint64{{full - 1}}, stateLow3), 16, 0, V3},
		{"v3: empty context reached", section3(modelDistance, minLog, []uint32{r + 1},
			[][]uint64{{full}, empty, empty, empty, empty, empty}, stateLow3), 32, 0, V3},
		{"v3: table log past 16", section3(modelOrder0, maxLog3+1, []uint32{r}, [][]uint64{{uint64(total(maxLog3 + 1))}}, stateLow3), 16, 0, V3},
		{"v3: lane state below 2^16", section3(modelOrder0, minLog, []uint32{r}, [][]uint64{{full}}, stateLow3-1), 16, 0, V3},
		{"v3: truncated", valid3[:len(valid3)-2], syms.Len(), 0, V3},
		{"v3: not whole words", valid3[:len(valid3)-1], syms.Len(), 0, V3},
		{"v3: final state mismatch", section3(modelOrder0, minLog, []uint32{r}, [][]uint64{{full}}, stateLow3+1, oneWordEach...), 16, 0, V3},
		{"v3: one code short", valid3, syms.Len() - 1, 0, V3},
		{"v3: one code too many", valid3, syms.Len() + 1, 0, V3},
		{"v3: codes outside a smaller alphabet", valid3, syms.Len(), 16, V3},
		{"v3: more codes than the section holds", valid3, maxSymbols(len(valid3), V3) + 1, 0, V3},
		{"v3: empty section", nil, 0, 0, V3},
		{"frequencies short of the table total", section(modelOrder0, minLog, []uint32{r}, [][]uint64{{full - 1}}, stateLow, stateLow), 2, 0, V2},
		{"empty context reached", section(modelDistance, minLog, []uint32{r + 1},
			[][]uint64{{full}, empty, empty, empty, empty, empty}, stateLow, stateLow), 4, 0, V2},
		{"unsorted symbol list", section(modelOrder0, minLog, []uint32{r, r}, [][]uint64{{full - 1, 1}}, stateLow, stateLow), 2, 0, V2},
		{"symbol outside the alphabet", section(modelOrder0, minLog, []uint32{2 * r}, [][]uint64{{full}}, stateLow, stateLow), 2, 0, V2},
		{"truncated", valid[:len(valid)-4], syms.Len(), 0, V2},
		{"not whole words", valid[:len(valid)-1], syms.Len(), 0, V2},
		// One code a lane from a one-symbol table: each lane reads its word
		// and ends far above the encoder's start state.
		{"final state mismatch", section(modelOrder0, minLog, []uint32{r}, [][]uint64{{full}}, stateLow+1, stateLow+1, 7, 7), 2, 0, V2},
		{"one code short", valid, syms.Len() - 1, 0, V2},
		{"one code too many", valid, syms.Len() + 1, 0, V2},
		{"codes outside a smaller alphabet", valid, syms.Len(), 16, V2},
		{"more codes than the section holds", valid, maxSymbols(len(valid), V2) + 1, 0, V2},
		{"empty section", nil, 0, 0, V2},
	}
}

// TestDecodeRejectsEachCorruption runs every crafted corruption through
// Decode: each must fail with ErrCorrupt.
func TestDecodeRejectsEachCorruption(t *testing.T) {
	var c Coder
	var syms huffman.SymbolStream
	for _, tc := range corruptSections(t) {
		if _, err := c.Decode(&syms, tc.sec, tc.n, cmp.Or(tc.radius, 32768), tc.version); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

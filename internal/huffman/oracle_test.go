package huffman_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ocelot/internal/huffman"
	"ocelot/internal/oracle"
)

// The comparisons against the pre-overhaul coder live in this external
// test package: internal/oracle imports huffman, so package huffman's own
// tests cannot import it. export_test.go exposes the helpers they share
// with the internal tests.

// fibFreqs builds Fibonacci-like frequencies: the canonical code lengths
// grow linearly with the alphabet, so a 20-symbol alphabet yields codes
// near 19 bits — deep into the overflow table.
func fibFreqs(n int) []uint64 {
	freqs := make([]uint64, n)
	a, b := uint64(1), uint64(1)
	for i := range freqs {
		freqs[i] = a
		a, b = b, a+b
	}
	return freqs
}

// TestDecodeMatchesReference: the table-driven decoder and the pre-table
// bucket decoder must agree bit-for-bit on valid streams of every shape.
func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cases := []struct {
		name string
		data []int
		alph int
	}{
		{"dense-small", huffman.GeometricData(rng, 5000, 64), 64},
		{"sparse-large", huffman.GeometricData(rng, 5000, 60000), 60000},
		{"single", []int{3, 3, 3, 3}, 8},
		{"empty", nil, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc, err := huffman.EncodeInts(tc.data, tc.alph)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := oracle.ReferenceDecode(enc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := huffman.DecodeInts(enc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatal("table-driven decode differs from reference")
			}
		})
	}
}

// TestDecodeLongCodes forces codes beyond huffman.PrimaryBits (the overflow path)
// and checks both decoders agree.
func TestDecodeLongCodes(t *testing.T) {
	freqs := fibFreqs(24) // max code length ~23 bits > huffman.PrimaryBits
	tbl, err := huffman.BuildTable(freqs)
	if err != nil {
		t.Fatal(err)
	}
	var maxLen uint8
	for i := 0; i < len(freqs); i++ {
		if l := tbl.CodeFor(i).Len; l > maxLen {
			maxLen = l
		}
	}
	if maxLen <= huffman.PrimaryBits {
		t.Fatalf("test setup: max code length %d does not exceed primary table width %d", maxLen, huffman.PrimaryBits)
	}
	rng := rand.New(rand.NewSource(5))
	data := make([]int, 4000)
	for i := range data {
		data[i] = rng.Intn(len(freqs))
	}
	enc, err := huffman.EncodeWith(data, tbl)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := oracle.ReferenceDecode(enc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := huffman.DecodeInts(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("overflow-path decode differs from reference")
	}
	if !reflect.DeepEqual(got, data) {
		t.Fatal("overflow-path round trip mismatch")
	}
}

// TestEncodeToSizedByteIdentical: the shipping encoder must emit the same
// bytes as the pre-overhaul reference encoder for the same symbols — the
// invariant that keeps every stream frozen across the hot-path overhaul.
func TestEncodeToSizedByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	data := huffman.GeometricData(rng, 20000, 1024)
	freqs := make([]uint64, 1024)
	for _, s := range data {
		freqs[s]++
	}
	tbl, err := huffman.BuildTable(freqs)
	if err != nil {
		t.Fatal(err)
	}
	old, err := oracle.ReferenceEncode(data, tbl)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := huffman.EncodeWith(data, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old, fast) {
		t.Fatal("EncodeToSized bytes differ from ReferenceEncode")
	}
}

// TestWideAlphabetEscape: symbols ≥ WideEscape ride the escape extension
// through huffman.SymbolStream and still round-trip byte-identically.
func TestWideAlphabetEscape(t *testing.T) {
	alphabet := 1 << 17
	data := []int{70000, 3, 65535, 70000, 131071, 3, 3, 65534}
	freqs := make([]uint64, alphabet)
	for _, v := range data {
		freqs[v]++
	}
	tbl, err := huffman.BuildTable(freqs)
	if err != nil {
		t.Fatal(err)
	}
	var s huffman.SymbolStream
	s.AppendInts(data)
	if len(s.Wide) != 4 { // 70000, 70000, 131071 and the boundary 65535
		t.Fatalf("wide lane holds %d symbols, want 4", len(s.Wide))
	}
	bits, err := tbl.EncodedBitsStream(&s)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := huffman.EncodeToSized(nil, &s, tbl, bits)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := oracle.ReferenceEncode(data, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, ref) {
		t.Fatal("wide-alphabet EncodeToSized bytes differ from reference")
	}
	var dec huffman.SymbolStream
	if err := huffman.DecodeInto(&dec, enc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.Ints(), data) {
		t.Fatalf("wide round trip: got %v want %v", dec.Ints(), data)
	}
}

// TestCorruptStreams: crafted tables and truncated payloads must error
// with huffman.ErrCorrupt from BOTH decoders — never panic, never succeed.
func TestCorruptStreams(t *testing.T) {
	valid, err := huffman.EncodeInts([]int{1, 2, 3, 1, 1, 0}, 8)
	if err != nil {
		t.Fatal(err)
	}

	// Oversubscribed lengths: three 1-bit codes cannot exist.
	overs := make([]byte, 0, 8+3*5)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], 8)
	overs = append(overs, b4[:]...)
	binary.LittleEndian.PutUint32(b4[:], 3)
	overs = append(overs, b4[:]...)
	for sym := 0; sym < 3; sym++ {
		binary.LittleEndian.PutUint32(b4[:], uint32(sym))
		overs = append(overs, b4[:]...)
		overs = append(overs, 1) // length 1 for all three
	}
	var cnt8 [8]byte
	overs = append(overs, cnt8[:]...)

	cases := map[string][]byte{
		"truncated-table":    valid[:6],
		"truncated-count":    valid[:len(valid)-9],
		"oversubscribed":     overs,
		"count-beyond-bits":  append(append([]byte{}, valid[:len(valid)-9]...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0),
		"truncated-payload":  valid[:len(valid)-1],
		"zero-length-stream": nil,
	}
	for name, stream := range cases {
		t.Run(name, func(t *testing.T) {
			var s huffman.SymbolStream
			errNew := huffman.DecodeInto(&s, stream)
			_, errRef := oracle.ReferenceDecode(stream)
			if errNew == nil {
				// The reference must agree that this stream is acceptable.
				if errRef != nil {
					t.Fatalf("table-driven accepted a stream the reference rejects (%v)", errRef)
				}
				t.Skip("stream turned out valid for both decoders")
			}
			if errRef == nil {
				t.Fatalf("table-driven rejected (%v) a stream the reference accepts", errNew)
			}
			if !errors.Is(errNew, huffman.ErrCorrupt) {
				t.Errorf("error %v does not wrap huffman.ErrCorrupt", errNew)
			}
		})
	}
}

// TestDecodeMatchesReferenceQuick: random alphabets/streams, both decoders
// agree on every valid stream.
func TestDecodeMatchesReferenceQuick(t *testing.T) {
	f := func(seed int64, n uint16, alpha uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		alphabet := int(alpha)%5000 + 2
		data := huffman.GeometricData(rng, int(n)%3000, alphabet)
		enc, err := huffman.EncodeInts(data, alphabet)
		if err != nil {
			return false
		}
		ref, err := oracle.ReferenceDecode(enc)
		if err != nil {
			return false
		}
		got, err := huffman.DecodeInts(enc)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeVsReference: on arbitrary bytes the table-driven decoder and
// the pre-table bucket decoder must agree — same accept/reject decision,
// and identical symbols when both accept. This pins the overhaul to the
// old decoder's exact semantics across the whole input space, including
// crafted first-level collisions, overflow tables, and truncated payloads.
func FuzzDecodeVsReference(f *testing.F) {
	rng := rand.New(rand.NewSource(71))
	smallEnc, err := huffman.EncodeInts(huffman.GeometricData(rng, 300, 40), 40)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(smallEnc)
	longTbl, err := huffman.BuildTable(fibFreqs(24))
	if err != nil {
		f.Fatal(err)
	}
	longEnc, err := huffman.EncodeWith([]int{23, 22, 21, 0, 1, 23}, longTbl)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(longEnc)                  // overflow-table codes at the boundary
	f.Add([]byte{})                 // empty
	f.Add(smallEnc[:9])             // truncated table
	f.Add(longEnc[:len(longEnc)-1]) // truncated payload
	f.Fuzz(func(t *testing.T, stream []byte) {
		ref, refErr := oracle.ReferenceDecode(stream)
		var s huffman.SymbolStream
		newErr := huffman.DecodeInto(&s, stream)
		if (refErr == nil) != (newErr == nil) {
			t.Fatalf("decoders disagree on acceptance: ref=%v new=%v", refErr, newErr)
		}
		if refErr != nil {
			return
		}
		if !reflect.DeepEqual(s.Ints(), ref) {
			t.Fatal("decoders disagree on symbols")
		}
	})
}

func BenchmarkReferenceDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	data := make([]int, 1<<16)
	for i := range data {
		data[i] = 512 + int(rng.NormFloat64()*4)
	}
	enc, err := huffman.EncodeInts(data, 1024)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracle.ReferenceDecode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBuildTableMatchesReference: the two-queue merge must assign the
// exact code table the reference heap merge assigns, across degenerate,
// skewed, flat, and deep-code distributions.
func TestBuildTableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	randFreqs := func(n, zeros int) []uint64 {
		f := make([]uint64, n)
		for i := range f {
			if rng.Intn(zeros+1) == 0 {
				f[i] = uint64(rng.Intn(1000) + 1)
			}
		}
		f[rng.Intn(n)] = uint64(rng.Intn(1000) + 1) // at least one used
		return f
	}
	cases := map[string][]uint64{
		"single":        {0, 0, 7, 0},
		"pair":          {3, 3},
		"flat":          {1, 1, 1, 1, 1, 1, 1},
		"fibonacci":     fibFreqs(30),
		"deep-overflow": fibFreqs(120), // triggers the flat-code fallback
		"sparse":        randFreqs(5000, 20),
		"dense":         randFreqs(300, 0),
		"ties":          {5, 5, 5, 5, 5, 5, 5, 5, 5, 5},
	}
	for name, freqs := range cases {
		t.Run(name, func(t *testing.T) {
			want, errW := oracle.ReferenceBuildTable(freqs)
			got, errG := huffman.BuildTable(freqs)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("error mismatch: ref=%v new=%v", errW, errG)
			}
			if errW != nil {
				return
			}
			if got.AlphabetSize() != want.AlphabetSize() || got.Symbols() != want.Symbols() {
				t.Fatalf("shape mismatch: alphabet %d/%d symbols %d/%d",
					got.AlphabetSize(), want.AlphabetSize(), got.Symbols(), want.Symbols())
			}
			for sym := 0; sym < want.AlphabetSize(); sym++ {
				if got.CodeFor(sym) != want.CodeFor(sym) {
					t.Fatalf("symbol %d: code %+v != reference %+v", sym, got.CodeFor(sym), want.CodeFor(sym))
				}
			}
			if !bytes.Equal(got.Serialize(), want.Serialize()) {
				t.Fatal("serialized tables differ")
			}
		})
	}
}

// FuzzBuildTableVsReference drives arbitrary frequency tables through both
// builders; lengths, codes, and serialized bytes must match.
func FuzzBuildTableVsReference(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 0, 0, 9})
	f.Add([]byte{255, 255, 1})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		freqs := make([]uint64, len(raw))
		for i, b := range raw {
			// Spread a byte into a wide dynamic range so ties and deep
			// trees both occur.
			freqs[i] = uint64(b%16) << (b / 16)
		}
		want, errW := oracle.ReferenceBuildTable(freqs)
		got, errG := huffman.BuildTable(freqs)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("error mismatch: ref=%v new=%v", errW, errG)
		}
		if errW != nil {
			return
		}
		if !bytes.Equal(got.Serialize(), want.Serialize()) {
			t.Fatal("serialized tables differ")
		}
		for sym := 0; sym < want.AlphabetSize(); sym++ {
			if got.CodeFor(sym) != want.CodeFor(sym) {
				t.Fatalf("symbol %d code mismatch", sym)
			}
		}
	})
}

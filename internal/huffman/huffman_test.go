package huffman

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// encodeWith encodes data with table t through the shipping path:
// EncodedBitsStream sizes the payload, EncodeToSized writes it.
func encodeWith(data []int, t *Table) ([]byte, error) {
	var s SymbolStream
	s.AppendInts(data)
	bits, err := t.EncodedBitsStream(&s)
	if err != nil {
		return nil, err
	}
	return EncodeToSized(nil, &s, t, bits)
}

// encodeInts builds a table from data's own frequencies over an alphabet of
// the given size (a one-symbol table for empty data) and encodes data with
// it.
func encodeInts(data []int, alphabet int) ([]byte, error) {
	if alphabet <= 0 {
		return nil, errors.New("huffman: alphabet size must be positive")
	}
	freqs := make([]uint64, alphabet)
	for _, sym := range data {
		if sym < 0 || sym >= alphabet {
			return nil, errors.New("huffman: symbol out of alphabet")
		}
		freqs[sym]++
	}
	if len(data) == 0 {
		freqs[0] = 1
	}
	t, err := BuildTable(freqs)
	if err != nil {
		return nil, err
	}
	defer t.Release()
	return encodeWith(data, t)
}

// decodeInts decodes stream through DecodeInto into the []int form.
func decodeInts(stream []byte) ([]int, error) {
	var s SymbolStream
	if err := DecodeInto(&s, stream); err != nil {
		return nil, err
	}
	return s.Ints(), nil
}

func TestRoundTripSimple(t *testing.T) {
	data := []int{0, 1, 2, 1, 0, 0, 0, 3, 2, 1, 0}
	enc, err := encodeInts(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeInts(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, data) {
		t.Fatalf("got %v want %v", dec, data)
	}
}

func TestSingleSymbolAlphabet(t *testing.T) {
	data := []int{5, 5, 5, 5, 5}
	enc, err := encodeInts(data, 8)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeInts(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, data) {
		t.Fatalf("got %v want %v", dec, data)
	}
}

func TestEmptyData(t *testing.T) {
	enc, err := encodeInts(nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeInts(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 0 {
		t.Fatalf("want empty, got %v", dec)
	}
}

func TestPrefixFree(t *testing.T) {
	freqs := []uint64{100, 50, 25, 12, 6, 3, 2, 1}
	tbl, err := BuildTable(freqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(freqs); i++ {
		ci := tbl.CodeFor(i)
		for j := 0; j < len(freqs); j++ {
			if i == j {
				continue
			}
			cj := tbl.CodeFor(j)
			if ci.Len == 0 || cj.Len == 0 {
				continue
			}
			// ci must not be a prefix of cj.
			if ci.Len <= cj.Len {
				prefix := cj.Bits >> (cj.Len - ci.Len)
				if prefix == ci.Bits {
					t.Fatalf("code %d (%b/%d) is prefix of %d (%b/%d)",
						i, ci.Bits, ci.Len, j, cj.Bits, cj.Len)
				}
			}
		}
	}
}

func TestOptimality(t *testing.T) {
	// More frequent symbols must not have longer codes.
	freqs := []uint64{1000, 500, 100, 10, 1}
	tbl, err := BuildTable(freqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(freqs); i++ {
		if tbl.CodeFor(i-1).Len > tbl.CodeFor(i).Len {
			t.Fatalf("symbol %d (freq %d) has longer code than symbol %d (freq %d)",
				i-1, freqs[i-1], i, freqs[i])
		}
	}
}

func TestSkewedDistribution(t *testing.T) {
	// A heavily zero-dominated stream, like quantization codes at large eb.
	rng := rand.New(rand.NewSource(7))
	data := make([]int, 50000)
	for i := range data {
		if rng.Float64() < 0.95 {
			data[i] = 512 // the "zero" bin in SZ convention
		} else {
			data[i] = 512 + rng.Intn(21) - 10
		}
	}
	enc, err := encodeInts(data, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Should compress far below 2 bytes/symbol.
	if len(enc) > len(data) {
		t.Fatalf("no compression: %d bytes for %d symbols", len(enc), len(data))
	}
	dec, err := decodeInts(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestLargeAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := make([]int, 20000)
	for i := range data {
		data[i] = rng.Intn(65536)
	}
	enc, err := encodeInts(data, 65536)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeInts(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestDecodeCorruptInputs(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x01},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		make([]byte, 12),
	}
	for i, c := range cases {
		if _, err := decodeInts(c); err == nil {
			t.Fatalf("case %d: want error for corrupt input", i)
		}
	}
}

// TestEncodeUncodedSymbol: a symbol the table has no code for, and a wide
// lane that disagrees with its escape markers, are errors from both the
// bit count and the encoder itself.
func TestEncodeUncodedSymbol(t *testing.T) {
	tbl, err := BuildTable([]uint64{3, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]*SymbolStream{
		"no-code":      {Packed: []uint16{0, 1, 3}},
		"out-of-table": {Packed: []uint16{0, 9}},
		"missing-wide": {Packed: []uint16{0, WideEscape}},
	}
	for name, s := range bad {
		if _, err := tbl.EncodedBitsStream(s); err == nil {
			t.Errorf("%s: EncodedBitsStream accepted the stream", name)
		}
		if _, err := EncodeToSized(nil, s, tbl, 0); err == nil {
			t.Errorf("%s: EncodeToSized accepted the stream", name)
		}
	}
}

func TestEncodedBitsStream(t *testing.T) {
	data := []int{0, 0, 0, 1, 1, 2}
	freqs := []uint64{3, 2, 1}
	tbl, err := BuildTable(freqs)
	if err != nil {
		t.Fatal(err)
	}
	var s SymbolStream
	s.AppendInts(data)
	bits, err := tbl.EncodedBitsStream(&s)
	if err != nil {
		t.Fatal(err)
	}
	want := 3*int(tbl.CodeFor(0).Len) + 2*int(tbl.CodeFor(1).Len) + int(tbl.CodeFor(2).Len)
	if bits != want {
		t.Fatalf("EncodedBitsStream = %d want %d", bits, want)
	}
}

// TestRoundTripQuick: random streams over random alphabets round-trip.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint16, alpha uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		alphabet := int(alpha)%200 + 2
		count := int(n) % 2000
		data := make([]int, count)
		for i := range data {
			// Geometric-ish distribution to exercise variable lengths.
			v := int(rng.ExpFloat64() * float64(alphabet) / 8)
			if v >= alphabet {
				v = alphabet - 1
			}
			data[i] = v
		}
		enc, err := encodeInts(data, alphabet)
		if err != nil {
			return false
		}
		dec, err := decodeInts(enc)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

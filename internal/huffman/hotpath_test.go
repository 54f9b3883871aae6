package huffman

import (
	"errors"
	"math/rand"
	"testing"
)

// geometricData builds a skewed symbol stream whose Huffman code lengths
// span a wide range — including codes longer than primaryBits when depth
// is large — so both decoder levels are exercised.
func geometricData(rng *rand.Rand, n, alphabet int) []int {
	data := make([]int, n)
	for i := range data {
		v := int(rng.ExpFloat64() * float64(alphabet) / 16)
		if v >= alphabet {
			v = alphabet - 1
		}
		data[i] = v
	}
	return data
}

// TestEncodeExactSize: EncodeToSized must size its output exactly — no
// regrow on dense streams (the old len/2+16 guess regrew several times).
func TestEncodeExactSize(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	// Near-uniform over a large alphabet: ~16 bits/symbol, 4x the old guess.
	data := make([]int, 8192)
	for i := range data {
		data[i] = rng.Intn(50000)
	}
	freqs := make([]uint64, 50000)
	for _, v := range data {
		freqs[v]++
	}
	tbl, err := BuildTable(freqs)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := encodeWith(data, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if cap(fast) != len(fast) {
		t.Errorf("EncodeToSized overallocated: len %d cap %d", len(fast), cap(fast))
	}
}

// TestDecodeIntoReusesBuffers: steady-state DecodeInto must not allocate
// per-symbol or per-call decode tables.
func TestDecodeIntoReusesBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	data := geometricData(rng, 1<<15, 1024)
	enc, err := encodeInts(data, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var s SymbolStream
	if err := DecodeInto(&s, enc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := DecodeInto(&s, enc); err != nil {
			t.Fatal(err)
		}
	})
	// The pooled decoder and the reused SymbolStream make the steady state
	// allocation-free; a small budget absorbs pool churn under GC.
	if allocs > 4 {
		t.Errorf("DecodeInto steady state allocates %.1f times per call", allocs)
	}
}

// TestTruncatedPayloadErrCorrupt: payload cut mid-code must be ErrCorrupt
// (the pre-overhaul decoder surfaced a bare bitstream EOF).
func TestTruncatedPayloadErrCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	data := geometricData(rng, 3000, 512)
	enc, err := encodeInts(data, 512)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut <= 16; cut++ {
		var s SymbolStream
		err := DecodeInto(&s, enc[:len(enc)-cut])
		if err == nil {
			t.Fatalf("truncated by %d bytes decoded successfully", cut)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated by %d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
}

func BenchmarkDecodeInto(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	data := make([]int, 1<<16)
	for i := range data {
		data[i] = 512 + int(rng.NormFloat64()*4)
	}
	enc, err := encodeInts(data, 1024)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var s SymbolStream
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(&s, enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeToSized(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	data := make([]int, 1<<16)
	for i := range data {
		data[i] = 512 + int(rng.NormFloat64()*4)
	}
	freqs := make([]uint64, 1024)
	for _, s := range data {
		freqs[s]++
	}
	tbl, err := BuildTable(freqs)
	if err != nil {
		b.Fatal(err)
	}
	var s SymbolStream
	s.AppendInts(data)
	bits, err := tbl.EncodedBitsStream(&s)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	var buf []byte
	for i := 0; i < b.N; i++ {
		out, err := EncodeToSized(buf[:0], &s, tbl, bits)
		if err != nil {
			b.Fatal(err)
		}
		buf = out
	}
}

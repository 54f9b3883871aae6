package core

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// xxh64Bytes is a byte-oriented XXH64 (seed 0) written from the published
// algorithm: 32-byte stripes over four lanes, then 8-, 4- and 1-byte tails.
// It is the reference reconHash must match on the little-endian bytes of
// the float64 bit patterns.
func xxh64Bytes(b []byte) uint64 {
	n := uint64(len(b))
	var acc uint64
	if len(b) >= 32 {
		v := newReconHash().v
		for ; len(b) >= 32; b = b[32:] {
			for l := range v {
				v[l] = xxRound(v[l], binary.LittleEndian.Uint64(b[8*l:]))
			}
		}
		acc = bits.RotateLeft64(v[0], 1) + bits.RotateLeft64(v[1], 7) +
			bits.RotateLeft64(v[2], 12) + bits.RotateLeft64(v[3], 18)
		for _, l := range v {
			acc = xxMerge(acc, l)
		}
	} else {
		acc = xxPrime5
	}
	acc += n
	for ; len(b) >= 8; b = b[8:] {
		acc ^= xxRound(0, binary.LittleEndian.Uint64(b))
		acc = bits.RotateLeft64(acc, 27)*xxPrime1 + xxPrime4
	}
	if len(b) >= 4 {
		acc ^= uint64(binary.LittleEndian.Uint32(b)) * xxPrime1
		acc = bits.RotateLeft64(acc, 23)*xxPrime2 + xxPrime3
		b = b[4:]
	}
	for _, c := range b {
		acc ^= uint64(c) * xxPrime5
		acc = bits.RotateLeft64(acc, 11) * xxPrime1
	}
	acc ^= acc >> 33
	acc *= xxPrime2
	acc ^= acc >> 29
	acc *= xxPrime3
	acc ^= acc >> 32
	return acc
}

// TestReconDigestIsXXH64 pins the digest's definition: the byte reference
// reproduces the published XXH64 test vectors, and reconDigest equals it
// over the values' little-endian bytes at every length around the stripe
// and tail boundaries.
func TestReconDigestIsXXH64(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
	}{
		{"", 0xEF46DB3751D8E999},
		{"a", 0xD24EC4F1A98C6E5B},
		{"abc", 0x44BC2CF5AD770999},
	} {
		if got := xxh64Bytes([]byte(tc.in)); got != tc.want {
			t.Errorf("XXH64(%q) = %016x, want %016x", tc.in, got, tc.want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 13; n++ {
		vals := make([]float64, n)
		raw := make([]byte, 8*n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
			binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(vals[i]))
		}
		if got, want := reconDigest(vals), xxh64Bytes(raw); got != want {
			t.Errorf("%d values: reconDigest = %016x, XXH64 of the bytes = %016x", n, got, want)
		}
	}
}

// FuzzReconDigestTileSplits is the streaming property the destination
// pass relies on: however a field is cut into tiles — including empty ones
// and cuts inside a stripe of four — the streamed digest is the
// whole-field digest. raw supplies the values' bit patterns (8 bytes
// each), cuts the lengths of the tiles before the last.
func FuzzReconDigestTileSplits(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 3, 4, 5, 17, 64, 301} {
		raw := make([]byte, 8*n)
		rng.Read(raw)
		cuts := make([]byte, rng.Intn(40))
		rng.Read(cuts)
		f.Add(raw, cuts)
	}
	f.Add(make([]byte, 8*40), []byte{0})
	f.Fuzz(func(t *testing.T, raw, cuts []byte) {
		vals := make([]float64, len(raw)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		h := newReconHash()
		rest := vals
		for _, c := range cuts {
			k := min(int(c)%11, len(rest))
			h.write(rest[:k])
			rest = rest[k:]
		}
		h.write(rest)
		if got, want := h.sum(), reconDigest(vals); got != want {
			t.Fatalf("%d values cut by %v: streamed digest %016x, whole field %016x", len(vals), cuts, got, want)
		}
	})
}

// TestReconDigestSensitivity: the digest covers exact bit patterns, so a
// one-ulp change, a sign flip of zero, or a swap of two values moves it.
func TestReconDigestSensitivity(t *testing.T) {
	base := []float64{1, 2, 3, 0, 5, 6, 7}
	d := reconDigest(base)
	for name, mut := range map[string]func([]float64){
		"ulp":  func(v []float64) { v[6] = math.Nextafter(v[6], 8) },
		"-0":   func(v []float64) { v[3] = math.Copysign(0, -1) },
		"swap": func(v []float64) { v[0], v[1] = v[1], v[0] },
	} {
		v := append([]float64(nil), base...)
		mut(v)
		if reconDigest(v) == d {
			t.Errorf("%s: digest did not change", name)
		}
	}
}

// BenchmarkReconDigest measures the reconstruction digest over one
// 4 Mi-point field (32 MiB), reported as MB/s of float64 data.
func BenchmarkReconDigest(b *testing.B) {
	vals := make([]float64, 4<<20)
	for i := range vals {
		vals[i] = float64(i) * 1e-3
	}
	b.SetBytes(8 * int64(len(vals)))
	for b.Loop() {
		reconDigest(vals)
	}
}

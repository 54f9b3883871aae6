package core

import "math"

// FNV-64a parameters for the inline digest loops below: every campaign
// digests every reconstruction, so this runs in the decompress hot path
// and must not pay hash.Hash interface dispatch or per-value allocations.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv64aWord folds one 64-bit word into an FNV-64a state, low byte first
// (equivalent to hashing the word's little-endian bytes).
func fnv64aWord(h, w uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (w >> s) & 0xff
		h *= fnvPrime64
	}
	return h
}

// reconDigest hashes one field's reconstruction (FNV-64a over the exact
// float64 bit patterns), so two campaigns can be compared for bit-identical
// output without retaining the data.
func reconDigest(recon []float64) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range recon {
		h = fnv64aWord(h, math.Float64bits(v))
	}
	return h
}

// foldDigests combines per-field digests in field-index order into one
// campaign digest. Field order is fixed by the input, not by completion
// order, so the fold is deterministic under any scheduling.
func foldDigests(digests []uint64) uint64 {
	h := uint64(fnvOffset64)
	for _, d := range digests {
		h = fnv64aWord(h, d)
	}
	return h
}

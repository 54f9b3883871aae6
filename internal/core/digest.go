package core

import (
	"math"
	"math/bits"
)

// FNV-64a parameters for the inline digest loops below (the per-campaign
// fold, the archive digests and the spec fingerprint), which must not pay
// hash.Hash interface dispatch or per-value allocations.
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

// XXH64 primes. The reconstruction digest is XXH64 with seed 0 over the
// little-endian bytes of the float64 bit patterns; the constants are fixed
// (unlike hash/maphash's per-process seeds), so a journal's recorded
// digests compare across processes and builds.
const (
	xxPrime1 = 0x9E3779B185EBCA87
	xxPrime2 = 0xC2B2AE3D27D4EB4F
	xxPrime3 = 0x165667B19E3779F9
	xxPrime4 = 0x85EBCA77C2B2AE63
	xxPrime5 = 0x27D4EB2F165667C5
)

// reconHash is the streaming state of the reconstruction digest. Four
// independent lanes each take every fourth value (lane = global index mod
// 4), one multiply-rotate-multiply round per value, so the hash runs at
// memory speed instead of FNV's one multiply per byte. Values that do not
// yet complete a stripe of four wait in pending, which makes the digest
// the same however the field is split into the slices passed to write.
type reconHash struct {
	v       [4]uint64
	pending [3]uint64
	np      int    // values waiting in pending
	n       uint64 // values written
}

func newReconHash() reconHash {
	// Seed-0 lanes: p1+p2, p2, 0, −p1 (mod 2^64).
	return reconHash{v: [4]uint64{0x60EA27EEADC0B5D6, xxPrime2, 0, 0x61C8864E7A143579}}
}

func xxRound(acc, w uint64) uint64 {
	return bits.RotateLeft64(acc+w*xxPrime2, 31) * xxPrime1
}

func xxMerge(acc, v uint64) uint64 {
	return (acc^xxRound(0, v))*xxPrime1 + xxPrime4
}

// write folds the next len(vals) values of the field into the digest.
func (h *reconHash) write(vals []float64) {
	h.n += uint64(len(vals))
	for h.np > 0 && len(vals) > 0 {
		if h.np == 3 {
			h.v[0] = xxRound(h.v[0], h.pending[0])
			h.v[1] = xxRound(h.v[1], h.pending[1])
			h.v[2] = xxRound(h.v[2], h.pending[2])
			h.v[3] = xxRound(h.v[3], math.Float64bits(vals[0]))
			h.np = 0
		} else {
			h.pending[h.np] = math.Float64bits(vals[0])
			h.np++
		}
		vals = vals[1:]
	}
	v0, v1, v2, v3 := h.v[0], h.v[1], h.v[2], h.v[3]
	i := 0
	for ; i+4 <= len(vals); i += 4 {
		q := vals[i : i+4 : i+4]
		v0 = xxRound(v0, math.Float64bits(q[0]))
		v1 = xxRound(v1, math.Float64bits(q[1]))
		v2 = xxRound(v2, math.Float64bits(q[2]))
		v3 = xxRound(v3, math.Float64bits(q[3]))
	}
	h.v = [4]uint64{v0, v1, v2, v3}
	for _, v := range vals[i:] {
		h.pending[h.np] = math.Float64bits(v)
		h.np++
	}
}

// sum returns the digest of every value written so far: the lanes merged
// (or the seed-0 base when no stripe completed), the byte length mixed in,
// the pending values folded serially, and the result avalanched.
func (h *reconHash) sum() uint64 {
	var acc uint64 = xxPrime5
	if h.n >= 4 {
		v := h.v
		acc = bits.RotateLeft64(v[0], 1) + bits.RotateLeft64(v[1], 7) +
			bits.RotateLeft64(v[2], 12) + bits.RotateLeft64(v[3], 18)
		for _, l := range v {
			acc = xxMerge(acc, l)
		}
	}
	acc += 8 * h.n
	for _, w := range h.pending[:h.np] {
		acc ^= xxRound(0, w)
		acc = bits.RotateLeft64(acc, 27)*xxPrime1 + xxPrime4
	}
	acc ^= acc >> 33
	acc *= xxPrime2
	acc ^= acc >> 29
	acc *= xxPrime3
	acc ^= acc >> 32
	return acc
}

// reconDigest hashes one whole reconstruction — the digest reconHash
// streams — so two campaigns can be compared for bit-identical output
// without retaining the data.
func reconDigest(recon []float64) uint64 {
	h := newReconHash()
	h.write(recon)
	return h.sum()
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

// Package integrity implements the end-to-end checksum frame every packed
// campaign archive travels in. At pack time the engine wraps the group
// archive in an OCIF frame carrying CRC-32C (Castagnoli) digests — one per
// packed member plus one over the whole payload — and the verify stage
// checks the frame before a single byte is decompressed. Corruption
// anywhere between pack and verify (a flipped bit on the wire, a truncated
// archive on disk) therefore surfaces as a typed, retryable checksum error
// instead of a garbage reconstruction, mirroring the checksum-verified
// delivery contract of the Globus transfers the source paper rides on.
//
// Frame layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "OCIF"
//	4       1     version (1)
//	5       4     n — member digest count
//	9       4     CRC-32C of the payload
//	13      4*n   CRC-32C of each packed member, in pack order
//	13+4n   4     CRC-32C of the header (bytes [0, 13+4n))
//	17+4n   ...   payload (the packed group archive)
//
// The trailing header CRC lets Verify distinguish a corrupted header from
// a corrupted payload and guarantees a bit flip anywhere in the frame is
// detected. Verify never allocates more than the frame itself can justify:
// the member-digest count is bounded by the frame length before the digest
// slice is built, so truncated or hostile frames cannot force oversized
// allocations (enforced by ocelotvet's alloccap analyzer).
//
// A copy that fails Verify is repaired block by block rather than resent
// whole. The receiver answers with a NAK (BlockSums): the CRC-32C of each
// RepairBlock-byte block it holds, 4 bytes little-endian each. The sender
// answers with a repair (Repair) carrying only the blocks whose CRCs
// differ or are missing:
//
//	offset  size  field
//	0       8     archive length L
//	8       4     index i of the first resent block
//	12      b     its bytes: RepairBlock, or less for the archive's last block
//	12+b    ...   further (index, bytes) pairs, indices strictly ascending
//
// The engine ships the repair like any archive — one grouping member in
// an OCIF frame — and the receiver patches its copy (Patch) and checks the
// result with the unchanged whole-frame Verify, so a bad block sum or a
// damaged repair can delay a copy but never pass one. Block sums are
// computed only after a frame fails, and the frame layout is unchanged, so
// a clean delivery costs no byte and no hash more than before.
package integrity

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// frameMagic is "OCIF" read little-endian.
const frameMagic uint32 = 'O' | 'C'<<8 | 'I'<<16 | 'F'<<24

// frameVersion is the current frame format version.
const frameVersion = 1

// headerFixed is the frame size before the member digests and payload:
// magic (4) + version (1) + count (4) + payload CRC (4).
const headerFixed = 13

// payloadSumAt is the offset of the payload CRC in the header.
const payloadSumAt = 9

// minFrame is the smallest well-formed frame: fixed header, zero member
// digests, header CRC, empty payload.
const minFrame = headerFixed + 4

// ErrCorrupt is the base error for every frame that fails verification —
// structurally malformed, truncated, or checksum-mismatched. Callers test
// with errors.Is; the campaign verify stage classifies it as detected
// corruption and re-requests the group.
var ErrCorrupt = errors.New("integrity: corrupt frame")

// castagnoli is the CRC-32C table shared by all checksum computations.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C (Castagnoli) digest of b — the same digest
// recorded per member at pack time and in the campaign journal's group
// records.
func Checksum(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}

// Overhead returns the frame size added on top of the payload for a group
// with n packed members.
func Overhead(n int) int {
	return minFrame + 4*n
}

// Wrap frames payload with the given per-member digests (obtained from
// Checksum over each member's packed bytes, in pack order). The returned
// frame is a fresh slice; payload is not modified.
func Wrap(payload []byte, memberSums []uint32) []byte {
	return Seal(append(Reserve(len(memberSums), len(payload)), payload...), memberSums)
}

// Reserve returns a frame for n member digests whose header is reserved
// but not yet written — Overhead(n) bytes, with room for size more — so a
// payload appended to it lands in place, and Seal writes the header once
// the payload is whole.
func Reserve(n, size int) []byte {
	return make([]byte, Overhead(n), Overhead(n)+size)
}

// Seal writes the header of a frame built on Reserve(len(memberSums), …):
// everything after the reserved header is the payload. It returns framed,
// now Wrap(payload, memberSums) byte for byte, without copying the
// payload.
func Seal(framed []byte, memberSums []uint32) []byte {
	n := len(memberSums)
	headerEnd := headerFixed + 4*n
	framed[0], framed[1], framed[2], framed[3] = 'O', 'C', 'I', 'F'
	framed[4] = frameVersion
	binary.LittleEndian.PutUint32(framed[5:], uint32(n))
	binary.LittleEndian.PutUint32(framed[payloadSumAt:], Checksum(framed[headerEnd+4:]))
	for i, s := range memberSums {
		binary.LittleEndian.PutUint32(framed[headerFixed+4*i:], s)
	}
	binary.LittleEndian.PutUint32(framed[headerEnd:], Checksum(framed[:headerEnd]))
	return framed
}

// PayloadChecksum returns the payload CRC-32C recorded in a frame's header,
// without hashing the payload again. framed must come from Wrap; frames of
// unknown origin go through Verify.
func PayloadChecksum(framed []byte) uint32 {
	return binary.LittleEndian.Uint32(framed[payloadSumAt:])
}

// Verify checks a frame end to end — structure, header CRC, payload CRC —
// and returns the payload and the per-member digests recorded at pack
// time. The payload aliases framed (no copy). Every failure wraps
// ErrCorrupt; Verify never panics on hostile input.
func Verify(framed []byte) (payload []byte, memberSums []uint32, err error) {
	if len(framed) < minFrame {
		return nil, nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte minimum", ErrCorrupt, len(framed), minFrame)
	}
	if binary.LittleEndian.Uint32(framed[0:]) != frameMagic {
		return nil, nil, fmt.Errorf("%w: bad magic %#08x", ErrCorrupt, binary.LittleEndian.Uint32(framed[0:]))
	}
	if framed[4] != frameVersion {
		return nil, nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, framed[4])
	}
	n := int(binary.LittleEndian.Uint32(framed[5:]))
	// Bound the digest count by the bytes actually present before
	// allocating: each member digest occupies 4 bytes of header.
	if n < 0 || n > (len(framed)-minFrame)/4 {
		return nil, nil, fmt.Errorf("%w: member count %d exceeds frame capacity", ErrCorrupt, n)
	}
	headerEnd := headerFixed + 4*n
	wantHeader := binary.LittleEndian.Uint32(framed[headerEnd:])
	if got := Checksum(framed[:headerEnd]); got != wantHeader {
		return nil, nil, fmt.Errorf("%w: header checksum mismatch (got %#08x want %#08x)", ErrCorrupt, got, wantHeader)
	}
	payload = framed[headerEnd+4:]
	wantPayload := PayloadChecksum(framed)
	if got := Checksum(payload); got != wantPayload {
		return nil, nil, fmt.Errorf("%w: payload checksum mismatch (got %#08x want %#08x)", ErrCorrupt, got, wantPayload)
	}
	memberSums = make([]uint32, n)
	for i := range memberSums {
		memberSums[i] = binary.LittleEndian.Uint32(framed[headerFixed+4*i:])
	}
	return payload, memberSums, nil
}

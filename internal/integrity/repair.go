package integrity

import (
	"encoding/binary"
	"fmt"
)

// RepairBlock is the repair protocol's block size. Of 4, 16 and 64 KiB,
// 4 KiB moved the most data per second over a simulated 5 MB/s WAN that
// corrupts a quarter of its deliveries: a larger block resends more clean
// bytes around each flipped bit. A smaller one lengthens the NAK, which
// at 4 KiB is 0.1 % of the copy held (4 bytes per block).
const RepairBlock = 4 << 10

// block returns block i of b; the last block of b may be short.
func block(b []byte, i int) []byte {
	start := i * RepairBlock
	return b[start:min(len(b), start+RepairBlock)]
}

// BlockSums is the receiver's NAK for a copy that failed Verify: the
// CRC-32C of each RepairBlock-byte block of have, in order, 4 bytes
// little-endian each (the last block may be short).
func BlockSums(have []byte) []byte {
	n := (len(have) + RepairBlock - 1) / RepairBlock
	nak := make([]byte, 4*n)
	for i := range n {
		binary.LittleEndian.PutUint32(nak[4*i:], Checksum(block(have, i)))
	}
	return nak
}

// Repair is the sender's answer to a NAK: want's length, then every block
// of want whose CRC-32C the NAK does not report, in ascending order. A
// receiver that holds nothing, or only garbage, gets every block.
func Repair(want, nak []byte) []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(len(want)))
	for i := 0; i*RepairBlock < len(want); i++ {
		b := block(want, i)
		if 4*i+4 <= len(nak) && binary.LittleEndian.Uint32(nak[4*i:]) == Checksum(b) {
			continue
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(i))
		out = append(out, b...)
	}
	return out
}

// Patch applies a repair to have in place and returns the patched copy:
// have[:L], when the archive length L the repair declares fits in have, or
// else a fresh slice of L bytes that starts with have's. Every block the
// repair does not carry must lie wholly inside have. The whole repair is
// checked before a byte of have is written, so a malformed one wraps
// ErrCorrupt and leaves have as it was; and Patch never allocates more than
// len(have)+len(repair) bytes: every byte of the patched copy comes from
// one of the two, so a longer declared length is refused before anything
// is allocated. A caller whose have may alias memory it does not own (a
// delivery that is the sender's buffer) patches a copy of its own. Patch
// does not check the result; the caller passes it through Verify.
func Patch(have, repair []byte) ([]byte, error) {
	if len(repair) < 8 {
		return nil, fmt.Errorf("%w: %d-byte repair is shorter than its length field", ErrCorrupt, len(repair))
	}
	size := binary.LittleEndian.Uint64(repair)
	if size > uint64(len(have)+len(repair)) {
		return nil, fmt.Errorf("%w: repair declares %d bytes, more than %d held and %d sent", ErrCorrupt, size, len(have), len(repair))
	}
	n := int(size)
	held := min(len(have), n)
	next := 0 // first block neither patched nor checked to be held
	for body := repair[8:]; len(body) > 0; {
		if len(body) < 4 {
			return nil, fmt.Errorf("%w: repair ends inside a block index", ErrCorrupt)
		}
		i := int(binary.LittleEndian.Uint32(body))
		start := i * RepairBlock
		if i < next || start >= n {
			return nil, fmt.Errorf("%w: repair block %d out of order or past the %d-byte archive", ErrCorrupt, i, n)
		}
		if i > next && start > held {
			return nil, fmt.Errorf("%w: repair skips block %d, which is not held", ErrCorrupt, held/RepairBlock)
		}
		b := min(n-start, RepairBlock)
		if len(body)-4 < b {
			return nil, fmt.Errorf("%w: repair block %d truncated", ErrCorrupt, i)
		}
		body = body[4+b:]
		next = i + 1
	}
	if next*RepairBlock < n && held < n {
		return nil, fmt.Errorf("%w: repair skips block %d, which is not held", ErrCorrupt, held/RepairBlock)
	}
	out := have[:held]
	if held < n {
		out = make([]byte, n)
		copy(out, have)
	}
	for body := repair[8:]; len(body) > 0; {
		i := int(binary.LittleEndian.Uint32(body))
		body = body[4+copy(block(out, i), body[4:]):]
	}
	return out, nil
}

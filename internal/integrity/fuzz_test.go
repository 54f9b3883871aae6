package integrity

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzIntegrityFrame feeds arbitrary bytes to Verify: corrupt or truncated
// frames must error (never panic) and never allocate past what the input
// length justifies, and any frame Verify accepts must round-trip through
// Wrap to the identical bytes.
func FuzzIntegrityFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("OCIF"))
	f.Add(Wrap(nil, nil))
	f.Add(Wrap([]byte("payload"), []uint32{1, 2, 3}))
	trunc := Wrap([]byte("truncate me"), []uint32{7})
	f.Add(trunc[:len(trunc)-3])
	flip := Wrap([]byte("flip me"), []uint32{9, 9})
	flip[len(flip)-1] ^= 0x40
	f.Add(flip)
	huge := Wrap([]byte("n"), nil)
	huge[7] = 0xff // absurd member count vs frame length
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, sums, err := Verify(data)
		if err != nil {
			return
		}
		if len(sums) > (len(data)-minFrame)/4 {
			t.Fatalf("accepted %d member sums from a %d-byte frame", len(sums), len(data))
		}
		// An accepted frame must re-encode to exactly the input bytes.
		if re := Wrap(payload, sums); !bytes.Equal(re, data) {
			t.Fatalf("accepted frame does not round-trip: %d bytes in, %d bytes re-encoded", len(data), len(re))
		}
	})
}

// FuzzIntegrityRepair holds the repair protocol to its two promises.
// Arbitrary bytes applied as a repair to an arbitrary copy must error or
// patch, never panic, and never allocate past len(have)+len(repair). And a
// copy damaged by bit flips and truncation, repaired from its own block
// sums, must come back exactly as sent. want is size bytes (up to four
// blocks and one byte) cycling through seed; flips holds little-endian
// uint32 bit positions; a cut below the copy's length truncates it there.
func FuzzIntegrityRepair(f *testing.F) {
	f.Add([]byte("archive"), uint32(3*RepairBlock+17), []byte{1, 0, 0, 0, 0, 0, 2, 0}, uint32(1<<31), []byte{})
	f.Add([]byte{}, uint32(2*RepairBlock), []byte{}, uint32(RepairBlock), []byte{8, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("x"), uint32(RepairBlock+1), []byte{0xff, 0xff, 0xff, 0xff}, uint32(0), []byte{0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte("seed"), uint32(0), []byte{}, uint32(5), []byte{1, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 'z'})
	f.Add([]byte("ab"), uint32(100), []byte{9, 0, 0, 0}, uint32(50), []byte{100, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, seed []byte, size uint32, flips []byte, cut uint32, junk []byte) {
		want := make([]byte, int(size)%(4*RepairBlock+2))
		for i := range want {
			if len(seed) > 0 {
				want[i] = seed[i%len(seed)] + byte(i/len(seed))
			}
		}

		// Arbitrary bytes as a repair of want.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := Patch(want, junk)
		runtime.ReadMemStats(&after)
		// The slack covers size-class rounding of the patched copy and
		// the error value.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(want)+len(junk))+16<<10; got > limit {
			t.Fatalf("Patch allocated %d bytes for a %d-byte copy and a %d-byte repair", got, len(want), len(junk))
		}
		if err == nil && len(out) > len(want)+len(junk) {
			t.Fatalf("patched copy of %d bytes from %d held and %d sent", len(out), len(want), len(junk))
		}

		// A damaged copy repaired from its own block sums.
		have := append([]byte(nil), want...)
		for ; len(flips) >= 4 && len(have) > 0; flips = flips[4:] {
			bit := int(binary.LittleEndian.Uint32(flips) % uint32(8*len(have)))
			have[bit/8] ^= 1 << (bit % 8)
		}
		if int(cut) < len(have) {
			have = have[:cut]
		}
		got, err := Patch(have, Repair(want, BlockSums(have)))
		if err != nil {
			t.Fatalf("repair of a %d-byte copy of %d bytes: %v", len(have), len(want), err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("repaired copy differs from what was sent (%d bytes, want %d)", len(got), len(want))
		}
	})
}

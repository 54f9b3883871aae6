package integrity

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestWrapVerifyRoundTrip(t *testing.T) {
	payload := []byte("packed group archive bytes")
	sums := []uint32{Checksum([]byte("member-a")), Checksum([]byte("member-b")), 0}
	framed := Wrap(payload, sums)
	if len(framed) != Overhead(len(sums))+len(payload) {
		t.Fatalf("frame length = %d, want %d", len(framed), Overhead(len(sums))+len(payload))
	}
	got, gotSums, err := Verify(framed)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload round trip: got %q want %q", got, payload)
	}
	if len(gotSums) != len(sums) {
		t.Fatalf("member sums: got %d want %d", len(gotSums), len(sums))
	}
	for i := range sums {
		if gotSums[i] != sums[i] {
			t.Fatalf("member sum %d: got %#08x want %#08x", i, gotSums[i], sums[i])
		}
	}
}

// PayloadChecksum reads back exactly the digest Checksum computes over the
// payload Wrap framed, for any member count and payload size.
func TestPayloadChecksumMatchesChecksum(t *testing.T) {
	for _, tc := range []struct {
		name    string
		payload []byte
		sums    []uint32
	}{
		{"empty", nil, nil},
		{"one-byte", []byte("x"), []uint32{7}},
		{"10KB", bytes.Repeat([]byte("packed group archive "), 500), []uint32{1, 2, 3, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			framed := Wrap(tc.payload, tc.sums)
			if got, want := PayloadChecksum(framed), Checksum(tc.payload); got != want {
				t.Fatalf("PayloadChecksum = %#08x, Checksum = %#08x", got, want)
			}
		})
	}
}

func TestVerifyEmptyPayloadNoMembers(t *testing.T) {
	framed := Wrap(nil, nil)
	payload, sums, err := Verify(framed)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if len(payload) != 0 || len(sums) != 0 {
		t.Fatalf("got payload %d bytes, %d sums; want empty", len(payload), len(sums))
	}
}

// Every single-bit flip anywhere in the frame must be detected.
func TestVerifyDetectsEveryBitFlip(t *testing.T) {
	payload := []byte("the quick brown fox jumps over the lazy dog")
	framed := Wrap(payload, []uint32{1, 2, 3})
	for pos := range framed {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), framed...)
			mut[pos] ^= 1 << bit
			if _, _, err := Verify(mut); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip byte %d bit %d: err = %v, want ErrCorrupt", pos, bit, err)
			}
		}
	}
}

func TestVerifyDetectsTruncation(t *testing.T) {
	framed := Wrap([]byte("payload"), []uint32{42})
	for cut := 0; cut < len(framed); cut++ {
		if _, _, err := Verify(framed[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncate to %d bytes: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestVerifyRejectsOversizedMemberCount(t *testing.T) {
	// A frame whose declared member count exceeds what its length can
	// hold must be rejected before any digest slice is allocated.
	framed := Wrap([]byte("p"), nil)
	framed[5], framed[6], framed[7], framed[8] = 0xff, 0xff, 0xff, 0x7f
	if _, _, err := Verify(framed); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestVerifyRejectsWrongMagicAndVersion(t *testing.T) {
	framed := Wrap([]byte("p"), nil)
	bad := append([]byte(nil), framed...)
	bad[0] = 'X'
	if _, _, err := Verify(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("magic: err = %v, want ErrCorrupt", err)
	}
	bad = append([]byte(nil), framed...)
	bad[4] = 99
	if _, _, err := Verify(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version: err = %v, want ErrCorrupt", err)
	}
}

func TestChecksumIsCastagnoli(t *testing.T) {
	// CRC-32C of "123456789" is the well-known check value 0xE3069283.
	if got := Checksum([]byte("123456789")); got != 0xE3069283 {
		t.Fatalf("Checksum = %#08x, want 0xE3069283 (CRC-32C check value)", got)
	}
}

// A repair carries the archive length and, per damaged or missing block,
// its index and bytes — nothing for the blocks the receiver holds intact.
func TestRepairCarriesOnlyDamagedBlocks(t *testing.T) {
	want := bytes.Repeat([]byte("archive bytes "), 4*RepairBlock/14+3) // four full blocks and a short one
	tail := len(want) - 4*RepairBlock
	for _, tc := range []struct {
		name   string
		damage func([]byte) []byte
		bytes  int // repair size
	}{
		{"intact", func(b []byte) []byte { return b }, 8},
		{"one flip", func(b []byte) []byte { b[RepairBlock+5] ^= 4; return b }, 8 + 4 + RepairBlock},
		{"flips in two blocks", func(b []byte) []byte { b[0] ^= 1; b[len(b)-1] ^= 1; return b }, 8 + 4 + RepairBlock + 4 + tail},
		{"cut mid-block", func(b []byte) []byte { return b[:2*RepairBlock+1] }, 8 + 2*(4+RepairBlock) + 4 + tail},
		{"cut on a boundary", func(b []byte) []byte { return b[:3*RepairBlock] }, 8 + 4 + RepairBlock + 4 + tail},
		{"nothing held", func([]byte) []byte { return nil }, 8 + 4*(4+RepairBlock) + 4 + tail},
		{"longer than sent", func(b []byte) []byte { return append(b, "extra"...) }, 8 + 4 + tail},
	} {
		t.Run(tc.name, func(t *testing.T) {
			have := tc.damage(append([]byte(nil), want...))
			if got := len(BlockSums(have)); got != 4*((len(have)+RepairBlock-1)/RepairBlock) {
				t.Fatalf("NAK of %d bytes for a %d-byte copy", got, len(have))
			}
			repair := Repair(want, BlockSums(have))
			if len(repair) != tc.bytes {
				t.Errorf("repair is %d bytes, want %d", len(repair), tc.bytes)
			}
			got, err := Patch(have, repair)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("patched copy differs from the archive sent")
			}
		})
	}
}

// Patch refuses a repair that is malformed or does not fit the copy it is
// applied to, before trusting any length in it.
func TestPatchRefusesMalformed(t *testing.T) {
	want := bytes.Repeat([]byte{7}, 3*RepairBlock)
	have := want[:RepairBlock]
	good := Repair(want, BlockSums(have)) // blocks 1 and 2
	for _, tc := range []struct {
		name   string
		repair []byte
	}{
		{"empty", nil},
		{"short length field", good[:7]},
		{"length past held and sent", binary.LittleEndian.AppendUint64(nil, 1<<62)},
		{"index cut short", good[:8+2]},
		{"block cut short", good[:len(good)-1]},
		{"block not held and not sent", good[:8+4+RepairBlock]},
		{"index past the archive", append(binary.LittleEndian.AppendUint64(nil, 10), 1, 0, 0, 0)},
		{"indices out of order", append(append(append([]byte(nil), good...), 1, 0, 0, 0), make([]byte, RepairBlock)...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Patch(have, tc.repair); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// Patch writes into the copy it is given, and only there: a copy that
// holds the whole archive comes back patched in its own memory, a shorter
// one in a fresh slice, and a malformed repair, or bytes past the copy's
// length, are never written.
func TestPatchInPlace(t *testing.T) {
	want := bytes.Repeat([]byte("in place "), 3*RepairBlock/9+5) // three full blocks and a short one
	damaged := func(n int) []byte {
		have := append(make([]byte, 0, len(want)+RepairBlock), want[:n]...)
		have[n/2] ^= 8
		return have
	}

	have := damaged(len(want))
	got, err := Patch(have, Repair(want, BlockSums(have)))
	if err != nil || !bytes.Equal(got, want) || &got[0] != &have[0] {
		t.Fatalf("whole copy: err %v, patched %v, in place %v", err, bytes.Equal(got, want), err == nil && &got[0] == &have[0])
	}

	have = append(damaged(len(want)), "extra"...) // longer than sent
	got, err = Patch(have, Repair(want, BlockSums(have)))
	if err != nil || !bytes.Equal(got, want) || &got[0] != &have[0] {
		t.Fatalf("longer copy: err %v, patched %v", err, bytes.Equal(got, want))
	}

	short := damaged(2*RepairBlock + 7)
	spare := short[:cap(short)]
	for i := len(short); i < len(spare); i++ {
		spare[i] = 0xee
	}
	was := bytes.Clone(spare)
	got, err = Patch(short, Repair(want, BlockSums(short)))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("short copy: err %v, patched %v", err, bytes.Equal(got, want))
	}
	if !bytes.Equal(spare, was) {
		t.Fatal("patching a short copy wrote into it or past its length")
	}

	have = damaged(len(want))
	was = bytes.Clone(have)
	bad := Repair(want, BlockSums(have))
	bad = append(bad, 9, 0, 0, 0) // a block index past the archive, after a good block
	if _, err := Patch(have, bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("malformed repair: err %v, want ErrCorrupt", err)
	}
	if !bytes.Equal(have, was) {
		t.Fatal("a malformed repair was partly applied")
	}
}

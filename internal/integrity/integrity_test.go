package integrity

import (
	"bytes"
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

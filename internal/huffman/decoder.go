package huffman

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// primaryBits is the width of the first-level decode table. Every code of
// length ≤ primaryBits resolves with a single Peek + table load; canonical
// Huffman codes for realistic quantization-bin distributions are almost
// entirely ≤ 12 bits, so the overflow path is cold.
const primaryBits = 12

// decoder is the two-level table-driven canonical Huffman decoder.
//
// The primary table maps every primaryBits-wide window of upcoming stream
// bits to a packed (symbol, length) entry: a code of length L ≤ primaryBits
// owns all 2^(primaryBits−L) slots sharing its prefix, so one Peek resolves
// the symbol and tells the reader exactly how many bits to Skip. Entries
// are sym<<8 | len (symbols < 2^24, lengths ≤ 58), and 0 marks a window
// whose prefix belongs to a longer code — those fall back to the canonical
// length-bucket walk seeded with the primaryBits already read.
//
// decoders are pooled: the 16 KiB primary table and the scratch arrays are
// reused across DecodeInto calls, so steady-state decompression does not
// allocate per-call decode tables.
type decoder struct {
	primary    []uint32
	symbols    []int32 // canonical (length, symbol) order
	order      []symLen
	lengths    []uint8 // table-deserialization scratch, alphabet-sized
	firstCode  [maxCodeLen + 2]uint64
	firstIndex [maxCodeLen + 2]int32
	count      [maxCodeLen + 2]int32
	minLen     uint8
	maxLen     uint8
}

var decoderPool = sync.Pool{New: func() interface{} {
	return &decoder{primary: make([]uint32, 1<<primaryBits)}
}}

// init builds the decode tables from per-symbol code lengths. It performs
// the same canonical assignment as TableFromLengths and rejects the same
// malformed inputs (oversubscribed lengths whose canonical codes overflow
// their bit width), so every table the bucket decoder accepted or refused
// gets the identical verdict here.
func (d *decoder) init(lengths []uint8) error {
	order, err := canonicalOrder(lengths, d.order[:0])
	if err != nil {
		return err
	}
	d.order = order
	d.minLen = order[0].ln
	d.maxLen = order[len(order)-1].ln
	for i := range d.count {
		d.count[i] = 0
	}
	for i := range d.primary {
		d.primary[i] = 0
	}
	if cap(d.symbols) < len(order) {
		d.symbols = make([]int32, len(order))
	}
	d.symbols = d.symbols[:len(order)]

	// Canonical walk: assign each code, validate it fits its length, and
	// fill the primary-table slots owned by short codes.
	var code uint64
	prevLen := order[0].ln
	for i, sl := range order {
		code <<= sl.ln - prevLen
		if sl.ln < 64 && code >= 1<<sl.ln {
			return ErrCorrupt
		}
		d.symbols[i] = sl.sym
		d.count[sl.ln]++
		if sl.ln <= primaryBits {
			shift := primaryBits - uint(sl.ln)
			base := uint32(code) << shift
			entry := uint32(sl.sym)<<8 | uint32(sl.ln)
			for j := uint32(0); j < 1<<shift; j++ {
				d.primary[base+j] = entry
			}
		}
		code++
		prevLen = sl.ln
	}

	// Length-bucket index for the overflow path (codes > primaryBits).
	code = 0
	var idx int32
	for ln := d.minLen; ln <= d.maxLen; ln++ {
		d.firstCode[ln] = code
		d.firstIndex[ln] = idx
		code = (code + uint64(d.count[ln])) << 1
		idx += d.count[ln]
	}
	return nil
}

// parseTableLengths deserializes the canonical-table header into a dense
// per-symbol length array (reusing scratch when it is large enough) and
// returns the remaining stream. Validation matches DeserializeTable.
func parseTableLengths(stream []byte, scratch []uint8) (lengths []uint8, rest []byte, err error) {
	if len(stream) < 8 {
		return nil, nil, ErrCorrupt
	}
	alphabet := int(binary.LittleEndian.Uint32(stream[:4]))
	used := int(binary.LittleEndian.Uint32(stream[4:8]))
	if alphabet <= 0 || alphabet > 1<<24 || used <= 0 || used > alphabet {
		return nil, nil, ErrCorrupt
	}
	need := 8 + used*5
	if len(stream) < need {
		return nil, nil, ErrCorrupt
	}
	if cap(scratch) >= alphabet {
		lengths = scratch[:alphabet]
		for i := range lengths {
			lengths[i] = 0
		}
	} else {
		lengths = make([]uint8, alphabet)
	}
	off := 8
	for i := 0; i < used; i++ {
		sym := int(binary.LittleEndian.Uint32(stream[off : off+4]))
		ln := stream[off+4]
		off += 5
		if sym < 0 || sym >= alphabet || ln == 0 || ln > maxCodeLen {
			return nil, nil, ErrCorrupt
		}
		lengths[sym] = ln
	}
	return lengths, stream[need:], nil
}

// DecodeInto decompresses a stream produced by EncodeToSized into s,
// reusing both lanes' capacity. It is the one decoder: a pooled
// two-level table decoder, a word-at-a-time bit reader, and no per-symbol
// allocations. Corrupt tables, truncated payloads, and symbol-count lies
// all return errors wrapping ErrCorrupt.
func DecodeInto(s *SymbolStream, stream []byte) error {
	d := decoderPool.Get().(*decoder)
	defer decoderPool.Put(d)

	lengths, rest, err := parseTableLengths(stream, d.lengths)
	if err != nil {
		return err
	}
	d.lengths = lengths
	if err := d.init(lengths); err != nil {
		return err
	}
	if len(rest) < 8 {
		return ErrCorrupt
	}
	count := binary.LittleEndian.Uint64(rest[:8])
	if count > 1<<40 {
		return ErrCorrupt
	}
	payload := rest[8:]
	// Every symbol consumes at least one payload bit, so a count beyond
	// the payload's bit length is a lie — reject it before allocating
	// count entries (a crafted 16-byte stream must not demand terabytes).
	if count > uint64(len(payload))*8 {
		return ErrCorrupt
	}
	n := int(count)
	if cap(s.Packed) < n {
		s.Packed = make([]uint16, n)
	}
	packed := s.Packed[:n]
	wide := s.Wide[:0]

	// The symbol loop keeps the bit-reader state (left-aligned 64-bit
	// accumulator, valid-bit count, source position) in locals: one table
	// load plus a shift pair per short code, with the accumulator refilled
	// eight bytes at a time. Bits below nacc are always zero, so peeking
	// past the end of the payload reads zero padding; a code that would
	// consume those bits is rejected as truncation below.
	var acc uint64
	var nacc uint
	pos := 0
	primary := d.primary
	for i := 0; i < n; i++ {
		if nacc <= 56 {
			if pos+8 <= len(payload) && nacc == 0 {
				acc = binary.BigEndian.Uint64(payload[pos:])
				nacc = 64
				pos += 8
			} else {
				for nacc <= 56 && pos < len(payload) {
					acc |= uint64(payload[pos]) << (56 - nacc)
					nacc += 8
					pos++
				}
			}
		}
		var sym int32
		if e := primary[acc>>(64-primaryBits)]; e != 0 {
			ln := uint(e & 0xff)
			if ln > nacc {
				return fmt.Errorf("huffman: truncated payload: %w", ErrCorrupt)
			}
			acc <<= ln
			nacc -= ln
			sym = int32(e >> 8)
		} else {
			// Overflow path: no code of length ≤ primaryBits matches.
			// Consume the primary window and extend bit by bit through the
			// canonical length buckets, exactly like the pre-table decoder.
			if nacc < primaryBits {
				// Source exhausted mid-window: any real code this short
				// would have hit the primary table.
				return fmt.Errorf("huffman: truncated payload: %w", ErrCorrupt)
			}
			code := acc >> (64 - primaryBits)
			acc <<= primaryBits
			nacc -= primaryBits
			ln := uint8(primaryBits)
			for {
				if ln >= d.maxLen {
					return ErrCorrupt
				}
				if nacc == 0 {
					for nacc <= 56 && pos < len(payload) {
						acc |= uint64(payload[pos]) << (56 - nacc)
						nacc += 8
						pos++
					}
					if nacc == 0 {
						return fmt.Errorf("huffman: truncated payload: %w", ErrCorrupt)
					}
				}
				code = code<<1 | acc>>63
				acc <<= 1
				nacc--
				ln++
				if d.count[ln] > 0 && code >= d.firstCode[ln] {
					if off := code - d.firstCode[ln]; off < uint64(d.count[ln]) {
						sym = d.symbols[d.firstIndex[ln]+int32(off)]
						break
					}
				}
			}
		}
		if sym >= WideEscape {
			packed[i] = WideEscape
			wide = append(wide, sym)
		} else {
			packed[i] = uint16(sym)
		}
	}
	s.Packed = packed
	s.Wide = wide
	return nil
}

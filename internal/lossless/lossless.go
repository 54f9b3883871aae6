// Package lossless provides byte-level lossless backends (DEFLATE from the
// standard library and a self-contained LZSS codec): the pass over the body
// of sz3 stream version 1, after Huffman coding (SZ3 itself uses zstd), and
// the bound audit's lossless quarantine. Version 2 sz3 streams have no
// lossless pass. Every stream is prefixed with a one-byte backend tag plus
// the uncompressed length so decompression is self-describing. The
// unpooled DEFLATE path the pooled one is pinned against is
// oracle.ReferenceCompress, which only tests link.
package lossless

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Backend selects the lossless algorithm.
type Backend uint8

const (
	// None stores bytes verbatim (useful for already-dense streams).
	None Backend = iota + 1
	// Deflate uses compress/flate at the default level.
	Deflate
	// LZSS uses the package's own LZ77/LZSS implementation.
	LZSS
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case None:
		return "none"
	case Deflate:
		return "deflate"
	case LZSS:
		return "lzss"
	default:
		return fmt.Sprintf("backend(%d)", uint8(b))
	}
}

// ErrCorrupt indicates a malformed compressed stream.
var ErrCorrupt = errors.New("lossless: corrupt stream")

// Compress encodes data with the requested backend. If the backend expands
// the data it transparently falls back to None.
func Compress(data []byte, backend Backend) ([]byte, error) {
	return AppendCompress(nil, data, backend)
}

// MaxCompressedLen is the longest stream Compress makes of n bytes: the
// backend tag and length prefix, then at most the n bytes verbatim.
func MaxCompressedLen(n int) int { return n + 9 }

// AppendCompress appends Compress's stream of data to dst and returns the
// extended slice; dst with MaxCompressedLen(len(data)) bytes of spare
// capacity takes it without growing.
func AppendCompress(dst, data []byte, backend Backend) ([]byte, error) {
	var body []byte
	var err error
	var release func()
	switch backend {
	case None:
		body = data
	case Deflate:
		body, release, err = deflateCompress(data)
	case LZSS:
		body = lzssCompress(data)
	default:
		return nil, fmt.Errorf("lossless: unknown backend %d", backend)
	}
	if err != nil {
		return nil, err
	}
	if backend != None && len(body) >= len(data) {
		backend, body = None, data
	}
	out := append(slices.Grow(dst, len(body)+9), byte(backend))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(data)))
	out = append(out, body...)
	// body has been copied into out; a pooled deflate buffer can go back.
	if release != nil {
		release()
	}
	return out, nil
}

// Decompress decodes a stream produced by Compress.
func Decompress(stream []byte) ([]byte, error) {
	if len(stream) < 9 {
		return nil, ErrCorrupt
	}
	backend := Backend(stream[0])
	size := binary.LittleEndian.Uint64(stream[1:9])
	if size > 1<<40 {
		return nil, ErrCorrupt
	}
	body := stream[9:]
	// The size prefix is attacker-controlled until the body actually
	// inflates. Deflate tops out near 1032:1 and LZSS near 1366:1, so a
	// claimed size beyond 4096× the body is a lie — reject it before
	// allocating (a crafted 50-byte stream must not demand terabytes).
	if size > 4096*uint64(len(body))+64 {
		return nil, ErrCorrupt
	}
	switch backend {
	case None:
		if uint64(len(body)) != size {
			return nil, ErrCorrupt
		}
		out := make([]byte, size)
		copy(out, body)
		return out, nil
	case Deflate:
		return deflateDecompress(body, int(size))
	case LZSS:
		return lzssDecompress(body, int(size))
	default:
		return nil, fmt.Errorf("lossless: unknown backend %d: %w", backend, ErrCorrupt)
	}
}

// Flate keeps large internal state (hash chains on the write side, a
// sliding window on the read side) that the standard constructors allocate
// per call; pooling the coders — and the output buffer, whose bytes
// Compress copies into the framed stream before releasing — removes that
// cost from the compression hot path. flate output is deterministic for a
// given input and level, and Reset restores the initial coder state, so
// pooled coders emit byte-identical streams.
var (
	deflateWriterPool sync.Pool
	deflateReaderPool sync.Pool
	deflateBufPool    = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}
)

// deflateCompress returns the compressed body plus a release function that
// recycles the backing buffer; the caller must copy the body out before
// calling release.
func deflateCompress(data []byte) ([]byte, func(), error) {
	buf := deflateBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	release := func() { deflateBufPool.Put(buf) }
	w, _ := deflateWriterPool.Get().(*flate.Writer)
	if w == nil {
		var err error
		w, err = flate.NewWriter(buf, flate.DefaultCompression)
		if err != nil {
			release()
			return nil, nil, err
		}
	} else {
		w.Reset(buf)
	}
	defer deflateWriterPool.Put(w)
	if _, err := w.Write(data); err != nil {
		release()
		return nil, nil, err
	}
	if err := w.Close(); err != nil {
		release()
		return nil, nil, err
	}
	return buf.Bytes(), release, nil
}

func deflateDecompress(body []byte, size int) ([]byte, error) {
	br := bytes.NewReader(body)
	r, _ := deflateReaderPool.Get().(io.ReadCloser)
	if r == nil {
		r = flate.NewReader(br)
	} else if err := r.(flate.Resetter).Reset(br, nil); err != nil {
		// The reader is still reusable — Reset with a nil dictionary only
		// fails on the source, and the next user Resets again anyway.
		deflateReaderPool.Put(r)
		return nil, err
	}
	defer deflateReaderPool.Put(r)
	out := make([]byte, size)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, fmt.Errorf("lossless: inflate: %w", ErrCorrupt)
	}
	return out, nil
}

// --- LZSS ---
//
// Token stream: a flag byte precedes every 8 tokens; bit i set means token i
// is a (length, distance) match encoded as 3 bytes: 12-bit distance,
// 4+8 = 12-bit length-3. Clear bits are literals.

const (
	lzWindow   = 1 << 12 // 4096-byte window (12-bit distance)
	lzMinMatch = 3
	lzMaxMatch = (1 << 12) - 1 + lzMinMatch
	lzHashBits = 14
	lzHashSize = 1 << lzHashBits
)

func lzHash(a, b, c byte) uint32 {
	v := uint32(a) | uint32(b)<<8 | uint32(c)<<16
	return (v * 2654435761) >> (32 - lzHashBits)
}

func lzssCompress(data []byte) []byte {
	out := make([]byte, 0, len(data)/2+16)
	var head [lzHashSize]int32
	for i := range head {
		head[i] = -1
	}
	prev := make([]int32, len(data))

	var flagPos int
	var flagBit uint
	emitFlagByte := func() {
		flagPos = len(out)
		out = append(out, 0)
		flagBit = 0
	}
	emitFlagByte()

	i := 0
	for i < len(data) {
		if flagBit == 8 {
			emitFlagByte()
		}
		bestLen, bestDist := 0, 0
		if i+lzMinMatch <= len(data) {
			h := lzHash(data[i], data[i+1], data[i+2])
			cand := head[h]
			tries := 16
			for cand >= 0 && tries > 0 && int(cand) >= i-lzWindow+1 {
				c := int(cand)
				if data[c] == data[i] {
					l := matchLen(data, c, i)
					if l > bestLen {
						bestLen, bestDist = l, i-c
					}
				}
				cand = prev[c]
				tries--
			}
			prev[i] = head[h]
			head[h] = int32(i)
		}
		if bestLen >= lzMinMatch {
			if bestLen > lzMaxMatch {
				bestLen = lzMaxMatch
			}
			out[flagPos] |= 1 << flagBit
			l := bestLen - lzMinMatch
			out = append(out,
				byte(bestDist),
				byte((bestDist>>8)&0x0F)|byte((l&0x0F)<<4),
				byte(l>>4))
			// Insert hash entries for skipped positions.
			for k := i + 1; k < i+bestLen && k+lzMinMatch <= len(data); k++ {
				h := lzHash(data[k], data[k+1], data[k+2])
				prev[k] = head[h]
				head[h] = int32(k)
			}
			i += bestLen
		} else {
			out = append(out, data[i])
			i++
		}
		flagBit++
	}
	return out
}

func matchLen(data []byte, a, b int) int {
	n := 0
	maxN := len(data) - b
	if maxN > lzMaxMatch {
		maxN = lzMaxMatch
	}
	for n < maxN && data[a+n] == data[b+n] {
		n++
	}
	return n
}

func lzssDecompress(body []byte, size int) ([]byte, error) {
	out := make([]byte, 0, size)
	i := 0
	for len(out) < size {
		if i >= len(body) {
			return nil, ErrCorrupt
		}
		flags := body[i]
		i++
		for bit := uint(0); bit < 8 && len(out) < size; bit++ {
			if flags&(1<<bit) != 0 {
				if i+3 > len(body) {
					return nil, ErrCorrupt
				}
				b0, b1, b2 := body[i], body[i+1], body[i+2]
				i += 3
				dist := int(b0) | int(b1&0x0F)<<8
				length := int(b1>>4) | int(b2)<<4
				length += lzMinMatch
				if dist == 0 || dist > len(out) {
					return nil, ErrCorrupt
				}
				start := len(out) - dist
				for k := 0; k < length; k++ {
					out = append(out, out[start+k])
				}
			} else {
				if i >= len(body) {
					return nil, ErrCorrupt
				}
				out = append(out, body[i])
				i++
			}
		}
	}
	if len(out) != size {
		return nil, ErrCorrupt
	}
	return out, nil
}

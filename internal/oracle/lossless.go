package oracle

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"

	"ocelot/internal/lossless"
)

// ReferenceCompress is lossless.Compress with the pre-pooling deflate
// path (a fresh flate.Writer per call). It exists solely for sz's
// pre-overhaul reference path, the byte-compatibility oracle; output bytes
// are identical to lossless.Compress's.
func ReferenceCompress(data []byte, backend lossless.Backend) ([]byte, error) {
	if backend != lossless.Deflate {
		return lossless.Compress(data, backend)
	}
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		return nil, err
	}
	if _, err := w.Write(data); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	body := buf.Bytes()
	if len(body) >= len(data) {
		backend, body = lossless.None, data
	}
	out := make([]byte, 0, len(body)+9)
	out = append(out, byte(backend))
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(data)))
	out = append(out, n[:]...)
	out = append(out, body...)
	return out, nil
}

// ReferenceDecompress is lossless.Decompress with the pre-pooling inflate
// path (a fresh flate.Reader per call); the oracle counterpart of
// ReferenceCompress.
func ReferenceDecompress(stream []byte) ([]byte, error) {
	if len(stream) < 9 || lossless.Backend(stream[0]) != lossless.Deflate {
		return lossless.Decompress(stream)
	}
	size := binary.LittleEndian.Uint64(stream[1:9])
	body := stream[9:]
	if size > 1<<40 || size > 4096*uint64(len(body))+64 {
		return nil, lossless.ErrCorrupt
	}
	r := flate.NewReader(bytes.NewReader(body))
	defer r.Close()
	out := make([]byte, size)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, fmt.Errorf("lossless: inflate: %w", lossless.ErrCorrupt)
	}
	return out, nil
}

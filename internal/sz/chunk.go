package sz

import (
	"encoding/binary"
	"fmt"

	"ocelot/internal/codec"
)

// chunkMagic identifies an Ocelot-SZ chunked container ("OCSC"). It is
// distinct from streamMagic so Decompress can dispatch transparently.
const chunkMagic = 0x4F435343

// chunkVersion is bumped on incompatible container layout changes.
const chunkVersion = 1

// ChunkRange describes one block of a chunk-decomposed field: the rows
// [Start, End) along the slowest axis (dims[0]). Chunks are contiguous in
// the row-major layout, so a chunk is a zero-copy subslice of the field.
type ChunkRange struct {
	// Index is the chunk's position in the plan (0-based).
	Index int
	// Start is the first row (inclusive) along dims[0].
	Start int
	// End is the last row (exclusive) along dims[0].
	End int
}

// rowPoints returns the number of values in one row (the product of the
// trailing dimensions).
func rowPoints(dims []int) int {
	n := 1
	for _, d := range dims[1:] {
		n *= d
	}
	return n
}

// subDims returns the chunk's shape: r.End−r.Start rows of the field's
// trailing dimensions.
func (r ChunkRange) subDims(dims []int) []int {
	out := make([]int, len(dims))
	copy(out, dims)
	out[0] = r.End - r.Start
	return out
}

// NumPoints returns the number of values the range covers within a field of
// the given shape.
func (r ChunkRange) NumPoints(dims []int) int {
	return (r.End - r.Start) * rowPoints(dims)
}

// PlanChunks splits a field shape into independently compressible chunks of
// roughly targetPoints values each, cutting along the slowest axis
// (dims[0]). Rows are distributed as evenly as possible so parallel workers
// get balanced tasks. targetPoints ≤ 0, or a field too small to split,
// yields a single chunk covering the whole field. The plan depends only on
// the shape and target — never on worker count or timing — so two runs of
// the same campaign always decompose identically.
func PlanChunks(dims []int, targetPoints int) []ChunkRange {
	if len(dims) == 0 {
		return nil
	}
	rows := dims[0]
	row := rowPoints(dims)
	if targetPoints <= 0 || row <= 0 || rows <= 0 {
		// Degenerate shapes fall through as a single chunk so the
		// compressor's own dims validation reports the error (instead of a
		// divide-by-zero here).
		return []ChunkRange{{Index: 0, Start: 0, End: rows}}
	}
	rowsPer := targetPoints / row
	if rowsPer < 1 {
		rowsPer = 1
	}
	n := (rows + rowsPer - 1) / rowsPer
	if n < 1 {
		n = 1
	}
	base, rem := rows/n, rows%n
	out := make([]ChunkRange, n)
	start := 0
	for i := range out {
		size := base
		if i < rem {
			size++
		}
		out[i] = ChunkRange{Index: i, Start: start, End: start + size}
		start += size
	}
	return out
}

// PlanChunksBytes is PlanChunks with the target expressed in raw bytes of
// the original dataset (elementSize bytes per value; ≤ 0 assumes float32).
func PlanChunksBytes(dims []int, targetBytes int64, elementSize int) []ChunkRange {
	if targetBytes <= 0 {
		return PlanChunks(dims, 0)
	}
	if elementSize <= 0 {
		elementSize = 4
	}
	pts := int(targetBytes / int64(elementSize))
	if pts < 1 {
		pts = 1
	}
	return PlanChunks(dims, pts)
}

// CompressChunk compresses one chunk of a field as a standalone stream. The
// error bound is resolved against the WHOLE field (cfg.AbsoluteBound over
// data), not the chunk: a range-relative bound therefore means the same
// absolute tolerance for every chunk, exactly as a monolithic compression
// of the field would apply — chunk decomposition never changes the
// guarantee. The returned stream decompresses independently with Decompress
// and carries the chunk's sub-shape in its header.
func CompressChunk(data []float64, dims []int, cfg Config, r ChunkRange) ([]byte, *Stats, error) {
	if err := validateDims(len(data), dims); err != nil {
		return nil, nil, err
	}
	if r.Start < 0 || r.End > dims[0] || r.Start >= r.End {
		return nil, nil, fmt.Errorf("sz: chunk rows [%d,%d) outside field of %d rows", r.Start, r.End, dims[0])
	}
	row := rowPoints(dims)
	sub := data[r.Start*row : r.End*row]
	ccfg := cfg
	ccfg.ErrorBound = cfg.AbsoluteBound(data)
	ccfg.BoundMode = BoundAbsolute
	return Compress(sub, r.subDims(dims), ccfg)
}

// AssembleChunks frames per-chunk streams (in plan order) into one chunked
// container. Assembly is pure byte layout — no recompression — so the
// container is byte-identical no matter which workers produced the chunks
// or in what order they completed, as long as the caller indexes them by
// ChunkRange.Index. Every chunk must be a stream of a registered codec
// (chunks of one container may even mix codecs — decode dispatches
// per-chunk on magic), and all chunks must agree on the trailing
// dimensions (they differ only in row count).
func AssembleChunks(chunks [][]byte) ([]byte, error) {
	if len(chunks) == 0 {
		return nil, fmt.Errorf("sz: no chunks to assemble")
	}
	if len(chunks) > 1<<31-1 {
		return nil, fmt.Errorf("sz: too many chunks (%d)", len(chunks))
	}
	var tail []int
	total := 9 + 8*len(chunks)
	for i, c := range chunks {
		// Chunks must be codec streams, never containers: nesting would
		// let a crafted container recurse the decoder without bound.
		if IsChunked(c) {
			return nil, fmt.Errorf("sz: chunk %d: nested container: %w", i, ErrCorrupt)
		}
		dims, err := codec.StreamDims(c)
		if err != nil {
			return nil, fmt.Errorf("sz: chunk %d: %w", i, err)
		}
		if i == 0 {
			tail = dims[1:]
		} else {
			if len(dims)-1 != len(tail) {
				return nil, fmt.Errorf("sz: chunk %d dimensionality mismatch: %w", i, ErrCorrupt)
			}
			for j, d := range dims[1:] {
				if d != tail[j] {
					return nil, fmt.Errorf("sz: chunk %d trailing dims mismatch: %w", i, ErrCorrupt)
				}
			}
		}
		total += len(c)
	}
	out := make([]byte, 0, total)
	var b4 [4]byte
	var b8 [8]byte
	binary.LittleEndian.PutUint32(b4[:], chunkMagic)
	out = append(out, b4[:]...)
	out = append(out, chunkVersion)
	binary.LittleEndian.PutUint32(b4[:], uint32(len(chunks)))
	out = append(out, b4[:]...)
	for _, c := range chunks {
		binary.LittleEndian.PutUint64(b8[:], uint64(len(c)))
		out = append(out, b8[:]...)
	}
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out, nil
}

// IsChunked reports whether a stream is a chunked container produced by
// AssembleChunks (as opposed to a plain Compress stream).
func IsChunked(stream []byte) bool {
	return len(stream) >= 4 && binary.LittleEndian.Uint32(stream[:4]) == chunkMagic
}

// SplitChunked returns the per-chunk streams of a chunked container, in
// plan order, as subslices of the input (no copying). Each returned stream
// decompresses independently with Decompress.
func SplitChunked(stream []byte) ([][]byte, error) {
	if !IsChunked(stream) {
		return nil, fmt.Errorf("sz: not a chunked container: %w", ErrCorrupt)
	}
	if len(stream) < 9 {
		return nil, ErrCorrupt
	}
	if stream[4] != chunkVersion {
		return nil, fmt.Errorf("sz: unsupported chunk container version %d: %w", stream[4], ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(stream[5:9]))
	// The length table holds 8 bytes a chunk, so the stream bounds the
	// count before anything is reserved for it.
	if n <= 0 || n > 1<<28 || n > (len(stream)-9)/8 {
		return nil, ErrCorrupt
	}
	head := 9 + 8*n
	out := make([][]byte, n)
	off := head
	for i := 0; i < n; i++ {
		l := binary.LittleEndian.Uint64(stream[9+8*i : 17+8*i])
		// Compare against the remaining bytes without adding to l: a
		// crafted 64-bit length must not overflow the bounds check.
		if l == 0 || l > uint64(len(stream)-off) {
			return nil, ErrCorrupt
		}
		out[i] = stream[off : off+int(l)]
		off += int(l)
	}
	if off != len(stream) {
		return nil, fmt.Errorf("sz: %d trailing container bytes: %w", len(stream)-off, ErrCorrupt)
	}
	return out, nil
}

// DecompressChunked decodes a chunked container: each chunk stream is
// decompressed independently — dispatching on its own codec magic, so a
// container may hold chunks from any registered codec — and the
// reconstructions are concatenated in plan order, yielding the full field
// and its shape (the chunks' rows summed along dims[0]). Per-chunk error
// bounds carry through unchanged — every value honours the absolute bound
// its chunk was compressed under.
func DecompressChunked(stream []byte) ([]float64, []int, error) {
	chunks, subs, err := openChunked(stream)
	if err != nil {
		return nil, nil, err
	}
	// Size the output once from the chunk headers: this runs in the verify
	// hot path of every chunked campaign, and append-growth would copy the
	// field O(log chunks) times.
	// The headers are attacker-controlled until each chunk actually
	// decodes, so cap the preallocation as it accumulates: a crafted
	// container claiming 2^40 points per chunk must neither reserve
	// terabytes up front nor wrap the sum negative. Legitimate fields
	// beyond the cap merely pay append-growth copies.
	const capLimit = 1 << 24
	total := 0
	for _, sub := range subs {
		n := 1
		for _, d := range sub {
			n *= d // headers guarantee each product ≤ 2^40, positive
		}
		if total < capLimit {
			total += n
		}
	}
	if total > capLimit {
		total = capLimit
	}
	data := make([]float64, 0, total)
	dims, err := decodeChunks(chunks, make([]float64, codec.TileLen), func(_ int, vals []float64) error {
		data = append(data, vals...)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return data, dims, nil
}

// DecodeChunkedTiles is DecompressChunked in codec.DecodeTiles form: each
// chunk decodes through the registry's tile dispatch, and its tiles reach
// visit at the chunk's offset in the assembled field. It accepts and
// rejects exactly the containers DecompressChunked does.
func DecodeChunkedTiles(stream []byte, tile []float64, visit codec.Visit) ([]int, error) {
	chunks, _, err := openChunked(stream)
	if err != nil {
		return nil, err
	}
	return decodeChunks(chunks, tile, visit)
}

// ChunkedDims parses only a container's framing and per-chunk headers and
// returns the assembled field shape (rows summed along dims[0]) — the
// cheap geometry probe the codec registry exposes for containers.
func ChunkedDims(stream []byte) ([]int, error) {
	_, subs, err := openChunked(stream)
	if err != nil {
		return nil, err
	}
	var dims []int
	for i, sub := range subs {
		if dims, err = joinChunkDims(dims, sub, i); err != nil {
			return nil, err
		}
	}
	return dims, nil
}

// openChunked splits a container and probes every chunk's header before
// any chunk decodes, returning the chunk streams and their shapes.
// Containers-as-chunks are rejected before any dispatch: a crafted
// container nesting containers would otherwise recurse codec.Decompress →
// DecompressChunked without bound and overflow the stack instead of
// erroring.
func openChunked(stream []byte) ([][]byte, [][]int, error) {
	chunks, err := SplitChunked(stream)
	if err != nil {
		return nil, nil, err
	}
	subs := make([][]int, len(chunks))
	for i, c := range chunks {
		if IsChunked(c) {
			return nil, nil, fmt.Errorf("sz: chunk %d: nested container: %w", i, ErrCorrupt)
		}
		if subs[i], err = codec.StreamDims(c); err != nil {
			return nil, nil, fmt.Errorf("sz: chunk %d: %w", i, err)
		}
	}
	return chunks, subs, nil
}

// decodeChunks decodes every chunk in plan order, visiting its tiles at
// the chunk's offset in the field, and returns the assembled shape.
func decodeChunks(chunks [][]byte, tile []float64, visit codec.Visit) ([]int, error) {
	var dims []int
	at := 0
	for i, c := range chunks {
		sub, err := codec.DecodeTiles(c, tile, func(start int, vals []float64) error {
			return visit(at+start, vals)
		})
		if err != nil {
			return nil, fmt.Errorf("sz: chunk %d: %w", i, err)
		}
		if dims, err = joinChunkDims(dims, sub, i); err != nil {
			return nil, err
		}
		n := 1
		for _, d := range sub {
			n *= d
		}
		at += n
	}
	return dims, nil
}

// joinChunkDims adds chunk i's shape to the field shape assembled so far
// (nil before the first chunk): the trailing dimensions must agree, and
// rows add up along dims[0].
func joinChunkDims(dims, sub []int, i int) ([]int, error) {
	if dims == nil {
		return append([]int(nil), sub...), nil
	}
	if len(sub) != len(dims) {
		return nil, fmt.Errorf("sz: chunk %d dimensionality mismatch: %w", i, ErrCorrupt)
	}
	for j := 1; j < len(sub); j++ {
		if sub[j] != dims[j] {
			return nil, fmt.Errorf("sz: chunk %d trailing dims mismatch: %w", i, ErrCorrupt)
		}
	}
	dims[0] += sub[0]
	return dims, nil
}

// CompressChunked is the serial convenience path: plan chunks of roughly
// targetPoints values, compress each (same absolute bound as a monolithic
// run), and assemble the container. It is the reference implementation the
// parallel fan-out in internal/core must match byte-for-byte.
func CompressChunked(data []float64, dims []int, cfg Config, targetPoints int) ([]byte, *Stats, error) {
	ranges := PlanChunks(dims, targetPoints)
	if len(ranges) == 0 {
		return nil, nil, fmt.Errorf("sz: empty chunk plan")
	}
	chunks := make([][]byte, len(ranges))
	agg := &Stats{}
	var wp0, whp0, went float64
	// Resolve a relative bound against the full field once; CompressChunk
	// on an absolute config is then a no-op rescan-wise, so splitting into
	// C chunks does not pay C full-field range scans.
	ccfg := cfg
	ccfg.ErrorBound = cfg.AbsoluteBound(data)
	ccfg.BoundMode = BoundAbsolute
	for i, r := range ranges {
		stream, st, err := CompressChunk(data, dims, ccfg, r)
		if err != nil {
			return nil, nil, fmt.Errorf("sz: chunk %d: %w", i, err)
		}
		chunks[i] = stream
		agg.NumPoints += st.NumPoints
		agg.NumEscapes += st.NumEscapes
		agg.HuffmanBits += st.HuffmanBits
		// HuffP0 is a share of coded bits, so it averages over bits;
		// the per-code features average over points.
		wp0 += st.P0Quant * float64(st.NumPoints)
		whp0 += st.HuffP0 * float64(st.HuffmanBits)
		went += st.QuantEntropy * float64(st.NumPoints)
	}
	out, err := AssembleChunks(chunks)
	if err != nil {
		return nil, nil, err
	}
	if agg.NumPoints > 0 {
		agg.P0Quant = wp0 / float64(agg.NumPoints)
		agg.QuantEntropy = went / float64(agg.NumPoints)
	}
	if agg.HuffmanBits > 0 {
		agg.HuffP0 = whp0 / float64(agg.HuffmanBits)
	}
	agg.CompressedBytes = len(out)
	return out, agg, nil
}

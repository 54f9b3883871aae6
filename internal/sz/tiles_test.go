package sz

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"ocelot/internal/codec"
	"ocelot/internal/szx"
)

// corpusStreams reads the []byte inputs of a checked-in fuzz corpus
// directory ("go test fuzz v1" files holding one []byte("...") line).
func corpusStreams(f *testing.F, dir string) [][]byte {
	f.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		lines := bytes.Split(raw, []byte("\n"))
		if len(lines) < 2 || !bytes.HasPrefix(lines[1], []byte("[]byte(")) {
			f.Fatalf("%s: not a one-[]byte fuzz corpus file", e.Name())
		}
		s, err := strconv.Unquote(string(bytes.TrimSuffix(bytes.TrimPrefix(lines[1], []byte("[]byte(")), []byte(")"))))
		if err != nil {
			f.Fatalf("%s: %v", e.Name(), err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// allSZX reports whether stream is an szx stream, or an OCSC container
// whose chunks all are.
func allSZX(stream []byte) bool {
	chunks := [][]byte{stream}
	if IsChunked(stream) {
		var err error
		if chunks, err = SplitChunked(stream); err != nil {
			return false
		}
	}
	for _, c := range chunks {
		if name, err := codec.FormatName(c); err != nil || name != szx.Name {
			return false
		}
	}
	return true
}

// FuzzDecodeTilesMatchesDecompress holds the tile-wise decode the
// destination verifies with to codec.Decompress on arbitrary bytes: szx
// streams (decoded natively a tile at a time), sz3 streams (decoded whole,
// in pooled scratch, and visited once) and OCSC containers of either
// (visited chunk by chunk).
// Both must accept and reject the same streams with the same errors; on
// success the tiles must arrive in order, each starting where the last one
// ended and, for szx data, no longer than the caller's tile (once that
// holds a block),
// and join into the same values, bit for bit, under the same dims — at any
// tile length.
func FuzzDecodeTilesMatchesDecompress(f *testing.F) {
	seeds := append(fuzzSeeds(f), craftedSZXStreams(f)...)
	seeds = append(seeds, corpusStreams(f, filepath.Join("testdata", "fuzz", "FuzzDecompress"))...)
	golden, err := os.ReadFile(filepath.Join("..", "szx", "testdata", "golden", "szx-v1.ocsx"))
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, golden)
	// An OCSC container of szx chunks, each several blocks long and cut
	// off-block, so tiles and chunk offsets interleave.
	data := make([]float64, 3000)
	for i := range data {
		data[i] = math.Sin(float64(i)/40) + float64(i%13)*1e-3
	}
	var chunks [][]byte
	for _, r := range PlanChunks([]int{len(data)}, 1100) {
		c, err := szx.Compress(data[r.Start:r.End], []int{r.End - r.Start}, 1e-4)
		if err != nil {
			f.Fatal(err)
		}
		chunks = append(chunks, c)
	}
	container, err := AssembleChunks(chunks)
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, container)
	for _, s := range seeds {
		for _, tileLen := range []uint16{0, 255, 256, 700, codec.TileLen - 1} {
			f.Add(s, tileLen)
		}
	}
	f.Fuzz(func(t *testing.T, stream []byte, tileLen uint16) {
		want, wantDims, wantErr := codec.Decompress(stream)
		tile := make([]float64, tileLen)
		// Only szx decodes a tile at a time; sz3 data, bare or as OCSC
		// chunks, is visited whole however long it is.
		bounded := len(tile) >= szx.MaxBlockSize && allSZX(stream)
		var got []float64
		dims, err := codec.DecodeTiles(stream, tile, func(start int, vals []float64) error {
			if start != len(got) {
				t.Fatalf("tile at %d after %d values", start, len(got))
			}
			if len(vals) == 0 || (bounded && len(vals) > len(tile)) {
				t.Fatalf("tile of %d values from a caller tile of %d", len(vals), len(tile))
			}
			got = append(got, vals...)
			return nil
		})
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("DecodeTiles error %v, Decompress error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if len(dims) != len(wantDims) {
			t.Fatalf("dims %v, Decompress dims %v", dims, wantDims)
		}
		for i := range dims {
			if dims[i] != wantDims[i] {
				t.Fatalf("dims %v, Decompress dims %v", dims, wantDims)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%d values, Decompress %d", len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("value %d: %v, Decompress %v", i, got[i], want[i])
			}
		}
	})
}

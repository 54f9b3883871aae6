package sz

import (
	"encoding/binary"
	"math"
	"os"
	"testing"

	"ocelot/internal/codec"
	"ocelot/internal/grouping"
	"ocelot/internal/szx"
)

// dispatchField synthesizes the deterministic field behind the golden
// streams in testdata/golden.
func dispatchField() []float64 {
	data := make([]float64, 1200)
	for i := range data {
		x := float64(i) / 1200
		data[i] = 30*math.Sin(8*x) + 2*x
	}
	return data
}

// fnvDigest is FNV-64a over a reconstruction's float64 bit patterns, the
// digest the recorded golden and stream-digest tables were taken with.
func fnvDigest(vals []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		w := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (w >> s) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// TestGoldenStreamsDecodeViaRegistry pins byte-level compatibility: sz3
// streams and OCSC containers frozen before the codec registry existed
// must still decompress — via sz.Decompress AND via the registry's magic
// dispatch — to bit-identical reconstructions (digests recorded at
// freeze time). The version 2 goldens hold the same field's codes, so
// they must decode to the same digests.
func TestGoldenStreamsDecodeViaRegistry(t *testing.T) {
	cases := []struct {
		file   string
		digest uint64
	}{
		{"testdata/golden/sz3-v1.ocsz", 0x29017251f60f6b29},
		{"testdata/golden/sz3-v1.ocsc", 0x47c05655504b3876},
		{"testdata/golden/sz3-v2.ocsz", 0x29017251f60f6b29},
		{"testdata/golden/sz3-v2.ocsc", 0x47c05655504b3876},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			stream, err := os.ReadFile(tc.file)
			if err != nil {
				t.Fatal(err)
			}
			direct, dDims, err := Decompress(stream)
			if err != nil {
				t.Fatalf("sz.Decompress: %v", err)
			}
			viaRegistry, rDims, err := codec.Decompress(stream)
			if err != nil {
				t.Fatalf("codec.Decompress: %v", err)
			}
			if len(dDims) != 2 || dDims[0] != 30 || dDims[1] != 40 {
				t.Fatalf("dims %v, want [30 40]", dDims)
			}
			for i := range dDims {
				if dDims[i] != rDims[i] {
					t.Fatalf("registry dims %v != direct %v", rDims, dDims)
				}
			}
			if got := fnvDigest(direct); got != tc.digest {
				t.Errorf("direct digest %#x, want frozen %#x", got, tc.digest)
			}
			if got := fnvDigest(viaRegistry); got != tc.digest {
				t.Errorf("registry digest %#x, want frozen %#x", got, tc.digest)
			}
			orig := dispatchField()
			if m := maxAbsError(t, orig, viaRegistry); m > 1e-4 {
				t.Errorf("max error %g exceeds the golden bound 1e-4", m)
			}
		})
	}
}

// TestHeaderDimsProductOverflowRejected: an sz3 header whose dims each
// pass the 2^32 cap but whose product wraps int64 must be rejected by
// parseHeader — otherwise the chunked container's size pass would sum a
// negative point count into its preallocation.
func TestHeaderDimsProductOverflowRejected(t *testing.T) {
	h := &header{
		predictor: PredictorInterp,
		interp:    InterpCubic,
		boundMode: BoundAbsolute,
		radius:    32768,
		absEB:     1e-3,
		dims:      []int{1 << 31, 1 << 32},
	}
	stream := append(h.marshal(), make([]byte, 64)...)
	if _, _, err := parseHeader(stream); err == nil {
		t.Fatal("want error for wrapped dims product")
	}
	if _, _, err := Decompress(stream); err == nil {
		t.Fatal("want error from Decompress for wrapped dims product")
	}
}

// TestGroupedArchiveMixedCodecDispatch packs one sz3 member and one szx
// member into a single group archive — exactly what a planned campaign
// with per-field codecs ships — and decodes every member through the
// registry.
func TestGroupedArchiveMixedCodecDispatch(t *testing.T) {
	data := dispatchField()
	sz3Stream, _, err := Compress(data, []int{1200}, DefaultConfig(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	szxStream, err := szx.Compress(data, []int{1200}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := grouping.Pack([]grouping.Member{
		{Name: "a.sz", Data: sz3Stream},
		{Name: "b.sz", Data: szxStream},
	})
	if err != nil {
		t.Fatal(err)
	}
	members, err := grouping.Unpack(arch)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 2 {
		t.Fatalf("%d members", len(members))
	}
	for _, m := range members {
		recon, dims, err := codec.Decompress(m.Data)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if dims[0] != 1200 {
			t.Fatalf("%s: dims %v", m.Name, dims)
		}
		if maxErr := maxAbsError(t, data, recon); maxErr > 1e-3 {
			t.Errorf("%s: max error %g", m.Name, maxErr)
		}
	}
}

// TestChunkedContainerMixedCodecDispatch frames sz3 and szx chunk streams
// into one OCSC container: assembly must accept the mix (geometry probes
// go through codec.StreamDims) and decode must dispatch per chunk.
func TestChunkedContainerMixedCodecDispatch(t *testing.T) {
	data := dispatchField()
	half := len(data) / 2
	sz3Chunk, _, err := Compress(data[:half], []int{half / 40, 40}, DefaultConfig(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	szxChunk, err := szx.Compress(data[half:], []int{half / 40, 40}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	container, err := AssembleChunks([][]byte{sz3Chunk, szxChunk})
	if err != nil {
		t.Fatal(err)
	}
	if !IsChunked(container) {
		t.Fatal("container not recognized as chunked")
	}
	dims, err := ChunkedDims(container)
	if err != nil {
		t.Fatal(err)
	}
	if dims[0] != len(data)/40 || dims[1] != 40 {
		t.Fatalf("dims %v", dims)
	}
	for _, decode := range []func([]byte) ([]float64, []int, error){Decompress, codec.Decompress} {
		recon, rDims, err := decode(container)
		if err != nil {
			t.Fatal(err)
		}
		if rDims[0] != len(data)/40 {
			t.Fatalf("decoded dims %v", rDims)
		}
		if maxErr := maxAbsError(t, data, recon); maxErr > 1e-3 {
			t.Errorf("max error %g", maxErr)
		}
	}
	// Mismatched trailing dims must still be rejected across codecs.
	badChunk, err := szx.Compress(data[half:], []int{half / 30, 30}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AssembleChunks([][]byte{sz3Chunk, badChunk}); err == nil {
		t.Error("want trailing-dims mismatch error across codecs")
	}
}

// TestNestedContainerRejected: a container whose chunk is itself a
// container must error at every entry point — assembly, split-decode,
// and the geometry probe — never recurse (a deep crafted nest would
// otherwise overflow the stack, crashing the process instead of
// returning ErrCorrupt).
func TestNestedContainerRejected(t *testing.T) {
	data := dispatchField()
	inner, _, err := CompressChunked(data, []int{30, 40}, DefaultConfig(1e-3), 300)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AssembleChunks([][]byte{inner}); err == nil {
		t.Error("AssembleChunks accepted a container as a chunk")
	}
	// Hand-frame the nesting AssembleChunks refuses to build: a crafted
	// peer would not be so polite.
	nested := make([]byte, 0, len(inner)+17)
	nested = append(nested, 0x43, 0x53, 0x43, 0x4F, 1, 1, 0, 0, 0) // OCSC, v1, 1 chunk
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], uint64(len(inner)))
	nested = append(nested, b8[:]...)
	nested = append(nested, inner...)
	if !IsChunked(nested) {
		t.Fatal("hand-framed container not recognized")
	}
	if _, _, err := DecompressChunked(nested); err == nil {
		t.Error("DecompressChunked accepted a nested container")
	}
	if _, err := ChunkedDims(nested); err == nil {
		t.Error("ChunkedDims accepted a nested container")
	}
	if _, _, err := codec.Decompress(nested); err == nil {
		t.Error("codec.Decompress accepted a nested container")
	}
}

package sz

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// chunkTestField builds a smooth 2-D field with deterministic noise.
func chunkTestField(rows, cols int, seed int64) ([]float64, []int) {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, rows*cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			data[i*cols+j] = math.Sin(float64(i)/7)*math.Cos(float64(j)/11) +
				0.02*rng.Float64()
		}
	}
	return data, []int{rows, cols}
}

func TestPlanChunksCoversFieldExactly(t *testing.T) {
	cases := []struct {
		dims   []int
		target int
	}{
		{[]int{100, 30}, 500},
		{[]int{7, 13}, 13},
		{[]int{64}, 10},
		{[]int{5, 4, 3}, 24},
		{[]int{9, 9}, 1}, // smaller than one row: one row per chunk
		{[]int{12, 8}, 0},
	}
	for _, c := range cases {
		plan := PlanChunks(c.dims, c.target)
		if len(plan) == 0 {
			t.Fatalf("dims %v: empty plan", c.dims)
		}
		prev := 0
		for i, r := range plan {
			if r.Index != i {
				t.Errorf("dims %v: chunk %d has index %d", c.dims, i, r.Index)
			}
			if r.Start != prev {
				t.Errorf("dims %v: chunk %d starts at %d, want %d", c.dims, i, r.Start, prev)
			}
			if r.End <= r.Start {
				t.Errorf("dims %v: chunk %d empty [%d,%d)", c.dims, i, r.Start, r.End)
			}
			prev = r.End
		}
		if prev != c.dims[0] {
			t.Errorf("dims %v: plan covers %d of %d rows", c.dims, prev, c.dims[0])
		}
		if c.target <= 0 && len(plan) != 1 {
			t.Errorf("dims %v target %d: want a single chunk, got %d", c.dims, c.target, len(plan))
		}
		// Balanced: row counts differ by at most one.
		lo, hi := c.dims[0], 0
		for _, r := range plan {
			if n := r.End - r.Start; n < lo {
				lo = n
			} else if n > hi {
				hi = n
			}
		}
		if hi-lo > 1 && hi > 0 {
			t.Errorf("dims %v: unbalanced plan (rows %d..%d)", c.dims, lo, hi)
		}
	}
}

func TestPlanChunksDeterministic(t *testing.T) {
	a := PlanChunks([]int{97, 41}, 777)
	b := PlanChunks([]int{97, 41}, 777)
	if len(a) != len(b) {
		t.Fatalf("plans differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chunk %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestChunkedRoundTripBound: a chunked container must decompress to the
// original shape with every value inside the bound — the same guarantee as
// a monolithic stream.
func TestChunkedRoundTripBound(t *testing.T) {
	data, dims := chunkTestField(60, 45, 1)
	const eb = 1e-3
	for _, pred := range []Predictor{PredictorLorenzo, PredictorInterp, PredictorRegression} {
		cfg := DefaultConfig(eb)
		cfg.Predictor = pred
		stream, st, err := CompressChunked(data, dims, cfg, 8*45)
		if err != nil {
			t.Fatalf("%v: %v", pred, err)
		}
		if !IsChunked(stream) {
			t.Fatalf("%v: stream not a chunked container", pred)
		}
		if st.NumPoints != len(data) {
			t.Errorf("%v: stats cover %d of %d points", pred, st.NumPoints, len(data))
		}
		recon, rdims, err := Decompress(stream) // transparent dispatch
		if err != nil {
			t.Fatalf("%v: decompress: %v", pred, err)
		}
		if len(rdims) != 2 || rdims[0] != 60 || rdims[1] != 45 {
			t.Fatalf("%v: dims %v, want [60 45]", pred, rdims)
		}
		if m := maxAbsError(t, data, recon); m > eb*(1+1e-12) {
			t.Errorf("%v: max error %g exceeds bound %g", pred, m, eb)
		}
	}
}

// TestChunkedRelativeBoundUsesFieldRange: with a range-relative bound, every
// chunk must be bounded by relEB × the FULL field's range — not its own
// chunk-local range — or decomposition would silently tighten/loosen the
// guarantee per chunk.
func TestChunkedRelativeBoundUsesFieldRange(t *testing.T) {
	// Rows 0..9 span [0,1]; rows 10..19 span [0,100]: chunk-local ranges
	// differ by 100×.
	dims := []int{20, 50}
	data := make([]float64, 20*50)
	rng := rand.New(rand.NewSource(9))
	for i := range data {
		scale := 1.0
		if i >= 10*50 {
			scale = 100.0
		}
		data[i] = scale * rng.Float64()
	}
	cfg := DefaultConfig(1e-3)
	cfg.BoundMode = BoundRelative
	wantAbs := cfg.AbsoluteBound(data)

	plan := PlanChunks(dims, 10*50)
	if len(plan) != 2 {
		t.Fatalf("want 2 chunks, got %d", len(plan))
	}
	for _, r := range plan {
		stream, _, err := CompressChunk(data, dims, cfg, r)
		if err != nil {
			t.Fatal(err)
		}
		recon, _, err := Decompress(stream)
		if err != nil {
			t.Fatal(err)
		}
		row := 50
		sub := data[r.Start*row : r.End*row]
		if m := maxAbsError(t, sub, recon); m > wantAbs*(1+1e-12) {
			t.Errorf("chunk %d: max error %g exceeds field-level bound %g", r.Index, m, wantAbs)
		}
	}
}

// TestAssembleOrderIndependence: assembling chunks compressed in any order
// (as parallel workers would complete them) yields byte-identical
// containers, as long as they are indexed by plan position.
func TestAssembleOrderIndependence(t *testing.T) {
	data, dims := chunkTestField(48, 32, 3)
	cfg := DefaultConfig(5e-4)
	plan := PlanChunks(dims, 6*32)

	inOrder := make([][]byte, len(plan))
	for _, r := range plan {
		s, _, err := CompressChunk(data, dims, cfg, r)
		if err != nil {
			t.Fatal(err)
		}
		inOrder[r.Index] = s
	}
	reversed := make([][]byte, len(plan))
	for i := len(plan) - 1; i >= 0; i-- {
		s, _, err := CompressChunk(data, dims, cfg, plan[i])
		if err != nil {
			t.Fatal(err)
		}
		reversed[plan[i].Index] = s
	}
	a, err := AssembleChunks(inOrder)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AssembleChunks(reversed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("containers differ under reversed compression order")
	}
	serial, _, err := CompressChunked(data, dims, cfg, 6*32)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, serial) {
		t.Fatal("hand-assembled container differs from CompressChunked")
	}
}

func TestSplitChunkedRoundTrip(t *testing.T) {
	data, dims := chunkTestField(30, 20, 5)
	cfg := DefaultConfig(1e-3)
	stream, _, err := CompressChunked(data, dims, cfg, 7*20)
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := SplitChunked(stream)
	if err != nil {
		t.Fatal(err)
	}
	plan := PlanChunks(dims, 7*20)
	if len(chunks) != len(plan) {
		t.Fatalf("%d chunks, want %d", len(chunks), len(plan))
	}
	// Each chunk decompresses independently to its slice of the field.
	for i, c := range chunks {
		recon, sub, err := Decompress(c)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if sub[0] != plan[i].End-plan[i].Start || sub[1] != 20 {
			t.Fatalf("chunk %d dims %v", i, sub)
		}
		want := data[plan[i].Start*20 : plan[i].End*20]
		if m := maxAbsError(t, want, recon); m > 1e-3*(1+1e-12) {
			t.Errorf("chunk %d: error %g out of bound", i, m)
		}
	}
	reassembled, err := AssembleChunks(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reassembled, stream) {
		t.Fatal("split+assemble is not the identity")
	}
}

func TestChunkedCorruptionDetected(t *testing.T) {
	data, dims := chunkTestField(20, 10, 7)
	stream, _, err := CompressChunked(data, dims, DefaultConfig(1e-3), 5*10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SplitChunked(stream[:8]); err == nil {
		t.Error("truncated header accepted")
	}
	if _, _, err := DecompressChunked(stream[:len(stream)-3]); err == nil {
		t.Error("truncated body accepted")
	}
	if _, err := SplitChunked([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}); err == nil {
		t.Error("garbage accepted as container")
	}
	// Mismatched trailing dims must be rejected at assembly.
	a, _, err := Compress(data[:100], []int{10, 10}, DefaultConfig(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Compress(data[:99], []int{9, 11}, DefaultConfig(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AssembleChunks([][]byte{a, b}); err == nil {
		t.Error("mismatched trailing dims accepted")
	}
}

func TestCompressChunkRejectsBadRange(t *testing.T) {
	data, dims := chunkTestField(10, 10, 11)
	cfg := DefaultConfig(1e-3)
	for _, r := range []ChunkRange{
		{Start: -1, End: 5},
		{Start: 5, End: 5},
		{Start: 8, End: 12},
	} {
		if _, _, err := CompressChunk(data, dims, cfg, r); err == nil {
			t.Errorf("range %+v accepted", r)
		}
	}
}

// TestPlanChunksDegenerateShapes: shapes the compressor would reject must
// come back as a single pass-through chunk, not a panic, so the error
// surfaces from Compress's own validation.
func TestPlanChunksDegenerateShapes(t *testing.T) {
	for _, dims := range [][]int{{5, 0}, {0, 7}, {0}, {3, 0, 4}} {
		plan := PlanChunks(dims, 100)
		if len(plan) != 1 {
			t.Errorf("dims %v: want single pass-through chunk, got %d", dims, len(plan))
		}
	}
	if _, _, err := CompressChunked(nil, []int{5, 0}, DefaultConfig(1e-3), 100); err == nil {
		t.Error("zero-dimension shape accepted")
	}
}

// TestSplitChunkedHugeLengthNoPanic: a crafted container with a ~2^64
// chunk length must return ErrCorrupt, not overflow the bounds check and
// panic on a negative-length slice.
func TestSplitChunkedHugeLengthNoPanic(t *testing.T) {
	crafted := make([]byte, 0, 64)
	var b4 [4]byte
	var b8 [8]byte
	binary.LittleEndian.PutUint32(b4[:], chunkMagic)
	crafted = append(crafted, b4[:]...)
	crafted = append(crafted, chunkVersion)
	binary.LittleEndian.PutUint32(b4[:], 1) // one chunk
	crafted = append(crafted, b4[:]...)
	binary.LittleEndian.PutUint64(b8[:], ^uint64(0)) // length 2^64-1
	crafted = append(crafted, b8[:]...)
	crafted = append(crafted, make([]byte, 46)...) // some body bytes
	if _, err := SplitChunked(crafted); err == nil {
		t.Fatal("huge chunk length accepted")
	}
}

// TestCompressChunkedWeightsHuffP0ByBits: HuffP0 is the zero bin's share
// of the coded bits, so a chunked run averages it over the chunks' bits,
// not their points. Half of this field is smooth (cheap codes, mostly the
// zero bin) and half is noise (expensive codes, rarely the zero bin); a
// point-weighted average lands between the two halves' shares, far from
// the share of the bits the container actually spends.
func TestCompressChunkedWeightsHuffP0ByBits(t *testing.T) {
	const rows, cols = 64, 96
	data := make([]float64, rows*cols)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v := math.Sin(float64(i)/9) * math.Cos(float64(j)/13)
			if i >= rows/2 {
				v = rng.NormFloat64()
			}
			data[i*cols+j] = v
		}
	}
	dims := []int{rows, cols}
	cfg := DefaultConfig(1e-3)
	_, agg, err := CompressChunked(data, dims, cfg, rows*cols/2)
	if err != nil {
		t.Fatal(err)
	}
	var bits, zeroBits, pointShare float64
	for _, r := range PlanChunks(dims, rows*cols/2) {
		_, st, err := CompressChunk(data, dims, cfg, r)
		if err != nil {
			t.Fatal(err)
		}
		bits += float64(st.HuffmanBits)
		zeroBits += st.HuffP0 * float64(st.HuffmanBits)
		pointShare += st.HuffP0 * float64(st.NumPoints) / float64(rows*cols)
	}
	want := zeroBits / bits
	if math.Abs(agg.HuffP0-want) > 1e-12 {
		t.Fatalf("HuffP0 = %.4f, want the bit-weighted %.4f (point-weighted: %.4f)", agg.HuffP0, want, pointShare)
	}
	if pointShare < 2*want {
		t.Fatalf("the halves' shares are too alike to tell the weightings apart: %.4f vs %.4f", pointShare, want)
	}
	if agg.HuffmanBits != int(bits) {
		t.Fatalf("HuffmanBits = %d, chunks sum to %.0f", agg.HuffmanBits, bits)
	}
}

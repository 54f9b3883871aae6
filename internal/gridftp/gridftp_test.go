package gridftp

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ocelot/internal/datagen"
	"ocelot/internal/metrics"
	"ocelot/internal/sz"
)

func newPair(t *testing.T, channels int) (*Server, *Client, string) {
	t.Helper()
	dir := t.TempDir()
	srv, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	cli, err := Dial(srv.Addr(), channels)
	if err != nil {
		t.Fatal(err)
	}
	return srv, cli, dir
}

func TestSingleFileRoundTrip(t *testing.T) {
	_, cli, dir := newPair(t, 1)
	payload := []byte("ocelot over the wire")
	sum, err := cli.Transfer(context.Background(), []File{{Name: "hello.txt", Data: payload}})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Files != 1 || sum.Bytes != int64(len(payload)) {
		t.Fatalf("summary %+v", sum)
	}
	got, err := os.ReadFile(filepath.Join(dir, "hello.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch")
	}
}

func TestManyFilesParallelChannels(t *testing.T) {
	_, cli, dir := newPair(t, 8)
	rng := rand.New(rand.NewSource(3))
	files := make([]File, 64)
	for i := range files {
		data := make([]byte, rng.Intn(64<<10)+1)
		rng.Read(data)
		files[i] = File{Name: fmt.Sprintf("d/%02d.bin", i), Data: data}
	}
	sum, err := cli.Transfer(context.Background(), files)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Files != len(files) {
		t.Fatalf("files = %d", sum.Files)
	}
	for _, f := range files {
		got, err := os.ReadFile(filepath.Join(dir, f.Name))
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if !bytes.Equal(got, f.Data) {
			t.Fatalf("%s: corrupted", f.Name)
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	_, cli, _ := newPair(t, 2)
	sum, err := cli.Transfer(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Files != 0 {
		t.Fatalf("summary %+v", sum)
	}
}

func TestEmptyFilePayload(t *testing.T) {
	_, cli, dir := newPair(t, 1)
	if _, err := cli.Transfer(context.Background(), []File{{Name: "empty.bin", Data: nil}}); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(dir, "empty.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != 0 {
		t.Fatalf("size = %d", st.Size())
	}
}

func TestUnsafeNamesRejected(t *testing.T) {
	_, cli, _ := newPair(t, 1)
	for _, name := range []string{"../escape.txt", "/abs.txt"} {
		if _, err := cli.Transfer(context.Background(), []File{{Name: name, Data: []byte("x")}}); err == nil {
			t.Errorf("name %q should be rejected", name)
		}
	}
}

func TestBadNameClientSide(t *testing.T) {
	_, cli, _ := newPair(t, 1)
	if _, err := cli.Transfer(context.Background(), []File{{Name: "", Data: []byte("x")}}); err == nil {
		t.Error("empty name must fail")
	}
}

func TestDialValidation(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 100); err == nil {
		t.Error("too many channels must error")
	}
	c, err := Dial("127.0.0.1:1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.channels != 4 {
		t.Errorf("default channels = %d", c.channels)
	}
}

func TestServerGoneMidSession(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	_ = srv.Close()
	cli, err := Dial(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Transfer(context.Background(), []File{{Name: "x", Data: []byte("y")}}); err == nil {
		t.Error("transfer to closed server must fail")
	}
}

// TestCompressedPipelineOverTCP is the end-to-end integration: compress a
// field, ship the stream through the real protocol, read it back at the
// destination, decompress, verify the bound.
func TestCompressedPipelineOverTCP(t *testing.T) {
	_, cli, dir := newPair(t, 4)
	f, err := datagen.Generate("Miranda", "density", 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sz.DefaultConfig(1e-4)
	stream, _, err := sz.Compress(f.Data, f.Dims, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Transfer(context.Background(), []File{{Name: "density.sz", Data: stream}}); err != nil {
		t.Fatal(err)
	}
	landed, err := os.ReadFile(filepath.Join(dir, "density.sz"))
	if err != nil {
		t.Fatal(err)
	}
	recon, _, err := sz.Decompress(landed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := metrics.MaxAbsError(f.Data, recon)
	if err != nil {
		t.Fatal(err)
	}
	if got > 1e-4+1e-12 {
		t.Fatalf("error %g after network round trip", got)
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, File{Name: "a", Data: []byte("hello world")}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-7] ^= 0xFF // flip a payload byte
	if _, _, err := readFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("corruption must be detected")
	}
}

func TestSequentialSessions(t *testing.T) {
	_, cli, dir := newPair(t, 2)
	for round := 0; round < 3; round++ {
		name := fmt.Sprintf("round-%d.bin", round)
		data := bytes.Repeat([]byte{byte(round)}, 1024)
		if _, err := cli.Transfer(context.Background(), []File{{Name: name, Data: data}}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func BenchmarkTransferThroughput(b *testing.B) {
	dir := b.TempDir()
	srv, err := NewServer(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr(), 4)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	files := []File{{Name: "bench.bin", Data: data}}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Transfer(context.Background(), files); err != nil {
			b.Fatal(err)
		}
	}
}

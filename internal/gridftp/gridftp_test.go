package gridftp

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

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

// TestSingleFileRoundTrip ships one file, short or spanning many read
// chunks with a partial last one, and checks it lands intact.
func TestSingleFileRoundTrip(t *testing.T) {
	large := make([]byte, 2*maxChunk+minChunk+7)
	rand.New(rand.NewSource(5)).Read(large)
	for name, payload := range map[string][]byte{"hello.txt": []byte("ocelot over the wire"), "large.bin": large} {
		_, cli, dir := newPair(t, 1)
		sum, err := cli.Transfer(context.Background(), []File{{Name: name, Data: payload}})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Files != 1 || sum.Bytes != int64(len(payload)) {
			t.Fatalf("%s: summary %+v", name, sum)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s: payload mismatch", name)
		}
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
	for _, name := range []string{"../escape.txt", "/abs.txt", stagingDir + "/1/x"} {
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

// hangGuard bounds waits that only a hang would exhaust; no test asserts a
// latency against it.
const hangGuard = 30 * time.Second

// waitFor polls cond until it holds, failing the test if the hang guard
// runs out first.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(hangGuard)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("still waiting after %v: %s", hangGuard, what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// transferAsync runs cli.Transfer in the background and returns its
// error channel.
func transferAsync(ctx context.Context, cli *Client, files []File) <-chan error {
	errc := make(chan error, 1)
	go func() {
		_, err := cli.Transfer(ctx, files)
		errc <- err
	}()
	return errc
}

// awaitCanceled waits, under the hang guard, for a cancelled Transfer to
// return, and checks it returned context.Canceled.
func awaitCanceled(t *testing.T, errc <-chan error) {
	t.Helper()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Transfer returned %v, want context.Canceled", err)
		}
	case <-time.After(hangGuard):
		t.Fatalf("Transfer still blocked %v after cancel", hangGuard)
	}
}

// TestTransferCancelBlackHole: a peer that accepts connections and never
// reads or answers cannot hold Transfer past its context.
func TestTransferCancelBlackHole(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		defer mu.Unlock()
		for _, conn := range held {
			conn.Close()
		}
	})

	cli, err := Dial(ln.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Payloads larger than the socket buffers, so a sender blocks in write
	// as well as in the verdict read.
	payload := make([]byte, 8<<20)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := transferAsync(ctx, cli, []File{{Name: "a", Data: payload}, {Name: "b", Data: payload}})
	waitFor(t, "the black hole accepting a connection", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(held) > 0
	})
	cancel()
	awaitCanceled(t, errc)
}

// TestCancelResetsConnection: a cancelled Transfer resets its connection
// instead of closing it behind the frames still queued in its socket. The
// peer reads one byte, to know the frames are arriving, and no more, so
// the client blocks with megabytes unsent; after the cancel, reading what
// reached the peer must end in a reset, where a FIN would deliver the whole
// queue and then a clean EOF that a receiver cannot tell from the end of a
// batch. The peer's kernel still hands over what it had already received
// before it reports the reset.
func TestCancelResetsConnection(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			accepted <- conn
		}
	}()
	cli, err := Dial(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// More than the socket buffers of both ends hold, so the client is
	// still writing when it is cancelled.
	payload := make([]byte, 8<<20)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := transferAsync(ctx, cli, []File{{Name: "a", Data: payload}, {Name: "b", Data: payload}})
	var conn net.Conn
	select {
	case conn = <-accepted:
	case <-time.After(hangGuard):
		t.Fatalf("no connection within %v", hangGuard)
	}
	defer conn.Close()
	if _, err := io.ReadFull(conn, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	cancel()
	awaitCanceled(t, errc)
	if err := conn.SetReadDeadline(time.Now().Add(hangGuard)); err != nil {
		t.Fatal(err)
	}
	n, err := io.Copy(io.Discard, conn)
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("peer read %d bytes, then %v; want a connection reset", n, err)
	}
	if n >= 2*int64(len(payload)) {
		t.Fatalf("peer read the whole %d-byte batch after the cancel", n)
	}
}

// staged lists the files the server in dir has staged under name (a glob
// pattern) on any of its connections.
func staged(dir, name string) []string {
	got, _ := filepath.Glob(filepath.Join(dir, stagingDir, "*", name))
	return got
}

// cancelMidBatch starts a batch of 1 024 small files under round's own
// directory, waits for its first file to reach the server, cancels, and
// checks that Transfer returns context.Canceled.
func cancelMidBatch(t *testing.T, cli *Client, dir string, round int) {
	t.Helper()
	payload := make([]byte, 4<<10)
	files := make([]File, 1024)
	for i := range files {
		files[i] = File{Name: fmt.Sprintf("r%d/%04d", round, i), Data: payload}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := transferAsync(ctx, cli, files)
	waitFor(t, "the first file of the batch reaching the server", func() bool {
		return len(staged(dir, fmt.Sprintf("r%d/*", round))) > 0
	})
	cancel()
	awaitCanceled(t, errc)
}

// TestCancelledTransfersLeaveNoGoroutines cancels several transfers
// mid-batch against the real server; neither side may keep a goroutine for
// them afterwards.
func TestCancelledTransfersLeaveNoGoroutines(t *testing.T) {
	_, cli, dir := newPair(t, 2)
	base := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		cancelMidBatch(t, cli, dir, round)
	}
	waitFor(t, fmt.Sprintf("goroutines back to the baseline of %d", base), func() bool {
		return runtime.NumGoroutine() <= base
	})
}

// TestCancelledBatchLandsNothing: the server moves a connection's files
// into place only when its batch ends cleanly, so once a cancelled batch's
// connections are gone none of its files exist, staged or in place, though
// the server had received many of them.
func TestCancelledBatchLandsNothing(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		cancelMidBatch(t, cli, dir, round)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, pattern := range []string{filepath.Join(dir, "r*", "*"), filepath.Join(dir, stagingDir, "*", "*")} {
		if got, _ := filepath.Glob(pattern); len(got) != 0 {
			t.Fatalf("%d files of cancelled batches left, %s first", len(got), got[0])
		}
	}
}

// TestCancelAfterSendLandsAllOrNothing cancels one-file transfers once the
// file has reached the server, around the point where the batch commits:
// each lands the file and returns nil, lands nothing and returns
// context.Canceled, or, cancelled after the commit went out, returns
// ErrUnconfirmed — never the file in place and Canceled.
func TestCancelAfterSendLandsAllOrNothing(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 40
	payload := make([]byte, 64<<10)
	name := func(round int) string { return fmt.Sprintf("f%02d", round) }
	outcomes := make([]error, rounds)
	for round := range outcomes {
		ctx, cancel := context.WithCancel(context.Background())
		errc := transferAsync(ctx, cli, []File{{Name: name(round), Data: payload}})
		waitFor(t, "the file reaching the server", func() bool {
			_, err := os.Stat(filepath.Join(dir, name(round)))
			return err == nil || len(staged(dir, name(round))) > 0
		})
		for range round % 4 {
			runtime.Gosched() // spread the cancel over the commit window
		}
		cancel()
		select {
		case outcomes[round] = <-errc:
		case <-time.After(hangGuard):
			t.Fatalf("round %d: Transfer still blocked %v after cancel", round, hangGuard)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	landed, unconfirmed := 0, 0
	for round, err := range outcomes {
		_, statErr := os.Stat(filepath.Join(dir, name(round)))
		inPlace := statErr == nil
		switch {
		case errors.Is(err, ErrUnconfirmed):
			if errors.Is(err, context.Canceled) {
				t.Errorf("round %d: Transfer returned %v, which also reads as context.Canceled", round, err)
			}
			unconfirmed++
		case inPlace && err != nil:
			t.Errorf("round %d: the file is in place and Transfer returned %v", round, err)
		case !inPlace && !errors.Is(err, context.Canceled):
			t.Errorf("round %d: nothing landed and Transfer returned %v, want context.Canceled", round, err)
		}
		if inPlace {
			landed++
		}
	}
	if got, _ := filepath.Glob(filepath.Join(dir, stagingDir, "*", "*")); len(got) != 0 {
		t.Errorf("%d staged files left, %s first", len(got), got[0])
	}
	t.Logf("%d of %d cancelled transfers landed, %d unconfirmed", landed, rounds, unconfirmed)
}

// TestCancelAfterCommitWithSilentServer: a server that stages the batch,
// takes the commit and then never answers cannot hold Transfer past its
// context, and the cancel reports ErrUnconfirmed, not context.Canceled,
// since the files may be in place.
func TestCancelAfterCommitWithSilentServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	committed := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		r := bufio.NewReader(conn)
		n := 0
		for {
			if _, _, err := readFrame(r); errors.Is(err, errEndOfBatch) {
				break
			} else if err != nil {
				conn.Close()
				return
			}
			n++
		}
		if _, err := fmt.Fprintf(conn, "staged %d\n", n); err != nil {
			conn.Close()
			return
		}
		_, _ = io.Copy(io.Discard, r) // the half-close: the commit
		committed <- conn             // held open, and never answered
	}()
	cli, err := Dial(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := transferAsync(ctx, cli, []File{{Name: "a", Data: []byte("payload")}})
	select {
	case conn := <-committed:
		defer conn.Close()
	case err := <-errc:
		t.Fatalf("Transfer returned %v before the server took the commit", err)
	case <-time.After(hangGuard):
		t.Fatalf("no commit within %v", hangGuard)
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrUnconfirmed) || errors.Is(err, context.Canceled) {
			t.Fatalf("Transfer cancelled after its commit returned %v, want ErrUnconfirmed and not context.Canceled", err)
		}
	case <-time.After(hangGuard):
		t.Fatalf("Transfer still blocked %v after cancel", hangGuard)
	}
}

// TestStagedLeftoversCleared: a server clears what a predecessor left
// staged in its root.
func TestStagedLeftoversCleared(t *testing.T) {
	dir := t.TempDir()
	left := filepath.Join(dir, stagingDir, "7", "half.bin")
	if err := os.MkdirAll(filepath.Dir(left), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(left, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	if _, err := os.Stat(left); !os.IsNotExist(err) {
		t.Fatalf("staged leftover survived NewServer: %v", err)
	}
}

// TestCloseWithIdleConnection: Close returns while clients hold open
// connections that send nothing more.
func TestCloseWithIdleConnection(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(dir)
	if err != nil {
		t.Fatal(err)
	}
	var d net.Dialer
	idle, err := d.DialContext(context.Background(), "tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	// A second connection stores one file and then goes quiet mid-batch.
	// Its file reaching the server proves the server accepted both
	// connections (it accepts in arrival order) and now blocks reading
	// them.
	quiet, err := d.DialContext(context.Background(), "tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer quiet.Close()
	if err := writeFrame(quiet, File{Name: "first.bin", Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the quiet connection's file reaching the server", func() bool {
		return len(staged(dir, "first.bin")) > 0
	})
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case <-closed:
	case <-time.After(hangGuard):
		t.Fatalf("Close still blocked %v with idle connections open", hangGuard)
	}
}

// frameClaiming is a frame header for name that claims size payload bytes.
func frameClaiming(name string, size uint64) []byte {
	raw := binary.LittleEndian.AppendUint16(nil, uint16(len(name)))
	raw = append(raw, name...)
	return binary.LittleEndian.AppendUint64(raw, size)
}

// TestReadFrameSizeClaimDoesNotAllocate: a header's size claim alone does
// not allocate; the payload's chunks are allocated as bytes arrive.
func TestReadFrameSizeClaimDoesNotAllocate(t *testing.T) {
	raw := append(frameClaiming("claim.bin", 256<<20), make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "short payload") {
		t.Fatalf("want a short-payload error, got %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("a 256 MiB claim with 10 payload bytes allocated %d bytes", alloc)
	}
}

// FuzzGridFTPFrame: readFrame over arbitrary bytes errors or parses, never
// panics, and whatever it parses re-encodes to the bytes it consumed; and a
// writeFrame output reads back as the file written.
func FuzzGridFTPFrame(f *testing.F) {
	var good bytes.Buffer
	if err := writeFrame(&good, File{Name: "d/a.bin", Data: []byte("payload")}); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes(), "d/a.bin", []byte("payload"))
	f.Add(append(frameClaiming("claim.bin", 256<<20), make([]byte, 10)...), "x", []byte{})
	f.Add([]byte{}, "", []byte("no name"))
	f.Fuzz(func(t *testing.T, raw []byte, name string, data []byte) {
		if gotName, gotPayload, err := readFrame(bytes.NewReader(raw)); err == nil {
			var again bytes.Buffer
			if err := writeFrame(&again, File{Name: gotName, Data: bytes.Join(gotPayload, nil)}); err != nil {
				t.Fatalf("parsed frame does not re-encode: %v", err)
			}
			if !bytes.HasPrefix(raw, again.Bytes()) {
				t.Fatal("parsed frame re-encodes to different bytes")
			}
		}
		var wire bytes.Buffer
		if err := writeFrame(&wire, File{Name: name, Data: data}); err != nil {
			if !errors.Is(err, ErrBadName) {
				t.Fatalf("writeFrame: %v", err)
			}
			return
		}
		gotName, gotPayload, err := readFrame(&wire)
		gotData := bytes.Join(gotPayload, nil)
		if err != nil || gotName != name || !bytes.Equal(gotData, data) {
			t.Fatalf("round trip of %q (%d bytes): got %q (%d bytes), %v", name, len(data), gotName, len(gotData), err)
		}
	})
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

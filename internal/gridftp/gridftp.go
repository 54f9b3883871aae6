// Package gridftp implements a GridFTP-inspired transfer protocol over TCP.
// A batch of files moves over parallel data connections (the "concurrency"
// knob of the Globus transfer service), and each connection is a
// self-contained transfer: the client streams its share of the batch as
// CRC-32-checked file frames, half-closes, and reads the server's one-line
// verdict from the same connection — "ok <files stored>" or
// "error <reason>". The server runs one handler per connection, which
// stores or rejects what that connection carried as a whole: it stages the
// files and moves them into place only when the batch ends cleanly, so a
// cancelled or failed batch lands nothing.
//
// The WAN simulator (internal/wan) models this protocol's behaviour at
// testbed scale; this package is the actual wire implementation used by
// integration tests and local deployments.
package gridftp

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// File is one transfer unit.
type File struct {
	// Name is a relative path at the destination; ".." is rejected.
	Name string
	// Data is the payload.
	Data []byte
}

// Summary reports a completed transfer.
type Summary struct {
	Files   int     `json:"files"`
	Bytes   int64   `json:"bytes"`
	Seconds float64 `json:"seconds"`
	MBps    float64 `json:"mbps"`
}

// Protocol limits.
const (
	maxNameLen = 4096
	maxFileLen = int64(1) << 36
	// A payload is read in chunks that start at minChunk and double up to
	// maxChunk, each allocated once the one before it has filled: a frame
	// header's size claim alone allocates at most minChunk.
	minChunk = 64 << 10
	maxChunk = 4 << 20
	// maxVerdictLen caps the verdict line the client reads.
	maxVerdictLen = 64 << 10
	// stagingDir, inside the server's root, holds one directory per open
	// connection with the files its batch has delivered so far.
	stagingDir = ".incoming"
)

var (
	// ErrChecksum indicates payload corruption detected by CRC-32.
	ErrChecksum = errors.New("gridftp: checksum mismatch")
	// ErrBadName indicates an unsafe destination path.
	ErrBadName = errors.New("gridftp: unsafe file name")
	// ErrSession indicates a protocol failure: a malformed frame, or a
	// verdict that rejects the transfer or does not match what was sent.
	ErrSession = errors.New("gridftp: session error")
)

// --- Server ---

// Server receives files into a root directory.
type Server struct {
	ln    net.Listener
	dir   string
	seq   atomic.Uint64 // numbers connections for their staging directories
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns map[net.Conn]struct{} // open connections; nil once closed
}

// NewServer starts a server on 127.0.0.1 (ephemeral port) writing received
// files under dir. Files a server that stopped mid-batch left staged in
// dir are removed.
func NewServer(dir string) (*Server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("gridftp: root dir: %w", err)
	}
	if err := os.RemoveAll(filepath.Join(dir, stagingDir)); err != nil {
		return nil, fmt.Errorf("gridftp: staging dir: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("gridftp: listen: %w", err)
	}
	s := &Server{ln: ln, dir: dir, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's dial address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes every open connection, and waits for the
// handlers to return.
func (s *Server) Close() error {
	err := s.ln.Close()
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.conns = nil
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			continue
		}
		s.mu.Lock()
		open := s.conns != nil
		if open {
			s.conns[conn] = struct{}{}
			s.wg.Add(1)
		}
		s.mu.Unlock()
		if !open {
			conn.Close()
			continue
		}
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			conn.Close()
		}()
	}
}

// handle receives one connection's frames until the client half-closes,
// then answers with the verdict. The frames are staged in the connection's
// own directory and renamed into place before an ok verdict; on any error
// they are removed instead.
func (s *Server) handle(conn net.Conn) {
	r := bufio.NewReader(conn)
	stage := filepath.Join(s.dir, stagingDir, strconv.FormatUint(s.seq.Add(1), 10))
	n, names, err := s.receive(r, stage)
	if err == nil {
		err = s.commit(stage, names)
	}
	// Whatever was not renamed into place goes. Failing to remove it
	// leaves only staged files, which the next NewServer clears.
	_ = os.RemoveAll(stage)
	verdict := "ok " + strconv.Itoa(n) + "\n"
	if err != nil {
		// Read out the rest of the stream, so a client still writing
		// reaches its half-close and reads the verdict instead of a reset.
		// A read error here means the client is gone, as does a failed
		// verdict write below: neither leaves anyone to tell.
		_, _ = io.Copy(io.Discard, r)
		verdict = "error " + strings.ReplaceAll(err.Error(), "\n", " ") + "\n"
	}
	_, _ = io.WriteString(conn, verdict)
}

// receive stages frames under stage until EOF at a frame boundary, and
// reports how many it staged and the distinct names they carried (a later
// frame of the same name replaces the earlier one, as it would in place).
func (s *Server) receive(r io.Reader, stage string) (int, []string, error) {
	var names []string
	seen := map[string]bool{}
	for n := 0; ; n++ {
		name, payload, err := readFrame(r)
		if errors.Is(err, io.EOF) {
			return n, names, nil
		}
		if err == nil {
			name, err = cleanName(name)
		}
		if err == nil {
			err = store(filepath.Join(stage, name), payload)
		}
		if err != nil {
			return n, nil, err
		}
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
}

// cleanName is name as a path relative to the root, refused when it would
// leave the root or reach into the staging directory.
func cleanName(name string) (string, error) {
	clean := filepath.Clean(name)
	if strings.HasPrefix(clean, "..") || filepath.IsAbs(clean) ||
		clean == stagingDir || strings.HasPrefix(clean, stagingDir+string(filepath.Separator)) {
		return "", fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return clean, nil
}

// commit renames a batch's staged files into place under the root.
func (s *Server) commit(stage string, names []string) error {
	for _, name := range names {
		path := filepath.Join(s.dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.Rename(filepath.Join(stage, name), path); err != nil {
			return err
		}
	}
	return nil
}

func store(path string, payload [][]byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, chunk := range payload {
		if _, err := f.Write(chunk); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// --- Wire framing ---
//
// Frame: u16 nameLen | name | u64 size | payload | u32 crc32(payload).

func writeFrame(w io.Writer, f File) error {
	if len(f.Name) == 0 || len(f.Name) > maxNameLen {
		return fmt.Errorf("%w: %q", ErrBadName, f.Name)
	}
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(f.Name)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := io.WriteString(w, f.Name); err != nil {
		return err
	}
	var sz [8]byte
	binary.LittleEndian.PutUint64(sz[:], uint64(len(f.Data)))
	if _, err := w.Write(sz[:]); err != nil {
		return err
	}
	if _, err := w.Write(f.Data); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(f.Data))
	_, err := w.Write(crc[:])
	return err
}

// readFrame reads one frame and returns its name and payload, the payload
// as the chunks it arrived in.
func readFrame(r io.Reader) (string, [][]byte, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return "", nil, err // io.EOF at a frame boundary is clean
	}
	nameLen := int(binary.LittleEndian.Uint16(hdr[:]))
	if nameLen == 0 || nameLen > maxNameLen {
		return "", nil, fmt.Errorf("%w: name length %d", ErrSession, nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return "", nil, fmt.Errorf("gridftp: short name: %w", err)
	}
	var sz [8]byte
	if _, err := io.ReadFull(r, sz[:]); err != nil {
		return "", nil, fmt.Errorf("gridftp: short size: %w", err)
	}
	size := int64(binary.LittleEndian.Uint64(sz[:]))
	if size < 0 || size > maxFileLen {
		return "", nil, fmt.Errorf("%w: size %d", ErrSession, size)
	}
	var payload [][]byte
	var sum uint32
	for left, next := size, int64(minChunk); left > 0; next = min(2*next, maxChunk) {
		chunk := make([]byte, min(left, next))
		if _, err := io.ReadFull(r, chunk); err != nil {
			return "", nil, fmt.Errorf("gridftp: short payload: %w", err)
		}
		payload = append(payload, chunk)
		sum = crc32.Update(sum, crc32.IEEETable, chunk)
		left -= int64(len(chunk))
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return "", nil, fmt.Errorf("gridftp: short crc: %w", err)
	}
	if sum != binary.LittleEndian.Uint32(crc[:]) {
		return "", nil, ErrChecksum
	}
	return string(name), payload, nil
}

// --- Client ---

// Client transfers file batches to one server.
type Client struct {
	addr     string
	channels int
}

// Dial prepares a client for addr with the given data-channel concurrency.
func Dial(addr string, channels int) (*Client, error) {
	if channels <= 0 {
		channels = 4
	}
	if channels > 64 {
		return nil, errors.New("gridftp: too many channels")
	}
	return &Client{addr: addr, channels: channels}, nil
}

// Transfer sends files over parallel data connections, which take them from
// one shared queue, and waits for every connection's verdict. When ctx ends
// first, every connection closes and Transfer returns ctx.Err().
func (c *Client) Transfer(ctx context.Context, files []File) (*Summary, error) {
	if len(files) == 0 {
		return &Summary{}, nil
	}
	start := time.Now()
	var next atomic.Int64 // the shared queue: the next file index to send
	errs := make([]error, min(c.channels, len(files)))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = c.send(ctx, files, &next)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	var bytes int64
	for _, f := range files {
		bytes += int64(len(f.Data))
	}
	elapsed := time.Since(start).Seconds()
	sum := &Summary{Files: len(files), Bytes: bytes, Seconds: elapsed}
	if elapsed > 0 {
		sum.MBps = float64(bytes) / 1e6 / elapsed
	}
	return sum, nil
}

// send is one data connection: once the queue yields a file it dials,
// streams frames until the queue is empty, half-closes, and checks the
// server's verdict. The connection closes when ctx ends, so a blocked dial,
// write or read returns, and it closes with a reset: the frames still
// queued in the client's socket are dropped rather than delivered, and the
// server's next read fails instead of ending cleanly.
func (c *Client) send(ctx context.Context, files []File, next *atomic.Int64) error {
	i := next.Add(1) - 1
	if i >= int64(len(files)) {
		return nil
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return fmt.Errorf("gridftp: dial: %w", err)
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() {
		// A linger of zero makes Close send a reset, not a FIN behind the
		// queued bytes; an error leaves the plain Close, which still
		// unblocks this side.
		_ = conn.(*net.TCPConn).SetLinger(0)
		conn.Close()
	})
	defer stop()

	bw := bufio.NewWriterSize(conn, 256<<10)
	sent := 0
	for ; i < int64(len(files)); i = next.Add(1) - 1 {
		if err := writeFrame(bw, files[i]); err != nil {
			return fmt.Errorf("gridftp: data channel: %w", err)
		}
		sent++
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("gridftp: data channel: %w", err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		return fmt.Errorf("gridftp: data channel: %w", err)
	}
	line, err := io.ReadAll(io.LimitReader(conn, maxVerdictLen))
	if err != nil {
		return fmt.Errorf("gridftp: verdict: %w", err)
	}
	verdict := strings.TrimSuffix(string(line), "\n")
	if reason, rejected := strings.CutPrefix(verdict, "error "); rejected {
		// The failure reason crosses the wire as text; restore the typed
		// identity of checksum failures so callers can classify wire
		// corruption (errors.Is(err, ErrChecksum)) and retry it rather than
		// treating it as a permanent protocol error.
		if strings.Contains(reason, ErrChecksum.Error()) {
			return fmt.Errorf("%w: server rejected transfer: %s", ErrChecksum, reason)
		}
		return fmt.Errorf("%w: %s", ErrSession, reason)
	}
	if verdict != "ok "+strconv.Itoa(sent) {
		return fmt.Errorf("%w: sent %d files, server answered %q", ErrSession, sent, verdict)
	}
	return nil
}

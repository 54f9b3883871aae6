// Package gridftp implements a GridFTP-inspired transfer protocol over TCP.
// A batch of files moves over parallel data connections (the "concurrency"
// knob of the Globus transfer service). Each connection streams its share
// of the batch as CRC-32-checked file frames and ends it with an
// end-of-batch marker; the server stages the files and answers
// "staged <n>". Only once every connection of the batch is staged does the
// client half-close them, and a half-close is that connection's commit:
// the server moves its files into place and answers "ok <files stored>".
// A cancel or a failure before that point resets every connection, and the
// server removes what it staged, so nothing of the batch lands. After it,
// each connection commits on its own: a failed half-close or rename on one
// can leave the others' files in place beside an error, and a cancel ends
// the wait for the verdicts with ErrUnconfirmed, so a file in place never
// comes with context.Canceled. A rejected frame gets "error <reason>" in
// place of either answer.
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
	// ErrUnconfirmed indicates a Transfer cancelled after it committed,
	// before every verdict arrived: some or all of its files may be in
	// place.
	ErrUnconfirmed = errors.New("gridftp: commit sent, verdict unknown")
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

// handle receives one connection's share of a batch: its frames, staged in
// the connection's own directory up to the end-of-batch marker, and then
// the client's decision (awaitCommit). A commit renames the staged files
// into place before the "ok" verdict; on any error they are removed
// instead.
func (s *Server) handle(conn net.Conn) {
	r := bufio.NewReader(conn)
	stage := filepath.Join(s.dir, stagingDir, strconv.FormatUint(s.seq.Add(1), 10))
	n, names, err := s.receive(r, stage)
	if err == nil {
		err = awaitCommit(conn, r, n)
	}
	if err == nil {
		err = s.commit(stage, names)
	}
	// Whatever was not renamed into place goes. Failing to remove it
	// leaves only staged files, which the next NewServer clears.
	_ = os.RemoveAll(stage)
	if err != nil {
		// The verdict goes first, since the client reads only once it has
		// sent its marker; then the rest of the stream is read out until the
		// client closes, so its writes never block on a full socket. A read
		// error here means the client is gone, as does a failed verdict
		// write: neither leaves anyone to tell.
		_, _ = io.WriteString(conn, "error "+strings.ReplaceAll(err.Error(), "\n", " ")+"\n")
		_, _ = io.Copy(io.Discard, r)
		return
	}
	_, _ = io.WriteString(conn, "ok "+strconv.Itoa(n)+"\n")
}

// awaitCommit tells the client that its n frames are staged and waits for
// its decision. A clean EOF — the client's half-close — commits; a read
// error, such as the reset a cancelled or failed batch sends, aborts, and
// so does a byte after the marker.
func awaitCommit(w io.Writer, r io.Reader, n int) error {
	if _, err := io.WriteString(w, "staged "+strconv.Itoa(n)+"\n"); err != nil {
		return err
	}
	var b [1]byte
	switch _, err := io.ReadFull(r, b[:]); {
	case errors.Is(err, io.EOF):
		return nil
	case err != nil:
		return err
	}
	return fmt.Errorf("%w: data after the end-of-batch marker", ErrSession)
}

// receive stages frames under stage until the end-of-batch marker, and
// reports how many it staged and the distinct names they carried (a later
// frame of the same name replaces the earlier one, as it would in place).
// A stream that ends before the marker is an error: its client never
// finished the batch.
func (s *Server) receive(r io.Reader, stage string) (int, []string, error) {
	var names []string
	seen := map[string]bool{}
	for n := 0; ; n++ {
		name, payload, err := readFrame(r)
		if errors.Is(err, errEndOfBatch) {
			return n, names, nil
		}
		if errors.Is(err, io.EOF) {
			err = fmt.Errorf("%w: stream ended before the end-of-batch marker", ErrSession)
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
// A name length of zero, which no file has, is the end-of-batch marker.

// endOfBatch is the marker that ends a connection's share of a batch.
var endOfBatch = []byte{0, 0}

// errEndOfBatch is readFrame's report of the end-of-batch marker.
var errEndOfBatch = errors.New("gridftp: end of batch")

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
// as the chunks it arrived in, or errEndOfBatch for the marker.
func readFrame(r io.Reader) (string, [][]byte, error) {
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return "", nil, err // io.EOF at a frame boundary
	}
	nameLen := int(binary.LittleEndian.Uint16(hdr[:]))
	if nameLen == 0 {
		return "", nil, errEndOfBatch
	}
	if nameLen > maxNameLen {
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
// one shared queue: once every connection's share is staged on the server,
// the client half-closes them all, which commits each, and waits for every
// connection's verdict. A cancel or a failure on any connection before
// that point resets every connection, so nothing lands, and Transfer
// returns ctx.Err() or the first failure. A cancel after that point cannot
// take the commit back: it ends the wait for the verdicts still to come,
// and Transfer returns ErrUnconfirmed.
func (c *Client) Transfer(ctx context.Context, files []File) (*Summary, error) {
	if len(files) == 0 {
		return &Summary{}, nil
	}
	start := time.Now()
	var next atomic.Int64 // the shared queue: the next file index to send
	errs := make([]error, min(c.channels, len(files)))
	b := &barrier{waiting: len(errs), done: make(chan struct{})}
	stop := context.AfterFunc(ctx, func() { b.abort(ctx.Err()) })
	defer stop()
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = c.send(ctx, b, files, &next)
		}()
	}
	wg.Wait()
	if !b.commit {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, b.cause
	}
	if err := errors.Join(errs...); err != nil {
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

// barrier is one Transfer's commit decision. Every sender arrives once its
// connection's share is staged, or at once when the queue left it nothing
// to send, and when the last one arrives the batch commits. abort decides
// the other way and resets every connection it tracks; whichever comes
// first wins, so a batch that committed is never also aborted.
type barrier struct {
	mu      sync.Mutex
	waiting int            // senders yet to arrive
	conns   []*net.TCPConn // connections to reset on abort
	commit  bool           // the batch committed; set before done closes
	cause   error          // why the batch aborted; set before done closes
	done    chan struct{}  // closed once commit or cause is set; a cancel aborts, so it always closes
}

// track adds conn to the connections an abort resets, and reports false,
// having reset it, when the batch has already aborted.
func (b *barrier) track(conn *net.TCPConn) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cause != nil {
		reset(conn)
		return false
	}
	b.conns = append(b.conns, conn)
	return true
}

// arrive records one sender as ready, waits for the decision, and reports
// whether the batch committed.
func (b *barrier) arrive() bool {
	b.mu.Lock()
	if b.waiting--; b.waiting == 0 && b.cause == nil {
		b.commit = true
		close(b.done)
	}
	b.mu.Unlock()
	<-b.done
	return b.commit
}

// abort decides against the batch for cause, unless it has committed or
// already aborted, and resets every tracked connection.
func (b *barrier) abort(cause error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.commit || b.cause != nil {
		return
	}
	b.cause = cause
	close(b.done)
	for _, conn := range b.conns {
		reset(conn)
	}
}

// reset closes conn with a reset rather than a FIN: after "staged", a FIN
// is the commit, and before it a FIN would still deliver the frames queued
// in the socket. An error from SetLinger leaves the plain Close, which
// still unblocks this side.
func reset(conn *net.TCPConn) {
	_ = conn.SetLinger(0)
	conn.Close()
}

// send is one data connection. Once the queue yields a file it dials (a
// cancel ends a blocked dial), streams frames until the queue is empty,
// sends the end-of-batch marker and reads the server's "staged" answer;
// then it arrives at the barrier. If the batch commits it half-closes and
// checks the verdict, which a cancel stops waiting for. Every other way
// out aborts the batch and leaves the connection reset, never closed with
// a FIN.
func (c *Client) send(ctx context.Context, b *barrier, files []File, next *atomic.Int64) error {
	i := next.Add(1) - 1
	if i >= int64(len(files)) {
		b.arrive()
		return nil
	}
	conn, sent, verdicts, err := c.stage(ctx, b, files, i, next)
	if err != nil {
		b.abort(err)
		return err
	}
	if !b.arrive() {
		reset(conn)
		return b.cause
	}
	defer conn.Close()
	if err := conn.CloseWrite(); err != nil {
		return fmt.Errorf("gridftp: commit: %w", err)
	}
	stop := context.AfterFunc(ctx, func() { _ = conn.SetReadDeadline(time.Unix(1, 0)) })
	defer stop()
	line, err := verdicts.ReadString('\n')
	if err != nil && !errors.Is(err, io.EOF) {
		if ctx.Err() != nil {
			// Not ctx.Err(): the files may be in place.
			return fmt.Errorf("%w (%v)", ErrUnconfirmed, ctx.Err())
		}
		return fmt.Errorf("gridftp: verdict: %w", err)
	}
	return checkAnswer(line, "ok", sent)
}

// stage dials and sends this connection's share of the batch, starting at
// file i and then taking from the queue, ends it with the marker, and
// checks the server's "staged" answer. It returns the connection, the
// number of files it carried and the reader the verdict will arrive on;
// on an error the connection is already reset.
func (c *Client) stage(ctx context.Context, b *barrier, files []File, i int64, next *atomic.Int64) (*net.TCPConn, int, *bufio.Reader, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("gridftp: dial: %w", err)
	}
	conn := nc.(*net.TCPConn)
	if !b.track(conn) {
		return nil, 0, nil, b.cause
	}
	fail := func(err error) (*net.TCPConn, int, *bufio.Reader, error) {
		reset(conn)
		return nil, 0, nil, err
	}
	bw := bufio.NewWriterSize(conn, 256<<10)
	sent := 0
	for ; i < int64(len(files)); i = next.Add(1) - 1 {
		if err := writeFrame(bw, files[i]); err != nil {
			return fail(fmt.Errorf("gridftp: data channel: %w", err))
		}
		sent++
	}
	if _, err := bw.Write(endOfBatch); err != nil {
		return fail(fmt.Errorf("gridftp: data channel: %w", err))
	}
	if err := bw.Flush(); err != nil {
		return fail(fmt.Errorf("gridftp: data channel: %w", err))
	}
	answers := bufio.NewReader(io.LimitReader(conn, maxVerdictLen))
	line, err := answers.ReadString('\n')
	if err != nil {
		return fail(fmt.Errorf("gridftp: staging answer: %w", err))
	}
	if err := checkAnswer(line, "staged", sent); err != nil {
		return fail(err)
	}
	return conn, sent, answers, nil
}

// checkAnswer checks one line from the server against "<word> <sent>".
func checkAnswer(line, word string, sent int) error {
	line = strings.TrimSuffix(line, "\n")
	if reason, rejected := strings.CutPrefix(line, "error "); rejected {
		// The failure reason crosses the wire as text; restore the typed
		// identity of checksum failures so callers can classify wire
		// corruption (errors.Is(err, ErrChecksum)) and retry it rather than
		// treating it as a permanent protocol error.
		if strings.Contains(reason, ErrChecksum.Error()) {
			return fmt.Errorf("%w: server rejected transfer: %s", ErrChecksum, reason)
		}
		return fmt.Errorf("%w: %s", ErrSession, reason)
	}
	if line != word+" "+strconv.Itoa(sent) {
		return fmt.Errorf("%w: sent %d files, server answered %q", ErrSession, sent, line)
	}
	return nil
}

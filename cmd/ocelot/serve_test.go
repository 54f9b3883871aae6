package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestDaemonDropsSlowHeaderClient is the regression for a slow client
// holding a daemon connection forever: a client that never finishes its
// request headers must be disconnected once readHeaderTimeout passes. A
// response that streams for longer than that, as `-watch` does, must still
// run to its end on the same server.
func TestDaemonDropsSlowHeaderClient(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	srv := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "first")
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
			return
		}
		fmt.Fprintln(w, "second")
	}))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	streamed := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String())
		if err != nil {
			streamed <- err
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && string(body) != "first\nsecond\n" {
			err = fmt.Errorf("streamed body %q", body)
		}
		streamed <- err
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		close(release)
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	// The blank line that ends the headers never comes.
	_, err = conn.Write([]byte("GET / HTTP/1.1\r\nHost: ocelot\r\n"))
	if err == nil {
		_ = conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
		_, err = io.ReadAll(conn)
	}
	held := time.Since(start)
	close(release)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Errorf("connection with unfinished headers still open after %v", held.Round(time.Millisecond))
	} else if err != nil {
		t.Errorf("slow-header connection: %v", err)
	}
	if err := <-streamed; err != nil {
		t.Errorf("stream that outlived the header deadline: %v", err)
	}
}

// Package c is ctxflow golden data: blocking operations with and without
// cancellation, HTTP entry points, dials, and root-context minting.
package c

import (
	"context"
	"net"
	"net/http"
	"time"
)

// SleepBlocks parks a goroutine no cancellation can reach.
func SleepBlocks() {
	time.Sleep(time.Second) // want `time.Sleep ignores cancellation`
}

// BareSend blocks forever if the receiver is gone.
func BareSend(ch chan int) {
	ch <- 1 // want `bare channel send blocks without observing a context`
}

// BareRecv blocks forever if the sender is gone.
func BareRecv(ch chan int) int {
	return <-ch // want `bare channel receive blocks without observing a context`
}

// DeafSelect has no escape hatch at all.
func DeafSelect(a, b chan int) int {
	select { // want `select has neither a default nor a cancellation case`
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}

// NoCtxHTTP uses the package-level client with no context.
func NoCtxHTTP() {
	http.Get("http://example.invalid") // want `sends a request with no context`
}

// NoCtxRequest builds a context-free request.
func NoCtxRequest() {
	http.NewRequest("GET", "http://example.invalid", nil) // want `sends a request with no context`
}

// NoCtxClient calls a convenience method that cannot carry a context.
func NoCtxClient(c *http.Client) {
	c.Get("http://example.invalid") // want `sends a request with no context`
}

// NoCtxDial connects with no way to cancel the dial.
func NoCtxDial() {
	net.Dial("tcp", "127.0.0.1:1") // want `net.Dial dials with no context`
}

// NoCtxDialTimeout bounds the dial by time but not by cancellation.
func NoCtxDialTimeout() {
	net.DialTimeout("tcp", "127.0.0.1:1", time.Second) // want `net.DialTimeout dials with no context`
}

// NoCtxDialer uses a Dialer's context-free method.
func NoCtxDialer(d *net.Dialer) {
	d.Dial("tcp", "127.0.0.1:1") // want `\(\*net.Dialer\).Dial dials with no context`
}

// MintsRoot creates a root context in library code.
func MintsRoot() context.Context {
	return context.Background() // want `mints a root context in library code`
}

// MintsTODO is the same failure wearing a different name.
func MintsTODO() context.Context {
	return context.TODO() // want `mints a root context in library code`
}

// --- negative cases ---

// OKCtxRecv waits on the context itself.
func OKCtxRecv(ctx context.Context) {
	<-ctx.Done()
}

// OKDoneChan waits on a close-on-shutdown signal channel.
func OKDoneChan(done chan struct{}) {
	<-done
}

// OKSelectCtx blocks interruptibly.
func OKSelectCtx(ctx context.Context, ch chan int) int {
	select {
	case v := <-ch:
		return v
	case <-ctx.Done():
		return 0
	}
}

// OKSelectDefault never blocks at all.
func OKSelectDefault(ch chan int) int {
	select {
	case v := <-ch:
		return v
	default:
		return 0
	}
}

// OKClientDo carries the context inside the request.
func OKClientDo(ctx context.Context, c *http.Client) error {
	req, err := http.NewRequestWithContext(ctx, "GET", "http://example.invalid", nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// OKDialContext dials under the caller's context.
func OKDialContext(ctx context.Context) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", "127.0.0.1:1")
}

// OKSuppressed is a reviewed waiver for a provably non-blocking send.
func OKSuppressed(errs chan error) {
	errs <- nil //ocelotvet:ok ctxflow buffered one-slot channel in golden data
}

// Package b is poolsafe golden data: sync.Pool discipline plus the
// project's acquire/release pairs (registered by the test as b.acquire).
package b

import (
	"bytes"
	"errors"
	"sync"
)

var bufPool = sync.Pool{New: func() interface{} { return new(bytes.Buffer) }}

// resource mimics a domain pool handle (huffman.Table, sz arena).
type resource struct{ data []byte }

// Release returns the resource to its pool.
func (r *resource) Release() {}

// acquire is registered with poolsafe.AcquirePairs as "b.acquire" →
// "Release" by the golden test.
func acquire() (*resource, error) { return &resource{}, nil }

// lend is registered with poolsafe.AcquirePairs as "b.lend" →
// ReleaseFunc by the golden test: it lends a pooled stream with the func
// that gives it back, as codec.Pooled's methods do.
func lend() ([]byte, func(), error) { return nil, func() {}, nil }

// --- positive cases ---

// LeakLent gives a lent stream back on one path but not the other.
func LeakLent() int {
	stream, release, err := lend()
	if err != nil {
		return 0
	}
	if n := len(stream); n > 0 {
		return n // want `pooled release .* is not released on this return path \(call release\(\) once the stream is copied\)`
	}
	release()
	return 0
}

// LeakLentAssigned assigns into declared variables, as a stage that picks
// one of several codec entries does.
func LeakLentAssigned(sink func([]byte, func())) error {
	var stream []byte
	var release func()
	var err error
	stream, release, err = lend()
	if err != nil {
		return err
	}
	sink(stream, release)
	return nil // want `pooled release .* is not released on this return path`
}

// LeakOnReturn drops the pooled buffer on the early return.
func LeakOnReturn(data []byte) int {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if len(data) == 0 {
		return 0 // want `pooled buf .* is not released on this return path`
	}
	buf.Write(data)
	n := buf.Len()
	bufPool.Put(buf)
	return n
}

// LeakViaCall consumes the resource in a call on the return line; that is
// use, not a transfer, so the resource still leaks (the bug poolsafe once
// found in a Huffman build-and-encode helper).
func LeakViaCall(data []byte) []byte {
	r, err := acquire()
	if err != nil {
		return nil
	}
	return process(data, r) // want `pooled r .* is not released on this return path`
}

func process(data []byte, r *resource) []byte { return data }

// AliasAfterPut returns a view of the buffer it already put back; the
// next Get will overwrite the caller's bytes.
func AliasAfterPut(data []byte) []byte {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	buf.Write(data)
	bufPool.Put(buf)
	return buf.Bytes() // want `released before this return but aliases into the returned value`
}

// --- negative cases ---

// OKDefer releases on every path with one defer.
func OKDefer(data []byte) int {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	if len(data) == 0 {
		return 0
	}
	buf.Write(data)
	return buf.Len()
}

// OKDeferConsume consumes the resource in the return expression under a
// deferred release — the value is computed before the defer runs.
func OKDeferConsume(data []byte) []byte {
	r, err := acquire()
	if err != nil {
		return nil
	}
	defer r.Release()
	return process(data, r)
}

// OKErrorExit returns the acquisition's own error; there is nothing to
// release on that path.
func OKErrorExit() (*resource, error) {
	r, err := acquire()
	if err != nil {
		return nil, err
	}
	return r, nil // transfer: the caller owns r now
}

// OKClosureTransfer hands the caller a release func along with a view of
// the pooled buffer; ownership moves with it (the deflateCompress idiom).
func OKClosureTransfer(data []byte) ([]byte, func(), error) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	release := func() { bufPool.Put(buf) }
	if len(data) == 0 {
		release()
		return nil, nil, errors.New("empty")
	}
	buf.Write(data)
	return buf.Bytes(), release, nil
}

// OKLentReleased copies the lent stream, then gives it back.
func OKLentReleased() ([]byte, error) {
	stream, release, err := lend()
	if err != nil {
		return nil, err
	}
	defer release()
	return append([]byte(nil), stream...), nil
}

// OKLentTransfer hands the lent stream and its release func on to the
// caller, who owns both now.
func OKLentTransfer() ([]byte, func(), error) {
	stream, release, err := lend()
	if err != nil {
		return nil, nil, err
	}
	return stream, release, nil
}

// OKLentHandOff passes the stream to another stage, which releases it; the
// waiver names who does.
func OKLentHandOff(sink func([]byte, func())) error {
	stream, release, err := lend()
	if err != nil {
		return err
	}
	sink(stream, release)
	//ocelotvet:ok poolsafe golden-test waiver: sink releases the stream after copying it
	return nil
}

// OKNilGuard returns inside the "pool handed back nothing" branch; there
// is no live resource to release there.
func OKNilGuard() *bytes.Buffer {
	buf, _ := bufPool.Get().(*bytes.Buffer)
	if buf == nil {
		return nil
	}
	defer bufPool.Put(buf)
	buf.Reset()
	return nil
}

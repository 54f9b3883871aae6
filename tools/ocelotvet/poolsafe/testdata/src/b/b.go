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

// --- positive cases ---

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

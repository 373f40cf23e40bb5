// Package resourceleak exercises the must-release analysis: resources
// acquired here must be closed, returned, stored, handed off, or
// pooled back on every path out of the acquiring function.
package resourceleak

import (
	"crypto/tls"
	"io"
	"net"
	"os"
	"sync"
)

// leakOnEarlyReturn forgets the connection on the fast path.
func leakOnEarlyReturn(addr string, fast bool) error {
	c, err := net.Dial("tcp", addr) // want "net.Dial result in leakOnEarlyReturn is not released on every path"
	if err != nil {
		return err
	}
	if fast {
		return nil
	}
	return c.Close()
}

// closedEverywhere is fine: the deferred close covers every path, and
// the error-return path has nothing to close.
func closedEverywhere(addr string) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer c.Close()
	_, err = c.Write([]byte("ping"))
	return err
}

// handedBack is fine: the caller owns the result.
func handedBack(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr)
}

// release closes its argument; viaHelper relies on its summary.
func release(c net.Conn) {
	c.Close()
}

// viaHelper is fine: the helper's ParamDone summary discharges the
// obligation.
func viaHelper(addr string) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	release(c)
	return nil
}

type server struct {
	conns []net.Conn
}

// stored is fine: the connection moves into a longer-lived structure.
func (s *server) stored(addr string) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	s.conns = append(s.conns, c)
	return nil
}

// fileLeak forgets the file on the read-error path.
func fileLeak(path string) ([]byte, error) {
	f, err := os.Open(path) // want "os.Open result in fileLeak is not released on every path"
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 16)
	if _, err := f.Read(buf); err != nil {
		return nil, err
	}
	f.Close()
	return buf, nil
}

var bufPool sync.Pool

// poolLeak skips the Put on the undersized path.
func poolLeak(n int) int {
	buf := bufPool.Get().([]byte) // want "pool buffer in poolLeak is not released on every path"
	if n > len(buf) {
		return 0
	}
	bufPool.Put(buf)
	return n
}

// poolRoundTrip is fine: every path returns the buffer.
func poolRoundTrip(n int) int {
	buf := bufPool.Get().([]byte)
	if n > len(buf) {
		bufPool.Put(buf)
		return 0
	}
	bufPool.Put(buf)
	return n
}

// serveAll is fine: each accepted connection is captured by a closure
// that disposes of it, and the accept-error path returns nothing live.
func serveAll(l net.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		go func() {
			io.Copy(io.Discard, c)
			c.Close()
		}()
	}
}

// enc is a pooled reply encoder.
type enc struct{ buf []byte }

var encPool = sync.Pool{New: func() any { return new(enc) }}

var sent int

// build hands the caller a pooled encoder.
func build(b byte) *enc {
	e := encPool.Get().(*enc)
	e.buf = append(e.buf[:0], b)
	return e
}

// recycle returns e to its pool.
func recycle(e *enc) { encPool.Put(e) }

// sendEnc counts e out and releases it through recycle.
func sendEnc(e *enc) {
	sent += len(e.buf)
	recycle(e)
}

// serveEncoded is fine: every encoder build hands out goes to sendEnc,
// whose summary says it releases its pooled pointer argument.
func serveEncoded(in []byte) {
	for _, b := range in {
		e := build(b)
		sendEnc(e)
	}
}

// dropEncoded skips the send on one path.
func dropEncoded(b byte) {
	e := build(b) // want "pool buffer in dropEncoded is not released on every path"
	if b == 0 {
		return
	}
	sendEnc(e)
}

// dialWrapped is fine: the return statement hands the dialed
// connection to a wrapper outside the module, which takes it.
func dialWrapped(addr string) (net.Conn, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return tls.Client(raw, nil), nil
}

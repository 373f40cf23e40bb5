package oncrpc

import (
	"context"
	"io"
	"net"
	"testing"
	"time"
)

// blackholeServer accepts one connection, swallows everything written
// to it, and never replies — a server-side stand-in for a stalled WAN
// path. The accepted conn is delivered on the returned channel so the
// test can cut it mid-stream.
func blackholeServer(t *testing.T) (net.Addr, <-chan net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- c
		io.Copy(io.Discard, c)
	}()
	return l.Addr(), accepted
}

// TestMidStreamCutWakesAllWaiters covers the transport-failure
// contract: when the connection dies with calls in flight, every
// waiter must wake with the sticky transport error, and a call issued
// after the cut must fail fast rather than deadlock.
func TestMidStreamCutWakesAllWaiters(t *testing.T) {
	t.Parallel()
	addr, accepted := blackholeServer(t)
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(conn, testProg, testVers)
	defer cl.Close()

	const waiters = 8
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			var out echoArgs
			errs <- cl.Call(context.Background(), procEcho, &echoArgs{S: "stuck"}, &out)
		}()
	}

	// Let the calls reach the wire (the server reads but never
	// replies, so they stay pending), then cut the transport from the
	// server side.
	var srvConn net.Conn
	select {
	case srvConn = <-accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("server never accepted")
	}
	time.Sleep(50 * time.Millisecond)
	srvConn.Close()

	for i := 0; i < waiters; i++ {
		select {
		case err := <-errs:
			if !IsTransportError(err) {
				t.Fatalf("waiter %d woke with %v, want transport error", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("in-flight call not woken by transport cut")
		}
	}

	// Post-cut call: must return the sticky error promptly.
	done := make(chan error, 1)
	go func() {
		var out echoArgs
		done <- cl.Call(context.Background(), procEcho, &echoArgs{S: "late"}, &out)
	}()
	select {
	case err := <-done:
		if !IsTransportError(err) {
			t.Fatalf("post-cut call: %v, want transport error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("post-cut call deadlocked")
	}
	if cl.Err() == nil {
		t.Fatal("failed client reports nil Err")
	}
	select {
	case <-cl.Done():
	default:
		t.Fatal("Done channel not closed after transport failure")
	}
}

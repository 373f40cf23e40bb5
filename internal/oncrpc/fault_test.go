package oncrpc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/xdr"
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

// TestFaultCallBoundWithoutDeadline: a call under a context with no
// deadline, to a server that never answers, still ends with
// DeadlineExceeded at the client's bound, and a due time passed to the
// internal call that is earlier than a pending call's re-arms the
// sweep for it. The client stays healthy.
func TestFaultCallBoundWithoutDeadline(t *testing.T) {
	t.Parallel()
	addr, _ := blackholeServer(t)
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	cl := NewClient(conn, testProg, testVers)
	defer cl.Close()
	cl.timeout = 100 * time.Millisecond

	start := time.Now()
	err = cl.Call(context.Background(), procEcho, &echoArgs{S: "void"}, &echoArgs{})
	if !errors.Is(err, context.DeadlineExceeded) || IsTransportError(err) {
		t.Fatalf("unanswered call: %v, want DeadlineExceeded and no transport error", err)
	}
	if elapsed := time.Since(start); elapsed < cl.timeout || elapsed > 2*time.Second {
		t.Fatalf("unanswered call ended after %v, bound %v", elapsed, cl.timeout)
	}

	// A call on the default bound is pending; one with an earlier due
	// time must end at its own.
	cl.timeout = time.Minute
	long := make(chan error, 1)
	go func() { long <- cl.Call(context.Background(), procEcho, &echoArgs{S: "long"}, &echoArgs{}) }()
	waitUntil(t, "the long call to register", func() bool {
		cl.mu.Lock()
		defer cl.mu.Unlock()
		return len(cl.pending) == 1
	})
	start = time.Now()
	err = cl.call(context.Background(), start.Add(50*time.Millisecond), cl.xid.Add(1), testProg, testVers, procEcho, AuthNone, nil, nil, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call with an earlier due time: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("call due in 50ms ended after %v", elapsed)
	}
	if cl.Err() != nil {
		t.Fatalf("client failed by a timeout: %v", cl.Err())
	}
	cl.Close()
	if err := <-long; !IsTransportError(err) {
		t.Fatalf("long call after Close: %v", err)
	}
}

// TestFaultLateReplyAfterExpiryDropped: the reply to a call the sweep
// expired arrives while other calls are pending on the same client;
// it reaches none of them, and each gets its own reply.
func TestFaultLateReplyAfterExpiryDropped(t *testing.T) {
	t.Parallel()
	gate := make(chan struct{})
	s := NewServer()
	s.Sequential = true // replies in arrival order: the late one lands first
	s.Register(testProg, testVers, map[uint32]Handler{
		procEcho: func(_ context.Context, c *Call) (xdr.Marshaler, AcceptStat) {
			var a echoArgs
			if err := c.DecodeArgs(&a); err != nil {
				return nil, GarbageArgs
			}
			return &a, Success
		},
		procSlow: func(_ context.Context, c *Call) (xdr.Marshaler, AcceptStat) {
			<-gate
			return &u32{7}, Success
		},
	})
	c := dialTest(t, serveOnLoopback(t, s))
	ctx := context.Background()

	c.timeout = 20 * time.Millisecond
	var slowOut u32
	if err := c.Call(ctx, procSlow, nil, &slowOut); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("gated call: %v, want DeadlineExceeded", err)
	}
	c.timeout = callTimeout

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				want := fmt.Sprintf("g%d-i%d", g, i)
				var out echoArgs
				if err := c.Call(ctx, procEcho, &echoArgs{S: want}, &out); err != nil {
					t.Errorf("echo %s: %v", want, err)
					return
				}
				if out.S != want {
					t.Errorf("cross-talk: sent %q got %q", want, out.S)
					return
				}
			}
		}(g)
	}
	time.Sleep(10 * time.Millisecond) // echo calls queue behind the gated one
	close(gate)
	wg.Wait()
	var out echoArgs
	if err := c.Call(ctx, procEcho, &echoArgs{S: "next"}, &out); err != nil || out.S != "next" {
		t.Fatalf("call after the late reply: %q, %v", out.S, err)
	}
	if slowOut.V != 0 {
		t.Fatalf("late reply decoded into the expired call's target: %d", slowOut.V)
	}
}

package oncrpc

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/xdr"
)

// reconnectHarness gives a test a ReconnectClient over the shared test
// server plus handles to misbehave: cut the live transport, fail
// dials, or stall the server side.
type reconnectHarness struct {
	t       *testing.T
	addr    net.Addr
	stats   *metrics.ChannelStats
	rc      *ReconnectClient
	dials   atomic.Int64
	failing atomic.Bool   // factory refuses to dial while set
	conns   chan net.Conn // client side of every established session
}

func newReconnectHarness(t *testing.T, opts ReconnectOpts) *reconnectHarness {
	t.Helper()
	_, addr := newTestServer(t)
	return newReconnectHarnessOn(t, addr, opts)
}

// newReconnectHarnessOn is newReconnectHarness over the server at addr.
func newReconnectHarnessOn(t *testing.T, addr net.Addr, opts ReconnectOpts) *reconnectHarness {
	t.Helper()
	h := &reconnectHarness{t: t, addr: addr, stats: &metrics.ChannelStats{}, conns: make(chan net.Conn, 16)}
	factory := func(ctx context.Context) (*Client, error) {
		h.dials.Add(1)
		if h.failing.Load() {
			return nil, errors.New("injected dial failure")
		}
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr.String())
		if err != nil {
			return nil, err
		}
		h.conns <- conn
		return NewClient(conn, testProg, testVers), nil
	}
	if opts.Stats == nil {
		opts.Stats = h.stats
	}
	if opts.BaseDelay == 0 {
		opts.BaseDelay = time.Millisecond
	}
	if opts.MaxDelay == 0 {
		opts.MaxDelay = 10 * time.Millisecond
	}
	h.rc = NewReconnectClient(nil, factory, opts)
	t.Cleanup(func() { h.rc.Close() })
	return h
}

// cutLive closes the transport of the current session from the client
// side, simulating a WAN link drop.
func (h *reconnectHarness) cutLive() {
	select {
	case c := <-h.conns:
		c.Close()
	case <-time.After(2 * time.Second):
		h.t.Fatal("no live connection to cut")
	}
}

func TestReconnectReplaysIdempotent(t *testing.T) {
	t.Parallel()
	h := newReconnectHarness(t, ReconnectOpts{})
	ctx := context.Background()

	// Establish a session, then kill it.
	var out echoArgs
	if err := h.rc.Call(ctx, procEcho, &echoArgs{S: "first"}, &out); err != nil {
		t.Fatal(err)
	}
	h.cutLive()

	// The next call must transparently re-dial and succeed.
	out = echoArgs{}
	if err := h.rc.Call(ctx, procEcho, &echoArgs{S: "after-cut"}, &out); err != nil {
		t.Fatalf("call after cut: %v", err)
	}
	if out.S != "after-cut" {
		t.Fatalf("got %q", out.S)
	}
	if got := h.dials.Load(); got < 2 {
		t.Fatalf("expected a re-dial, saw %d dials", got)
	}
	snap := h.stats.Snapshot()
	if snap.Reconnects == 0 {
		t.Fatalf("Reconnects counter stayed zero: %+v", snap)
	}
	if snap.Disconnects == 0 {
		t.Fatalf("Disconnects counter stayed zero: %+v", snap)
	}
}

// TestReconnectReplaysExactlyOnce: a call in flight when the link dies
// is sent again on the new connection and answered, and the server
// runs it once: the re-sent copy finds it running and waits for its
// reply.
func TestReconnectReplaysExactlyOnce(t *testing.T) {
	t.Parallel()
	var runs atomic.Int32
	s := NewServer()
	s.Register(testProg, testVers, map[uint32]Handler{
		procEcho: func(_ context.Context, c *Call) (xdr.Marshaler, AcceptStat) { return nil, Success },
		procSlow: func(_ context.Context, c *Call) (xdr.Marshaler, AcceptStat) {
			time.Sleep(50 * time.Millisecond)
			return &u32{uint32(runs.Add(1))}, Success
		},
	})
	h := newReconnectHarnessOn(t, serveOnLoopback(t, s), ReconnectOpts{})
	ctx := context.Background()
	if err := h.rc.Call(ctx, procEcho, nil, nil); err != nil {
		t.Fatal(err)
	}

	// procSlow sleeps 50ms server-side: cut the link while it is
	// guaranteed to be in flight.
	callErr := make(chan error, 1)
	var out u32
	go func() { callErr <- h.rc.Call(ctx, procSlow, nil, &out) }()
	time.Sleep(15 * time.Millisecond)
	h.cutLive()
	if err := <-callErr; err != nil {
		t.Fatalf("call caught by the cut: %v", err)
	}
	if n := runs.Load(); n != 1 || out.V != 1 {
		t.Fatalf("procSlow ran %d times (reply says %d), want once", n, out.V)
	}
	if snap := h.stats.Snapshot(); snap.Replays == 0 || snap.SessionLost != 0 {
		t.Fatalf("counters %+v, want a replay and no lost session", snap)
	}
}

func TestReconnectBudgetExhaustion(t *testing.T) {
	t.Parallel()
	h := newReconnectHarness(t, ReconnectOpts{MaxAttempts: 3})
	ctx := context.Background()

	h.failing.Store(true)
	err := h.rc.Call(ctx, procEcho, &echoArgs{S: "nope"}, &echoArgs{})
	if err == nil {
		t.Fatal("call succeeded with all dials failing")
	}
	if h.dials.Load() != 3 {
		t.Fatalf("expected exactly 3 dial attempts, got %d", h.dials.Load())
	}
	if h.stats.Snapshot().ReconnectFailures == 0 {
		t.Fatal("ReconnectFailures counter stayed zero")
	}

	// Recovery: once dials work again, the same client comes back.
	h.failing.Store(false)
	var out echoArgs
	if err := h.rc.Call(ctx, procEcho, &echoArgs{S: "back"}, &out); err != nil {
		t.Fatalf("call after dials recovered: %v", err)
	}
	if out.S != "back" {
		t.Fatalf("got %q", out.S)
	}
}

func TestReconnectAttemptTimeoutOnStall(t *testing.T) {
	t.Parallel()
	// A black-hole server: accepts and reads but never replies. The
	// per-attempt timeout must convert the stall into a timeout, kill
	// the session, and retry — which stalls again, eventually
	// exhausting attempts.
	addr, _ := blackholeServer(t)
	stats := &metrics.ChannelStats{}
	var dials atomic.Int64
	factory := func(ctx context.Context) (*Client, error) {
		dials.Add(1)
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr.String())
		if err != nil {
			return nil, err
		}
		return NewClient(conn, testProg, testVers), nil
	}
	rc := NewReconnectClient(nil, factory, ReconnectOpts{
		MaxAttempts:    2,
		BaseDelay:      time.Millisecond,
		MaxDelay:       5 * time.Millisecond,
		AttemptTimeout: 100 * time.Millisecond,
		Stats:          stats,
	})
	defer rc.Close()

	start := time.Now()
	err := rc.Call(context.Background(), procEcho, &echoArgs{S: "void"}, &echoArgs{})
	if err == nil {
		t.Fatal("call into a black hole succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled call took %v; per-attempt timeout not applied", elapsed)
	}
	if stats.Snapshot().Timeouts == 0 {
		t.Fatal("Timeouts counter stayed zero")
	}
}

func TestReconnectClosedClient(t *testing.T) {
	t.Parallel()
	h := newReconnectHarness(t, ReconnectOpts{})
	if err := h.rc.Call(context.Background(), procEcho, &echoArgs{S: "x"}, &echoArgs{}); err != nil {
		t.Fatal(err)
	}
	if !h.rc.Connected() {
		t.Fatal("Connected() false with a live session")
	}
	h.rc.Close()
	if h.rc.Connected() {
		t.Fatal("Connected() true after Close")
	}
	err := h.rc.Call(context.Background(), procEcho, &echoArgs{S: "y"}, &echoArgs{})
	if !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call on closed client: %v, want ErrClientClosed", err)
	}
}

// TestReconnectConnectedFlipsOnCut: the watcher must flip Connected()
// to false shortly after the link dies, without any call tripping over
// the dead transport — degraded mode depends on this.
func TestReconnectConnectedFlipsOnCut(t *testing.T) {
	t.Parallel()
	h := newReconnectHarness(t, ReconnectOpts{})
	if err := h.rc.Call(context.Background(), procEcho, &echoArgs{S: "x"}, &echoArgs{}); err != nil {
		t.Fatal(err)
	}
	h.cutLive()
	deadline := time.Now().Add(5 * time.Second)
	for h.rc.Connected() {
		if time.Now().After(deadline) {
			t.Fatal("Connected() still true after transport cut")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// serveOnLoopback serves s on a loopback port for the length of the
// test.
func serveOnLoopback(t *testing.T, s *Server) net.Addr {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Close)
	return l.Addr()
}

// TestReconnectOpTimeoutOnStall: a call under a context with no
// deadline, on a link that swallows every call, times out each
// attempt, re-dials after each timeout, and ends with DeadlineExceeded
// at OpTimeout however many attempts remain.
func TestReconnectOpTimeoutOnStall(t *testing.T) {
	t.Parallel()
	addr, _ := blackholeServer(t) // later dials wait in the listen backlog, just as silent
	stats := &metrics.ChannelStats{}
	factory := func(ctx context.Context) (*Client, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr.String())
		if err != nil {
			return nil, err
		}
		return NewClient(conn, testProg, testVers), nil
	}
	const opTimeout = 400 * time.Millisecond
	rc := NewReconnectClient(nil, factory, ReconnectOpts{
		MaxAttempts:    100,
		BaseDelay:      time.Millisecond,
		MaxDelay:       5 * time.Millisecond,
		AttemptTimeout: 60 * time.Millisecond,
		OpTimeout:      opTimeout,
		Stats:          stats,
	})
	defer rc.Close()

	start := time.Now()
	err := rc.Call(context.Background(), procEcho, &echoArgs{S: "void"}, &echoArgs{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call into a black hole: %v, want DeadlineExceeded", err)
	}
	if elapsed < opTimeout || elapsed > opTimeout+500*time.Millisecond {
		t.Fatalf("call ended after %v, OpTimeout %v", elapsed, opTimeout)
	}
	if snap := stats.Snapshot(); snap.Timeouts < 2 || snap.Reconnects < 2 {
		t.Fatalf("counters %+v, want attempts that timed out and re-dialed", snap)
	}
}

// writeFailConn is a transport whose writes fail at once while its
// reads block until Close, so a call's record never leaves and the
// client's read loop cannot fail the client first.
type writeFailConn struct{ net.Conn }

func (writeFailConn) Write([]byte) (int, error) { return 0, errors.New("injected write failure") }

// TestReconnectUnsentCallKeepsSession: a call whose record was never
// written did not run, so after the re-dial, whose session bind the
// server refuses (it never saw the session), it goes out again under a
// new session instead of failing with ErrSessionLost.
func TestReconnectUnsentCallKeepsSession(t *testing.T) {
	t.Parallel()
	_, addr := newTestServer(t)
	dead, peer := net.Pipe()
	t.Cleanup(func() { peer.Close() })
	stats := &metrics.ChannelStats{}
	rc := NewReconnectClient(NewClient(writeFailConn{dead}, testProg, testVers), func(ctx context.Context) (*Client, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr.String())
		if err != nil {
			return nil, err
		}
		return NewClient(conn, testProg, testVers), nil
	}, ReconnectOpts{BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, Stats: stats})
	t.Cleanup(func() { rc.Close() })

	var out echoArgs
	if err := rc.Call(context.Background(), procEcho, &echoArgs{S: "first"}, &out); err != nil || out.S != "first" {
		t.Fatalf("first call over a link whose write failed: %q, %v", out.S, err)
	}
	if snap := stats.Snapshot(); snap.SessionLost != 0 || snap.Replays != 0 {
		t.Fatalf("counters %+v: an unsent call counted as sent", snap)
	}
}

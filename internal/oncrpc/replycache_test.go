package oncrpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/xdr"
)

// gatedServer serves procEcho and a procSlow that counts its runs in
// runs, waits for gate to close and replies with its run number.
func gatedServer(runs *atomic.Int32, gate <-chan struct{}) *Server {
	s := NewServer()
	s.Register(testProg, testVers, map[uint32]Handler{
		procEcho: func(_ context.Context, c *Call) (xdr.Marshaler, AcceptStat) {
			var a echoArgs
			if err := c.DecodeArgs(&a); err != nil {
				return nil, GarbageArgs
			}
			return &a, Success
		},
		procSlow: func(_ context.Context, c *Call) (xdr.Marshaler, AcceptStat) {
			n := runs.Add(1)
			<-gate
			return &u32{uint32(n)}, Success
		},
	})
	return s
}

// dnConn is a transport with an authenticated peer identity, as a
// secure channel has.
type dnConn struct {
	net.Conn
	dn string
}

func (c dnConn) PeerDN() string { return c.dn }

// servePipeDN is servePipe with the server seeing the peer as dn.
func servePipeDN(t *testing.T, s *Server, dn string) *Client {
	t.Helper()
	a, b := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeConn(dnConn{b, dn})
	}()
	c := NewClient(a, testProg, testVers)
	t.Cleanup(func() {
		c.Close()
		<-done
	})
	return c
}

// waitUntil polls cond for up to 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// A copy of a call that is still running, arriving on another
// connection, waits for the call and gets its reply; the call runs
// once.
func TestReconnectInFlightDuplicateWaits(t *testing.T) {
	t.Parallel()
	var runs atomic.Int32
	gate := make(chan struct{})
	s := gatedServer(&runs, gate)
	first, again := servePipe1(t, s), servePipe1(t, s)
	sess := newSession()
	xid := uint32(5 + GatherDepth)
	ctx := context.Background()

	var out1, out2 u32
	err1, err2 := make(chan error, 1), make(chan error, 1)
	go func() { err1 <- first.call(ctx, xid, testProg, testVers, procSlow, AuthNone, sess, nil, &out1) }()
	waitUntil(t, "the call to start", func() bool { return runs.Load() == 1 })
	go func() { err2 <- again.call(ctx, xid, testProg, testVers, procSlow, AuthNone, sess, nil, &out2) }()
	select {
	case err := <-err2:
		t.Fatalf("the copy was answered (%v) while the call still ran", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	if err := <-err1; err != nil {
		t.Fatal(err)
	}
	if err := <-err2; err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 1 || out1.V != 1 || out2.V != 1 {
		t.Fatalf("ran %d times, replies %d and %d: want one run, answered twice", runs.Load(), out1.V, out2.V)
	}
}

// servePipe1 is servePipe without the done channel.
func servePipe1(t *testing.T, s *Server) *Client {
	c, _ := servePipe(t, s)
	return c
}

// A copy of a call older than the slot's current one is a late
// duplicate from a dead connection: it gets no reply and does not
// run, and the current call's copy gets the stored reply.
func TestReconnectLateOlderXIDDropped(t *testing.T) {
	t.Parallel()
	var runs atomic.Int32
	gate := make(chan struct{})
	close(gate)
	s := gatedServer(&runs, gate)
	sess := newSession()
	ctx := context.Background()
	newer, older := uint32(3+2*GatherDepth), uint32(3+GatherDepth)

	var out u32
	if err := servePipe1(t, s).call(ctx, newer, testProg, testVers, procSlow, AuthNone, sess, nil, &out); err != nil {
		t.Fatal(err)
	}
	late := servePipe1(t, s)
	lctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	if err := late.call(lctx, older, testProg, testVers, procSlow, AuthNone, sess, nil, &out); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("older xid answered: %v", err)
	}
	out = u32{}
	if err := late.call(ctx, newer, testProg, testVers, procSlow, AuthNone, sess, nil, &out); err != nil || out.V != 1 {
		t.Fatalf("copy of the current call: reply %d, %v; want the stored reply 1", out.V, err)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("procSlow ran %d times, want once", n)
	}
}

// A call in flight when the server restarts fails with ErrSessionLost
// after the reconnect, having run at most once; the next call, on a
// new session, goes through.
func TestReconnectServerRestartLosesSession(t *testing.T) {
	t.Parallel()
	var runs atomic.Int32
	gate := make(chan struct{})
	s1 := gatedServer(&runs, gate)
	var target atomic.Value
	target.Store(serveOnLoopback(t, s1).String())
	stats := &metrics.ChannelStats{}
	rc := NewReconnectClient(nil, func(ctx context.Context) (*Client, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", target.Load().(string))
		if err != nil {
			return nil, err
		}
		return NewClient(conn, testProg, testVers), nil
	}, ReconnectOpts{BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, Stats: stats})
	t.Cleanup(func() { rc.Close() })
	ctx := context.Background()
	if err := rc.Call(ctx, procEcho, &echoArgs{S: "warm"}, &echoArgs{}); err != nil {
		t.Fatal(err)
	}

	callErr := make(chan error, 1)
	go func() { callErr <- rc.Call(ctx, procSlow, nil, &u32{}) }()
	waitUntil(t, "the call to start", func() bool { return runs.Load() == 1 })
	s2 := gatedServer(&runs, gate)
	target.Store(serveOnLoopback(t, s2).String())
	s1.Close()
	close(gate)
	if err := <-callErr; !errors.Is(err, ErrSessionLost) {
		t.Fatalf("call in flight across the restart: %v, want ErrSessionLost", err)
	}
	if n := runs.Load(); n > 1 {
		t.Fatalf("the call ran %d times across the restart, want at most once", n)
	}
	var out u32
	if err := rc.Call(ctx, procSlow, nil, &out); err != nil {
		t.Fatalf("call after the restart: %v", err)
	}
	if snap := stats.Snapshot(); snap.SessionLost != 1 {
		t.Fatalf("SessionLost = %d, want 1", snap.SessionLost)
	}
}

// A session id shown under another identity than its creator's is
// refused, with the bind flag or without; its creator may show it on a
// new connection.
func TestReconnectSessionUnderOtherDNRefused(t *testing.T) {
	t.Parallel()
	var runs atomic.Int32
	s := gatedServer(&runs, nil)
	sess := newSession()
	ctx := context.Background()
	alice, mallory := servePipeDN(t, s, "CN=alice"), servePipeDN(t, s, "CN=mallory")
	if err := alice.call(ctx, 1+GatherDepth, testProg, testVers, procEcho, AuthNone, sess, &echoArgs{S: "a"}, &echoArgs{}); err != nil {
		t.Fatal(err)
	}
	bind := *sess
	bind.Flags = sessionBind
	for _, v := range []*sessionVerf{sess, &bind} {
		err := mallory.call(ctx, 1+GatherDepth, testProg, testVers, procEcho, AuthNone, v, &echoArgs{S: "m"}, &echoArgs{})
		if re := (*RPCError)(nil); !errors.As(err, &re) || !re.Rejected || re.Auth != AuthBadVerf {
			t.Fatalf("session shown under another DN (flags %d): %v, want AUTH_BADVERF", v.Flags, err)
		}
	}
	if err := servePipeDN(t, s, "CN=alice").call(ctx, 9, testProg, testVers, 0, AuthNone, &bind, nil, nil); err != nil {
		t.Fatalf("the session's creator on a new connection: %v", err)
	}
}

// A session keeps one reply per slot, whatever the number of calls,
// answers a copy of a slot's current call from it, and is dropped once
// no connection has shown it for the grace period.
func TestReconnectSessionBoundedAndExpires(t *testing.T) {
	t.Parallel()
	var runs atomic.Int32
	s := gatedServer(&runs, nil)
	s.replies.grace = 50 * time.Millisecond
	c, done := servePipe(t, s)
	sess := newSession()
	ctx := context.Background()
	const gens = 3
	for gen := uint32(1); gen <= gens; gen++ {
		for slot := uint32(0); slot < GatherDepth; slot++ {
			a := &echoArgs{S: fmt.Sprintf("%d/%d", gen, slot)}
			if err := c.call(ctx, slot+GatherDepth*gen, testProg, testVers, procEcho, AuthNone, sess, a, &echoArgs{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.replies.mu.Lock()
	rs := s.replies.sessions[sess.ID]
	s.replies.mu.Unlock()
	rs.mu.Lock()
	stored := 0
	for i := range rs.slots {
		if rs.slots[i].reply != nil {
			stored++
		}
	}
	rs.mu.Unlock()
	if stored != GatherDepth {
		t.Fatalf("session holds %d replies after %d calls, want %d", stored, gens*GatherDepth, GatherDepth)
	}
	var out echoArgs
	if err := c.call(ctx, 7+GatherDepth*gens, testProg, testVers, procEcho, AuthNone, sess, &echoArgs{S: "new args"}, &out); err != nil || out.S != "3/7" {
		t.Fatalf("copy of a slot's current call got %q (%v), want the stored reply %q", out.S, err, "3/7")
	}

	c.Close()
	<-done
	waitUntil(t, "the session to expire", func() bool {
		s.replies.mu.Lock()
		defer s.replies.mu.Unlock()
		return len(s.replies.sessions) == 0
	})
}

package oncrpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/metrics"
	"repro/internal/xdr"
)

const (
	testProg = 0x20000055
	testVers = 1

	procEcho  = 1
	procAdd   = 2
	procSlow  = 3
	procCreds = 4
)

type echoArgs struct{ S string }

func (a *echoArgs) EncodeXDR(e *xdr.Encoder) { e.String(a.S) }
func (a *echoArgs) DecodeXDR(d *xdr.Decoder) { a.S = d.String() }

type addArgs struct{ X, Y uint32 }

func (a *addArgs) EncodeXDR(e *xdr.Encoder) { e.Uint32(a.X); e.Uint32(a.Y) }
func (a *addArgs) DecodeXDR(d *xdr.Decoder) { a.X = d.Uint32(); a.Y = d.Uint32() }

type u32 struct{ V uint32 }

func (v *u32) EncodeXDR(e *xdr.Encoder) { e.Uint32(v.V) }
func (v *u32) DecodeXDR(d *xdr.Decoder) { v.V = d.Uint32() }

func newTestServer(t *testing.T) (*Server, net.Addr) {
	t.Helper()
	s := NewServer()
	s.Register(testProg, testVers, map[uint32]Handler{
		procEcho: func(_ context.Context, c *Call) (xdr.Marshaler, AcceptStat) {
			var a echoArgs
			if err := c.DecodeArgs(&a); err != nil {
				return nil, GarbageArgs
			}
			return &a, Success
		},
		procAdd: func(_ context.Context, c *Call) (xdr.Marshaler, AcceptStat) {
			var a addArgs
			if err := c.DecodeArgs(&a); err != nil {
				return nil, GarbageArgs
			}
			return &u32{a.X + a.Y}, Success
		},
		procSlow: func(_ context.Context, c *Call) (xdr.Marshaler, AcceptStat) {
			time.Sleep(50 * time.Millisecond)
			return &u32{1}, Success
		},
		procCreds: func(_ context.Context, c *Call) (xdr.Marshaler, AcceptStat) {
			if c.Cred.Sys == nil {
				return &u32{0}, Success
			}
			return &u32{c.Cred.Sys.UID}, Success
		},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Close)
	return s, l.Addr()
}

func dialTest(t *testing.T, addr net.Addr) *Client {
	t.Helper()
	c, err := Dial("tcp", addr.String(), testProg, testVers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestEcho(t *testing.T) {
	t.Parallel()
	_, addr := newTestServer(t)
	c := dialTest(t, addr)
	var out echoArgs
	if err := c.Call(context.Background(), procEcho, &echoArgs{S: "hello grid"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.S != "hello grid" {
		t.Fatalf("got %q", out.S)
	}
}

func TestNullProcedure(t *testing.T) {
	t.Parallel()
	_, addr := newTestServer(t)
	c := dialTest(t, addr)
	if err := c.Call(context.Background(), 0, nil, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAdd(t *testing.T) {
	t.Parallel()
	_, addr := newTestServer(t)
	c := dialTest(t, addr)
	var out u32
	if err := c.Call(context.Background(), procAdd, &addArgs{3, 39}, &out); err != nil {
		t.Fatal(err)
	}
	if out.V != 42 {
		t.Fatalf("got %d", out.V)
	}
}

func TestProcUnavail(t *testing.T) {
	t.Parallel()
	_, addr := newTestServer(t)
	c := dialTest(t, addr)
	err := c.Call(context.Background(), 999, nil, nil)
	var re *RPCError
	if !errors.As(err, &re) || re.Accept != ProcUnavail {
		t.Fatalf("got %v, want PROC_UNAVAIL", err)
	}
}

func TestProgUnavail(t *testing.T) {
	t.Parallel()
	_, addr := newTestServer(t)
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn, 0x30000000, 1)
	defer c.Close()
	err = c.Call(context.Background(), 1, nil, nil)
	var re *RPCError
	if !errors.As(err, &re) || re.Accept != ProgUnavail {
		t.Fatalf("got %v, want PROG_UNAVAIL", err)
	}
}

func TestProgMismatch(t *testing.T) {
	t.Parallel()
	_, addr := newTestServer(t)
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn, testProg, 99)
	defer c.Close()
	err = c.Call(context.Background(), 1, nil, nil)
	var re *RPCError
	if !errors.As(err, &re) || re.Accept != ProgMismatch {
		t.Fatalf("got %v, want PROG_MISMATCH", err)
	}
}

func TestAuthSysCredentialDelivered(t *testing.T) {
	t.Parallel()
	_, addr := newTestServer(t)
	c := dialTest(t, addr)
	cred, err := (&AuthSys{MachineName: "compute1", UID: 5001, GID: 100}).Auth()
	if err != nil {
		t.Fatal(err)
	}
	c.SetCred(cred)
	var out u32
	if err := c.Call(context.Background(), procCreds, nil, &out); err != nil {
		t.Fatal(err)
	}
	if out.V != 5001 {
		t.Fatalf("server saw uid %d, want 5001", out.V)
	}
}

func TestPerCallCredential(t *testing.T) {
	t.Parallel()
	_, addr := newTestServer(t)
	c := dialTest(t, addr)
	cred, _ := (&AuthSys{UID: 7, GID: 7}).Auth()
	var out u32
	if err := c.CallCred(context.Background(), procCreds, cred, nil, &out); err != nil {
		t.Fatal(err)
	}
	if out.V != 7 {
		t.Fatalf("got uid %d", out.V)
	}
}

func TestAuthCheckerRejects(t *testing.T) {
	t.Parallel()
	s := NewServer()
	s.Register(testProg, testVers, map[uint32]Handler{
		procEcho: func(_ context.Context, c *Call) (xdr.Marshaler, AcceptStat) {
			return nil, Success
		},
	})
	s.Auth = func(c *Call) AuthStat {
		if c.Cred.Sys == nil || c.Cred.Sys.UID != 1000 {
			return AuthTooWeak
		}
		return AuthOK
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()

	c := dialTest(t, l.Addr())
	err = c.Call(context.Background(), procEcho, nil, nil)
	if !IsAuthError(err) {
		t.Fatalf("got %v, want auth error", err)
	}
	var re *RPCError
	errors.As(err, &re)
	if re.Auth != AuthTooWeak {
		t.Fatalf("auth stat %d, want AUTH_TOOWEAK", re.Auth)
	}

	good, _ := (&AuthSys{UID: 1000}).Auth()
	c2 := dialTest(t, l.Addr())
	c2.SetCred(good)
	if err := c2.Call(context.Background(), procEcho, nil, nil); err != nil {
		t.Fatalf("authorized call failed: %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	t.Parallel()
	_, addr := newTestServer(t)
	c := dialTest(t, addr)
	var wg sync.WaitGroup
	var failures atomic.Int32
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var out u32
			if err := c.Call(context.Background(), procAdd, &addArgs{uint32(i), 1}, &out); err != nil {
				failures.Add(1)
				return
			}
			if out.V != uint32(i)+1 {
				failures.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d concurrent calls failed", failures.Load())
	}
}

func TestPipeliningOverlapsSlowCalls(t *testing.T) {
	t.Parallel()
	_, addr := newTestServer(t)
	c := dialTest(t, addr)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out u32
			c.Call(context.Background(), procSlow, nil, &out)
		}()
	}
	wg.Wait()
	// 8 sequential 50ms calls would take 400ms; pipelined they overlap.
	if d := time.Since(start); d > 300*time.Millisecond {
		t.Fatalf("calls did not overlap: took %v", d)
	}
}

func TestSequentialServer(t *testing.T) {
	t.Parallel()
	s := NewServer()
	var inFlight, maxInFlight atomic.Int32
	s.Sequential = true
	s.Register(testProg, testVers, map[uint32]Handler{
		procSlow: func(_ context.Context, c *Call) (xdr.Marshaler, AcceptStat) {
			cur := inFlight.Add(1)
			for {
				m := maxInFlight.Load()
				if cur <= m || maxInFlight.CompareAndSwap(m, cur) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			inFlight.Add(-1)
			return &u32{1}, Success
		},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()
	c := dialTest(t, l.Addr())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var out u32
			c.Call(context.Background(), procSlow, nil, &out)
		}()
	}
	wg.Wait()
	if maxInFlight.Load() != 1 {
		t.Fatalf("sequential server ran %d calls concurrently", maxInFlight.Load())
	}
}

func TestContextCancellation(t *testing.T) {
	t.Parallel()
	_, addr := newTestServer(t)
	c := dialTest(t, addr)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := c.Call(ctx, procSlow, nil, &u32{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v", err)
	}
	// The client must remain usable: the late reply is dropped.
	var out u32
	if err := c.Call(context.Background(), procAdd, &addArgs{1, 2}, &out); err != nil {
		t.Fatal(err)
	}
	if out.V != 3 {
		t.Fatalf("got %d", out.V)
	}
}

// TestGoOutOfOrderCompletion: a slow call issued from one goroutine is
// overtaken on the same connection by a fast call issued later from
// another, and the client counts the out-of-order completion.
func TestGoOutOfOrderCompletion(t *testing.T) {
	t.Parallel()
	_, addr := newTestServer(t)
	c := dialTest(t, addr)
	var stats metrics.ChannelStats
	c.SetStats(&stats)
	ctx := context.Background()

	var slowOut u32
	slow := make(chan error, 1)
	go func() { slow <- c.Call(ctx, procSlow, nil, &slowOut) }()
	// The slow call must be submitted first: wait for it to reach the
	// pending table.
	deadline := time.Now().Add(time.Second)
	for stats.InflightHWM.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow call never reached the pending table")
		}
		time.Sleep(time.Millisecond)
	}
	var echoOut echoArgs
	if err := c.Call(ctx, procEcho, &echoArgs{S: "overtake"}, &echoOut); err != nil {
		t.Fatalf("echo: %v", err)
	}
	if echoOut.S != "overtake" {
		t.Fatalf("echo reply %q", echoOut.S)
	}
	select {
	case err := <-slow:
		t.Fatalf("slow call returned before its 50ms sleep: %v", err)
	default:
	}
	if err := <-slow; err != nil {
		t.Fatalf("slow: %v", err)
	}
	if slowOut.V != 1 {
		t.Fatalf("slow reply %d", slowOut.V)
	}
	snap := stats.Snapshot()
	if snap.OutOfOrder == 0 {
		t.Fatalf("no out-of-order completion counted: %+v", snap)
	}
	if snap.InflightHWM < 2 {
		t.Fatalf("in-flight high-water mark %d, want >= 2", snap.InflightHWM)
	}
}

// TestGoCancelLateReplyNoCrossTalk: a call abandoned on context
// cancellation recycles its pooled callBufs (and reply channel) into
// later calls; the reply that lands afterwards must reach none of them
// and must not be decoded into the cancelled call's target.
func TestGoCancelLateReplyNoCrossTalk(t *testing.T) {
	t.Parallel()
	_, addr := newTestServer(t)
	c := dialTest(t, addr)
	ctx := context.Background()

	// Cancel a slow call almost at once; its reply arrives ~50ms later.
	var slowOut u32
	cctx, cancel := context.WithTimeout(ctx, 2*time.Millisecond)
	defer cancel()
	if err := c.Call(cctx, procSlow, nil, &slowOut); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled call: %v", err)
	}

	// Storm the connection with distinct calls from several goroutines
	// while the late reply lands: every reply must match its own call.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
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
	wg.Wait()
	time.Sleep(80 * time.Millisecond) // let the late reply land
	if slowOut.V != 0 {
		t.Fatalf("late reply decoded into a cancelled call's target: %d", slowOut.V)
	}
}

func TestClientCloseFailsPending(t *testing.T) {
	t.Parallel()
	_, addr := newTestServer(t)
	c := dialTest(t, addr)
	done := make(chan error, 1)
	go func() {
		done <- c.Call(context.Background(), procSlow, nil, &u32{})
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	if err := <-done; err == nil {
		t.Fatal("pending call survived Close")
	}
	if err := c.Call(context.Background(), procAdd, &addArgs{1, 1}, &u32{}); err == nil {
		t.Fatal("call after Close succeeded")
	}
}

func TestServerSurvivesGarbageConnection(t *testing.T) {
	t.Parallel()
	_, addr := newTestServer(t)
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte{0x80, 0, 0, 4, 1, 2, 3, 4}) // valid frame, garbage RPC
	conn.Close()
	// Server must still answer proper clients.
	c := dialTest(t, addr)
	var out u32
	if err := c.Call(context.Background(), procAdd, &addArgs{2, 2}, &out); err != nil {
		t.Fatal(err)
	}
}

// withRoom returns p behind the room for the record mark, the form
// writeRecord takes a message in.
func withRoom(p []byte) []byte {
	return append(make([]byte, markLen, markLen+len(p)), p...)
}

// fragmented record-marks p the way a peer may: as fragments of at most
// size bytes, only the last one final.
func fragmented(p []byte, size int) []byte {
	var out []byte
	for {
		n := min(len(p), size)
		v := uint32(n)
		if n == len(p) {
			v |= lastFragmentBit
		}
		out = binary.BigEndian.AppendUint32(out, v)
		out = append(out, p[:n]...)
		p = p[n:]
		if v&lastFragmentBit != 0 {
			return out
		}
	}
}

// writeCounter counts the Writes it absorbs.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestRecordMarkingRoundTrip: writeRecord sends each message as one
// final fragment in one Write, and readRecord reassembles both that and
// a peer's multi-fragment records.
func TestRecordMarkingRoundTrip(t *testing.T) {
	t.Parallel()
	for _, n := range []int{0, 1, 4, 1000, 1 << 20, 1<<20 + 1, 3 << 20} {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i)
		}
		var w writeCounter
		if err := writeRecord(&w, withRoom(p)); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Fatalf("n=%d: %d Writes, want one", n, w.writes)
		}
		if v := binary.BigEndian.Uint32(w.Bytes()); v != uint32(n)|lastFragmentBit {
			t.Fatalf("n=%d: record mark %#x, want one final fragment", n, v)
		}
		for _, wire := range [][]byte{w.Bytes(), fragmented(p, 1<<20), fragmented(p, 1000)} {
			buf := bytes.NewBuffer(wire)
			got, err := readRecord(newRecordReader(buf), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, p) {
				t.Fatalf("n=%d: round trip mismatch", n)
			}
			if buf.Len() != 0 {
				t.Fatalf("n=%d: %d leftover bytes", n, buf.Len())
			}
		}
	}
}

func TestRecordTooLarge(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // last fragment, absurd length
	_, err := readRecord(newRecordReader(&buf), nil)
	if !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("got %v", err)
	}
}

func TestRecordShortRead(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	buf.Write([]byte{0x80, 0, 0, 8, 1, 2}) // claims 8 bytes, has 2
	_, err := readRecord(newRecordReader(&buf), nil)
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("got %v", err)
	}
}

func TestQuickRecordRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(p []byte) bool {
		var buf bytes.Buffer
		if err := writeRecord(&buf, withRoom(p)); err != nil {
			return false
		}
		got, err := readRecord(newRecordReader(&buf), nil)
		return err == nil && bytes.Equal(got, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAuthSysRoundTrip(t *testing.T) {
	t.Parallel()
	f := func(stamp, uid, gid uint32, machine string, gids []uint32) bool {
		if len(gids) > 16 {
			gids = gids[:16]
		}
		in := AuthSys{Stamp: stamp, MachineName: machine, UID: uid, GID: gid, GIDs: gids}
		b, err := xdr.Marshal(&in)
		if err != nil {
			return false
		}
		var out AuthSys
		if err := xdr.Unmarshal(b, &out); err != nil {
			return false
		}
		if out.Stamp != in.Stamp || out.UID != in.UID || out.GID != in.GID || out.MachineName != in.MachineName {
			return false
		}
		if len(out.GIDs) != len(in.GIDs) {
			return false
		}
		for i := range out.GIDs {
			if out.GIDs[i] != in.GIDs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

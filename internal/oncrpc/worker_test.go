package oncrpc

import (
	"context"
	"encoding/binary"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/xdr"
)

// servePipe serves s on one end of a pipe and returns a client on the
// other end, and a channel closed when ServeConn returns.
func servePipe(t *testing.T, s *Server) (*Client, <-chan struct{}) {
	t.Helper()
	a, b := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeConn(b)
	}()
	c := NewClient(a, testProg, testVers)
	t.Cleanup(func() {
		c.Close()
		<-done
	})
	return c, done
}

// 64 calls in flight at once on one connection take 64 workers; once
// the connection closes, every one of them exits.
func TestWorkersExitWithConnection(t *testing.T) {
	const calls = 64
	baseline := runtime.NumGoroutine()
	var arrived atomic.Int32
	release := make(chan struct{})
	s := NewServer()
	s.Register(testProg, testVers, map[uint32]Handler{
		procEcho: func(_ context.Context, c *Call) (xdr.Marshaler, AcceptStat) {
			if arrived.Add(1) == calls {
				close(release)
			}
			<-release // all calls are in flight together
			return nil, Success
		},
	})
	c, done := servePipe(t, s)
	var wg sync.WaitGroup
	for range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Call(context.Background(), procEcho, nil, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	c.Close()
	<-done
	if err := leakcheck.Settle(baseline, 2*time.Second); err != nil {
		t.Fatal(err)
	}
}

// goroutineID reads the calling goroutine's number from its stack
// header ("goroutine 17 [running]:").
func goroutineID() string {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return f[1]
}

// A worker that has answered a call takes the connection's next one:
// 101 calls one after another all run on the goroutine the first one
// started.
func TestWorkerServesNextCall(t *testing.T) {
	ran := map[string]int{}
	s := NewServer()
	s.Register(testProg, testVers, map[uint32]Handler{
		procEcho: func(_ context.Context, c *Call) (xdr.Marshaler, AcceptStat) {
			ran[goroutineID()]++ // calls on one connection, one at a time
			return nil, Success
		},
	})
	c, _ := servePipe(t, s)
	for range 101 {
		if err := c.Call(context.Background(), procEcho, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if len(ran) != 1 {
		t.Fatalf("101 calls one after another ran on %d goroutines: %v", len(ran), ran)
	}
}

// callRecord encodes a record-marked call of procSleep for ms
// milliseconds.
func callRecord(xid, ms uint32) []byte {
	var e xdr.Encoder
	newRecord(&e)
	h := callHeader{XID: xid, Prog: testProg, Vers: testVers, Proc: procSleep, Cred: AuthNone, Verf: AuthNone}
	h.XDR(e.Codec())
	e.Uint32(ms)
	msg := e.Bytes()
	binary.BigEndian.PutUint32(msg, uint32(len(msg)-markLen)|lastFragmentBit)
	return msg
}

const procSleep = 5

// A Sequential server answers calls in the order they arrive even when
// the first take longest; the concurrent server, given the same calls,
// answers the shortest first.
func TestSequentialAnswersInArrivalOrder(t *testing.T) {
	for _, sequential := range []bool{true, false} {
		s := NewServer()
		s.Sequential = sequential
		s.Register(testProg, testVers, map[uint32]Handler{
			procSleep: func(_ context.Context, c *Call) (xdr.Marshaler, AcceptStat) {
				var ms u32
				if err := c.DecodeArgs(&ms); err != nil {
					return nil, GarbageArgs
				}
				time.Sleep(time.Duration(ms.V) * time.Millisecond)
				return nil, Success
			},
		})
		a, b := net.Pipe()
		go s.ServeConn(b)
		const calls = 8
		go func() {
			for xid := uint32(1); xid <= calls; xid++ {
				if _, err := a.Write(callRecord(xid, 5*(calls+1-xid))); err != nil {
					return
				}
			}
		}()
		br := newRecordReader(a)
		var order []uint32
		for range calls {
			rec, err := readRecord(br, nil)
			if err != nil {
				t.Fatal(err)
			}
			order = append(order, binary.BigEndian.Uint32(rec))
		}
		a.Close()
		inOrder := true
		for i, xid := range order {
			inOrder = inOrder && xid == uint32(i+1)
		}
		if inOrder != sequential {
			t.Errorf("Sequential=%v: replies in order %v", sequential, order)
		}
	}
}

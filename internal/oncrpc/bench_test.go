package oncrpc

import (
	"context"
	"net"
	"testing"

	"repro/internal/xdr"
)

// benchStack starts the test RPC server and one client over loopback
// TCP, for allocation benchmarks of the call path.
func benchStack(tb testing.TB) *Client {
	tb.Helper()
	s := NewServer()
	s.Register(testProg, testVers, map[uint32]Handler{
		procEcho: func(_ context.Context, c *Call) (xdr.Marshaler, AcceptStat) {
			var a echoArgs
			if err := c.DecodeArgs(&a); err != nil {
				return nil, GarbageArgs
			}
			return &a, Success
		},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go s.Serve(l)
	tb.Cleanup(s.Close)
	c, err := Dial("tcp", l.Addr().String(), testProg, testVers)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

// BenchmarkCallEcho measures allocations per RPC on the client call
// path (encode + record write + reply match + decode) with a payload
// comparable to an NFS3 LOOKUP/GETATTR exchange. The server side runs
// in-process but its allocations are not attributed to the benchmark
// loop's goroutine-independent counters only approximately; the
// signal to watch is allocs/op of this loop.
func BenchmarkCallEcho(b *testing.B) {
	c := benchStack(b)
	ctx := context.Background()
	args := &echoArgs{S: string(make([]byte, 256))}
	var out echoArgs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Call(ctx, procEcho, args, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallEchoParallel exercises the pooled buffers under
// contention: many goroutines share one multiplexed client.
func BenchmarkCallEchoParallel(b *testing.B) {
	c := benchStack(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		args := &echoArgs{S: string(make([]byte, 256))}
		var out echoArgs
		for pb.Next() {
			if err := c.Call(ctx, procEcho, args, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package oncrpc

import (
	"context"
	"encoding/binary"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/xdr"
)

// TestServerRobustAgainstRandomFrames throws random byte frames at a
// live server: none may crash it or wedge service for proper clients.
func TestServerRobustAgainstRandomFrames(t *testing.T) {
	t.Parallel()
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
		t.Fatal(err)
	}
	go s.Serve(l)
	defer s.Close()

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(512)
		body := make([]byte, n)
		rng.Read(body)
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(n)|lastFragmentBit)
		conn.Write(hdr[:])
		conn.Write(body)
		conn.Close()
	}
	// Raw garbage without framing too.
	for i := 0; i < 50; i++ {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		junk := make([]byte, rng.Intn(64))
		rng.Read(junk)
		conn.Write(junk)
		conn.Close()
	}

	// The server must still answer a well-formed client.
	c := dialTest(t, l.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var out echoArgs
	if err := c.Call(ctx, procEcho, &echoArgs{S: "alive"}, &out); err != nil {
		t.Fatalf("server wedged after garbage: %v", err)
	}
	if out.S != "alive" {
		t.Fatalf("got %q", out.S)
	}
}

// TestClientRobustAgainstGarbageReplies verifies the client survives a
// server that answers with malformed records: the call fails but the
// process does not panic.
func TestClientRobustAgainstGarbageReplies(t *testing.T) {
	t.Parallel()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		// Read the request, then reply with framed garbage that echoes
		// a plausible xid (zeros) so it may reach decodeReplyFrom.
		buf := make([]byte, 4096)
		conn.Read(buf)
		garbage := []byte{0x80, 0, 0, 8, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
		conn.Write(garbage)
		conn.Close()
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn, testProg, testVers)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := c.Call(ctx, procEcho, &echoArgs{S: "x"}, &echoArgs{}); err == nil {
		t.Fatal("garbage reply treated as success")
	}
}

// TestDecodeReplyFuzz feeds random bytes to the reply decoder.
func TestDecodeReplyFuzz(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		rec := make([]byte, 4+rng.Intn(128))
		rng.Read(rec)
		var out echoArgs
		// Must never panic; errors are fine.
		decodeReplyFrom(xdr.NewDecoder(rec), &out)
	}
}

package oncrpc_test

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"

	"repro/internal/mountd"
	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/xdr"
)

// allocatedBy reports the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func words(w ...uint32) []byte {
	b := make([]byte, 4*len(w))
	for i, v := range w {
		binary.BigEndian.PutUint32(b[4*i:], v)
	}
	return b
}

// described lets a type that has only an XDR description be decoded on
// its own.
type described struct{ v interface{ XDR(*xdr.Codec) } }

func (m described) DecodeXDR(d *xdr.Decoder) { m.v.XDR(d.Codec()) }

// TestRFCBounds decodes each bounded item one element past its RFC
// bound, from a stream (so the remaining-bytes rule cannot help): the
// decoder must fail, and allocate nothing near the declared length.
func TestRFCBounds(t *testing.T) {
	for _, c := range []struct {
		name string
		msg  xdr.Unmarshaler
		wire []byte
	}{
		{"FH3 opaque<64> (RFC 1813)", described{&nfs3.FH3{}}, append(words(65), make([]byte, 68)...)},
		{"opaque_auth body<400> (RFC 5531)", described{&oncrpc.OpaqueAuth{}}, append(words(1, 1<<20), make([]byte, 1<<20)...)},
		{"MntRes 17 auth flavors", &mountd.MntRes{}, append(words(mountd.MntOK, 4, 0xdeadbeef, 17), make([]byte, 17*4)...)},
	} {
		var err error
		n := allocatedBy(func() {
			d := xdr.NewDecoder(bytes.NewReader(c.wire))
			c.msg.DecodeXDR(d)
			err = d.Err()
		})
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if n >= 64<<10 {
			t.Errorf("%s: allocated %d bytes before refusing", c.name, n)
		}
	}
}

// TestForgedCredentialLengthDoesNotAllocate serves a call whose
// credential body claims 64 MiB in a 32-byte record: the server must
// drop it without allocating what the length word claims.
func TestForgedCredentialLengthDoesNotAllocate(t *testing.T) {
	body := words(1, 0, 2, 0x20000077, 1, 1, oncrpc.AuthFlavorSys, 64<<20)
	rec := append(words(1<<31|uint32(len(body))), body...)
	srv := oncrpc.NewServer()
	srv.Sequential = true // dispatch on the serving goroutine
	a, b := net.Pipe()
	go func() {
		a.Write(rec)
		a.Close()
	}()
	if n := allocatedBy(func() { srv.ServeConn(b) }); n >= 1<<20 {
		t.Errorf("serving a 32-byte call allocated %d bytes", n)
	}
}

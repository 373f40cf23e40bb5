package oncrpc_test

import (
	"bytes"
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/oncrpc"
	"repro/internal/xdr"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from the current encoders")

// tapConn keeps a copy of everything written through it.
type tapConn struct {
	net.Conn
	mu  sync.Mutex
	out bytes.Buffer
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.out.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// record returns the one record written so far without its record mark
// and with its (random) xid zeroed.
func (c *tapConn) record(t *testing.T) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := append([]byte(nil), c.out.Bytes()...)
	if len(b) < 8 {
		t.Fatalf("tapped %d bytes, want a record", len(b))
	}
	b = b[4:]
	copy(b, []byte{0, 0, 0, 0})
	return b
}

// TestWireGolden pins the AUTH_SYS body and one call/reply exchange:
// an AUTH_SYS call whose arguments the server decodes and echoes as its
// result, which the client decodes in turn.
func TestWireGolden(t *testing.T) {
	sys := &oncrpc.AuthSys{Stamp: 7, MachineName: "grid-node", UID: 1000, GID: 100, GIDs: []uint32{4, 24, 27}}
	cred, err := sys.Auth()
	if err != nil {
		t.Fatal(err)
	}
	cs, ss := net.Pipe()
	ctap, stap := &tapConn{Conn: cs}, &tapConn{Conn: ss}
	srv := oncrpc.NewServer()
	srv.Register(0x20000077, 1, map[uint32]oncrpc.Handler{
		1: func(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
			var a oncrpc.AuthSys
			if call.DecodeArgs(&a) != nil || call.Cred.Sys == nil || !reflect.DeepEqual(*call.Cred.Sys, *sys) {
				return nil, oncrpc.GarbageArgs
			}
			return &a, oncrpc.Success
		},
	})
	go srv.ServeConn(stap)
	cl := oncrpc.NewClient(ctap, 0x20000077, 1)
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var echoed oncrpc.AuthSys
	if err := cl.CallCred(ctx, 1, cred, sys, &echoed); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(echoed, *sys) {
		t.Fatalf("echoed %+v, want %+v", echoed, *sys)
	}

	type line struct {
		name string
		wire []byte
		zero func() xdr.Unmarshaler // nil: decoded by the exchange above
	}
	var lines []line
	for _, c := range []struct {
		name string
		msg  *oncrpc.AuthSys
	}{{"AuthSys/zero", &oncrpc.AuthSys{}}, {"AuthSys", sys}} {
		b, err := xdr.Marshal(c.msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		lines = append(lines, line{c.name, b, func() xdr.Unmarshaler { return &oncrpc.AuthSys{} }})
	}
	lines = append(lines, line{"call", ctap.record(t), nil}, line{"reply", stap.record(t), nil})

	var got bytes.Buffer
	for _, l := range lines {
		fmt.Fprintf(&got, "%s %x\n", l.name, l.wire)
	}
	path := filepath.Join("testdata", "wire.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d golden lines, want %d", len(gotLines), len(wantLines))
	}
	for i, l := range lines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("encoding changed:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
		if l.zero == nil {
			continue
		}
		_, pinned, _ := strings.Cut(wantLines[i], " ")
		b, err := hex.DecodeString(pinned)
		if err != nil {
			t.Fatal(err)
		}
		v := l.zero()
		if err := xdr.Unmarshal(b, v); err != nil {
			t.Errorf("%s: decode pinned bytes: %v", l.name, err)
			continue
		}
		if again, err := xdr.Marshal(v.(xdr.Marshaler)); err != nil || hex.EncodeToString(again) != pinned {
			t.Errorf("%s: pinned bytes decode and re-encode to %x (%v)", l.name, again, err)
		}
	}
}

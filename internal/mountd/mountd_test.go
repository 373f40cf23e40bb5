package mountd

import (
	"context"
	"errors"
	"net"
	"testing"

	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/vfs"
)

func startMountd(t *testing.T, exports ...*Export) string {
	t.Helper()
	rpc := oncrpc.NewServer()
	md := NewServer()
	for _, e := range exports {
		md.AddExport(e)
	}
	md.Register(rpc)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rpc.Serve(l)
	t.Cleanup(rpc.Close)
	return l.Addr().String()
}

func dialMountd(t *testing.T, addr string) *oncrpc.Client {
	t.Helper()
	c, err := oncrpc.Dial("tcp", addr, Program, Version)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestMntReturnsRootHandle(t *testing.T) {
	fs := vfs.NewMemFS()
	addr := startMountd(t, &Export{Path: "/GFS/x", FS: fs})
	c := dialMountd(t, addr)
	var res MntRes
	if err := c.Call(context.Background(), ProcMnt, &MntArgs{Path: "/GFS/x"}, &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != MntOK {
		t.Fatalf("status %d", res.Status)
	}
	if res.FH.Handle() != fs.Root() {
		t.Fatal("wrong root handle")
	}
	if len(res.Flavors) == 0 || res.Flavors[0] != oncrpc.AuthFlavorSys {
		t.Fatalf("flavors %v", res.Flavors)
	}
}

func TestMntUnknownExport(t *testing.T) {
	addr := startMountd(t, &Export{Path: "/GFS/x", FS: vfs.NewMemFS()})
	c := dialMountd(t, addr)
	var res MntRes
	if err := c.Call(context.Background(), ProcMnt, &MntArgs{Path: "/GFS/nope"}, &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != MntNoEnt {
		t.Fatalf("status %d, want MntNoEnt", res.Status)
	}
}

func TestMntLocalhostOnlyDefault(t *testing.T) {
	// The default export policy admits loopback peers only, matching
	// the paper's "exported to the localhost" rule. Loopback callers
	// (this test) are admitted; the policy logic itself is checked
	// directly for a foreign address.
	e := &Export{Path: "/x", FS: vfs.NewMemFS()}
	if !hostAllowed(e, fakeAddr("127.0.0.1:999")) {
		t.Fatal("loopback denied")
	}
	if hostAllowed(e, fakeAddr("10.0.0.9:999")) {
		t.Fatal("remote host admitted by localhost-only export")
	}
}

func TestMntAllowedHosts(t *testing.T) {
	e := &Export{Path: "/x", FS: vfs.NewMemFS(), AllowedHosts: []string{"10.0."}}
	if !hostAllowed(e, fakeAddr("10.0.3.4:12")) {
		t.Fatal("prefix-matched host denied")
	}
	if hostAllowed(e, fakeAddr("10.1.3.4:12")) {
		t.Fatal("non-matching host admitted")
	}
	wild := &Export{Path: "/y", FS: vfs.NewMemFS(), AllowedHosts: []string{"*"}}
	if !hostAllowed(wild, fakeAddr("192.168.1.1:5")) {
		t.Fatal("wildcard export denied a host")
	}
}

type fakeAddr string

func (a fakeAddr) Network() string { return "tcp" }
func (a fakeAddr) String() string  { return string(a) }

func TestExportList(t *testing.T) {
	addr := startMountd(t,
		&Export{Path: "/a", FS: vfs.NewMemFS()},
		&Export{Path: "/b", FS: vfs.NewMemFS(), AllowedHosts: []string{"10.0."}})
	c := dialMountd(t, addr)
	var res ExportRes
	if err := c.Call(context.Background(), ProcExport, nil, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Exports) != 2 {
		t.Fatalf("exports %v", res.Exports)
	}
}

func TestUmntIsVoid(t *testing.T) {
	addr := startMountd(t, &Export{Path: "/a", FS: vfs.NewMemFS()})
	c := dialMountd(t, addr)
	if err := c.Call(context.Background(), ProcUmnt, &MntArgs{Path: "/a"}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveExport(t *testing.T) {
	fs := vfs.NewMemFS()
	rpc := oncrpc.NewServer()
	md := NewServer()
	md.AddExport(&Export{Path: "/gone", FS: fs})
	md.Register(rpc)
	l, _ := net.Listen("tcp", "127.0.0.1:0")
	go rpc.Serve(l)
	defer rpc.Close()
	c := dialMountd(t, l.Addr().String())
	md.RemoveExport("/gone")
	var res MntRes
	if err := c.Call(context.Background(), ProcMnt, &MntArgs{Path: "/gone"}, &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != MntNoEnt {
		t.Fatalf("withdrawn export still mountable: %d", res.Status)
	}
}

// TestRelayMount chains the client-side Mount through a relay's MOUNT
// program to a real mount daemon, the shape every proxy stack has: the
// relay mounts upstream, then answers MNT for the path it accepts with
// that root, NOENT for any other, and acknowledges UMNT.
func TestRelayMount(t *testing.T) {
	fs := vfs.NewMemFS()
	upAddr := startMountd(t, &Export{Path: "/GFS/x", FS: fs})
	ctx := context.Background()
	root, err := Mount(ctx, dialMountd(t, upAddr), "/GFS/x")
	if err != nil {
		t.Fatal(err)
	}
	rpc := oncrpc.NewServer()
	RegisterRelay(rpc, func(path string) (nfs3.FH3, bool) { return root, path == "/GFS/x" })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rpc.Serve(l)
	t.Cleanup(rpc.Close)

	c := dialMountd(t, l.Addr().String())
	got, err := Mount(ctx, c, "/GFS/x")
	if err != nil || got.Handle() != fs.Root() {
		t.Fatalf("mount through the relay: %v %v", got, err)
	}
	if _, err := Mount(ctx, c, "/GFS/other"); !errors.Is(err, vfs.ErrNoEnt) {
		t.Fatalf("mount of a path the relay does not export: %v, want NOENT", err)
	}
	if err := c.Call(ctx, ProcUmnt, &MntArgs{Path: "/GFS/x"}, nil); err != nil {
		t.Fatalf("umnt: %v", err)
	}
}

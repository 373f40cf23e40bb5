package proxy

import (
	"context"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/idmap"
	"repro/internal/netem"
	"repro/internal/nfs3"
	"repro/internal/nfsclient"
	"repro/internal/oncrpc"
	"repro/internal/securechan"
	"repro/internal/vfs"
)

// countingDialer dials addr over TCP and counts each dial in n.
func countingDialer(n *atomic.Int64, addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		n.Add(1)
		return net.Dial("tcp", addr)
	}
}

// TestReconnectDialsOnce: MOUNT rides the connection that then carries
// NFS, so every connect dials once — an upstream session's first
// connect and each reconnect (one secure-channel handshake apiece),
// nfsclient.Mount, and a server proxy's connect to its backend.
func TestReconnectDialsOnce(t *testing.T) {
	t.Parallel()
	faulter := netem.NewFaulter()
	st := buildStack(t, stackOpts{faulter: faulter, recovery: &RecoveryConfig{BaseDelay: time.Millisecond}})
	if n := faulter.Stats().Dials; n != 1 {
		t.Errorf("the session's first connect dialed %d times, want 1", n)
	}
	// A first call binds the session at the server proxy, so the calls
	// after each cut go out again under it.
	ctx := context.Background()
	if err := st.clientProxy.up.Call(ctx, nfs3.ProcNull, nil, nil); err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut <= 3; cut++ {
		before := faulter.Stats().Dials
		faulter.CutAll(netem.FaultReset)
		if err := st.clientProxy.up.Call(ctx, nfs3.ProcNull, nil, nil); err != nil {
			t.Fatalf("call after cut %d: %v", cut, err)
		}
		if n := faulter.Stats().Dials - before; n != 1 {
			t.Errorf("reconnect %d dialed %d times, want 1", cut, n)
		}
	}

	var dials atomic.Int64
	fs, err := nfsclient.Mount(ctx, countingDialer(&dials, st.clientAddr), "/GFS/alice", nfsclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fs.Close()
	if n := dials.Load(); n != 1 {
		t.Errorf("nfsclient.Mount dialed %d times, want 1", n)
	}

	dials.Store(0)
	nfsAddr := serveNFS(t, oncrpc.NewServer(), vfs.NewMemFS(), 2)
	sp, err := NewServerProxy(ServerConfig{UpstreamDial: countingDialer(&dials, nfsAddr), ExportPath: "/GFS/alice"})
	if err != nil {
		t.Fatal(err)
	}
	sp.Close()
	if n := dials.Load(); n != 1 {
		t.Fatalf("NewServerProxy dialed its backend %d times, want 1", n)
	}
}

// rootedAt is a file system exported from one of its subdirectories.
type rootedAt struct {
	*vfs.MemFS
	root vfs.Handle
}

func (r rootedAt) Root() vfs.Handle { return r.root }

// TestReconnectRefusedWhenExportRootChanges: a server proxy that comes
// back on the session's address exporting another root would leave
// every handle the local client holds dangling, so the reconnect is
// refused, and the session stays degraded with the root it had.
func TestReconnectRefusedWhenExportRootChanges(t *testing.T) {
	t.Parallel()
	st := buildStack(t, stackOpts{recovery: &RecoveryConfig{MaxAttempts: 2, BaseDelay: time.Millisecond}})
	up := st.clientProxy.up
	root := up.exportRoot()
	st.serverProxy.Close() // ends the session's connection and frees the address

	other := vfs.NewMemFS()
	sub, _, err := other.Mkdir(other.Root(), "elsewhere", vfs.SetAttr{})
	if err != nil {
		t.Fatal(err)
	}
	nfsAddr := serveNFS(t, oncrpc.NewServer(), rootedAt{other, sub}, 2)
	accounts := idmap.NewTable()
	accounts.Add(idmap.Account{Name: "alice", UID: 5001, GID: 500})
	sp, err := NewServerProxy(ServerConfig{
		UpstreamDial: func() (net.Conn, error) { return net.Dial("tcp", nfsAddr) },
		ExportPath:   "/GFS/alice",
		Channel:      &securechan.Config{Credential: st.host, Roots: st.ca.Pool()},
		Gridmap:      st.gmap,
		Accounts:     accounts,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sp.Close)
	l, err := net.Listen("tcp", st.serverAddr)
	if err != nil {
		t.Fatal(err)
	}
	go sp.Serve(l)

	ctx := context.Background()
	for i := 0; i < 2; i++ {
		err := up.Call(ctx, nfs3.ProcNull, nil, nil)
		if err == nil || !strings.Contains(err.Error(), "export root changed") {
			t.Fatalf("call %d against a server exporting another root: %v, want the reconnect refused", i, err)
		}
		if !up.degraded() {
			t.Fatalf("call %d: session not degraded after a refused reconnect", i)
		}
	}
	if got := up.exportRoot(); string(got.Data) != string(root.Data) {
		t.Fatal("refused reconnect replaced the export root")
	}
}

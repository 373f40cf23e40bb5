//go:build !race

package proxy_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/gridmap"
	"repro/internal/gridsec"
	"repro/internal/idmap"
	"repro/internal/mountd"
	"repro/internal/nfs3"
	"repro/internal/nfsclient"
	"repro/internal/oncrpc"
	"repro/internal/proxy"
	"repro/internal/securechan"
	"repro/internal/vfs"
)

// Allocation budgets of the session data path. Each test drives one
// operation through a whole loopback SGFS stack (NFS client, client
// proxy, AES channel, server proxy, NFS server) and pins the heap
// allocations per operation that testing.AllocsPerRun measures.
// AllocsPerRun reads the process-wide malloc count, so every goroutine
// the operation wakes is in the figure, and it runs the operation with
// GOMAXPROCS=1. The collector is off while it counts: a collection
// empties every sync.Pool, and the refills would make the figure depend
// on how often it ran. So the figures repeat exactly. A figure above
// its pin means the change allocates more on that path: remove the
// allocation or, when it is deliberate, raise the pin in the same
// change and say why; a figure below it is logged, to be pinned.
// (Under -race sync.Pool drops Puts at random, hence the build tag.)

const (
	budgetBlock = 32 << 10
	budgetRuns  = 200
)

// budgetStack starts n server sides with the AES channel, each over its
// own MemFS backend, and one client side: a plain session for n = 1, a
// replicated one with every replica in the quorum otherwise, with a
// write-back disk cache when diskCache is set. It mounts the client
// side with a page cache of pageBytes (1 turns it off).
func budgetStack(t *testing.T, n int, diskCache bool, pageBytes int64) (*core.ClientSession, *nfsclient.FileSystem, []*vfs.MemFS) {
	t.Helper()
	ca, err := gridsec.NewCA("Budget Grid")
	if err != nil {
		t.Fatal(err)
	}
	user, _ := ca.IssueUser("budget")
	host, _ := ca.IssueHost("budget-fs")
	suites := []securechan.Suite{securechan.SuiteAES256SHA1}
	var backends []*vfs.MemFS
	defs := make([]proxy.ReplicaBackendDef, n)
	for i := range defs {
		be := vfs.NewMemFS()
		rpc := oncrpc.NewServer()
		t.Cleanup(rpc.Close)
		nfsAddr, err := mountd.ServeNFS(rpc, "/GFS/alice", be, uint64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		gmap := gridmap.New(gridmap.Deny)
		gmap.Add(user.DN(), "budget")
		accounts := idmap.NewTable()
		accounts.Add(idmap.Account{Name: "budget", UID: 5001, GID: 500})
		srv, err := core.StartServer(proxy.ServerConfig{
			UpstreamDial: dialer(nfsAddr),
			ExportPath:   "/GFS/alice",
			Channel:      &securechan.Config{Credential: host, Roots: ca.Pool(), Suites: suites},
			Gridmap:      gmap,
			Accounts:     accounts,
		}, "")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		backends = append(backends, be)
		defs[i] = proxy.ReplicaBackendDef{Addr: srv.Addr(), Dial: dialer(srv.Addr())}
	}
	pcfg := proxy.ClientConfig{
		ExportPath: "/GFS/alice",
		Channel:    &securechan.Config{Credential: user, Roots: ca.Pool(), Suites: suites},
	}
	if n == 1 {
		pcfg.ServerDial = defs[0].Dial
	} else {
		pcfg.Replication = &proxy.ReplicationConfig{Backends: defs, Quorum: n}
	}
	cacheDir := ""
	if diskCache {
		cacheDir = t.TempDir()
	}
	cli, err := core.StartClient(pcfg, "", cacheDir, budgetBlock, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	fs, err := nfsclient.Mount(context.Background(), dialer(cli.Addr()), "/GFS/alice", nfsclient.Options{CacheBytes: pageBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return cli, fs, backends
}

func dialer(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// create makes name through the mount, holding size bytes.
func create(t *testing.T, fs *nfsclient.FileSystem, name string, size int) nfs3.FH3 {
	t.Helper()
	ctx := context.Background()
	f, err := fs.Create(ctx, name, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(ctx, bytes.Repeat([]byte{7}, size)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	return f.Handle()
}

// pin fails t when op's allocations per run exceed budget, and reports
// a figure below it so the pin can be lowered. It counts with the
// collector off; see above.
func pin(t *testing.T, budget float64, op func()) {
	t.Helper()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	got := testing.AllocsPerRun(budgetRuns, op)
	switch {
	case got > budget:
		t.Errorf("%.0f allocs per op, budget %.0f", got, budget)
	case got < budget:
		t.Logf("%.0f allocs per op, under the budget of %.0f: lower the pin", got, budget)
	}
}

// TestReadAllocs: one 32 KiB READ served by ClientProxy.read, from the
// disk cache (a hit) and without one (relayed upstream, through the
// server proxy's Relay.passThrough).
func TestReadAllocs(t *testing.T) {
	for _, c := range []struct {
		name      string
		diskCache bool
		budget    float64
	}{
		{"cached", true, 12},
		{"uncached", false, 22},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, fs, _ := budgetStack(t, 1, c.diskCache, 1)
			fh := create(t, fs, "f", budgetBlock)
			ctx := context.Background()
			pin(t, c.budget, func() {
				data, _, err := fs.Proto().Read(ctx, fh, 0, budgetBlock)
				if err != nil || len(data) != budgetBlock {
					t.Fatalf("read %d bytes: %v", len(data), err)
				}
			})
		})
	}
}

// TestLookupAllocs: one LOOKUP served by ClientProxy.lookup, from the
// session's name and attribute caches (the name was created through
// the mount) and without a disk cache (relayed upstream, through the
// server proxy's lookup).
func TestLookupAllocs(t *testing.T) {
	for _, c := range []struct {
		name      string
		diskCache bool
		budget    float64
	}{
		{"cached", true, 10},
		{"uncached", false, 22},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, fs, _ := budgetStack(t, 1, c.diskCache, 1)
			want := create(t, fs, "f", 0)
			ctx := context.Background()
			pin(t, c.budget, func() {
				fh, _, err := fs.Proto().Lookup(ctx, fs.Root(), "f")
				if err != nil || !bytes.Equal(fh.Data, want.Data) {
					t.Fatalf("lookup: %x, %v", fh.Data, err)
				}
			})
		})
	}
}

// TestWriteAllocs: one 32 KiB FILE_SYNC WRITE served by
// ClientProxy.write, absorbed by the write-back disk cache or relayed
// upstream without one, and fanned out by a replicated session to both
// of its replicas (replicaSet.callWriteFanout).
func TestWriteAllocs(t *testing.T) {
	for _, c := range []struct {
		name      string
		replicas  int
		diskCache bool
		budget    float64
	}{
		{"write-back", 1, true, 15},
		{"uncached", 1, false, 21},
		{"replicated", 2, false, 50},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, fs, _ := budgetStack(t, c.replicas, c.diskCache, 1)
			fh := create(t, fs, "f", 0)
			data := bytes.Repeat([]byte{9}, budgetBlock)
			ctx := context.Background()
			pin(t, c.budget, func() {
				if _, _, err := fs.Proto().Write(ctx, fh, 0, data, nfs3.FileSync); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestFlushAllocs: one dirty block written back twice over, by the NFS
// client and then by the proxy. The mount's page cache holds one block,
// so a write beside the previous, still dirty block leaves it over
// capacity, and nfsclient's pressure flush writes both into the proxy's
// disk cache and COMMITs them: one block per run on average. The
// session flush then pushes each upstream through the flush engine
// (blockio's flushRun.block) and COMMITs it.
func TestFlushAllocs(t *testing.T) {
	cli, fs, backends := budgetStack(t, 1, true, budgetBlock)
	ctx := context.Background()
	f, err := fs.Create(ctx, "f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{5}, budgetBlock)
	i := 0
	pin(t, 58, func() {
		i++
		if _, err := f.WriteAt(ctx, data, int64(i%2)*budgetBlock); err != nil {
			t.Fatal(err)
		}
		if err := cli.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	})
	if _, writes := fs.RPCCounts(); writes < budgetRuns {
		t.Fatalf("%d blocks written back under pressure, want one per run", writes)
	}
	if _, attr, err := backends[0].Lookup(backends[0].Root(), "f"); err != nil || attr.Size != 2*budgetBlock {
		t.Fatalf("backend file is %d bytes (%v), want %d", attr.Size, err, 2*budgetBlock)
	}
}

// TestColdReadAllocs: a 128 KiB file read sequentially, block by block,
// with nothing cached. The client proxy's reader sees the stream
// through Reader.Advance and prefetches the rest of the file into the
// disk cache. Every run reads a file of its own, put straight into the
// backend, so every run is cold.
func TestColdReadAllocs(t *testing.T) {
	const blocks = 4
	cli, fs, backends := budgetStack(t, 1, true, 1)
	be := backends[0]
	ctx := context.Background()
	data := bytes.Repeat([]byte{3}, blocks*budgetBlock)
	mode := uint32(0o644)
	fhs := make([]nfs3.FH3, budgetRuns+1)
	for i := range fhs {
		name := fmt.Sprintf("f%d", i)
		h, _, err := be.Create(be.Root(), name, vfs.SetAttr{Mode: &mode}, false)
		if err == nil {
			err = be.Write(h, 0, data)
		}
		if err == nil {
			fhs[i], _, err = fs.Proto().Lookup(ctx, fs.Root(), name)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	pin(t, 142, func() {
		fh := fhs[next]
		next++
		for b := uint64(0); b < blocks; b++ {
			got, _, err := fs.Proto().Read(ctx, fh, b*budgetBlock, budgetBlock)
			if err != nil || len(got) != budgetBlock {
				t.Fatalf("read %d bytes: %v", len(got), err)
			}
		}
	})
	if st, _ := cli.CacheStats(); st.ReadaheadHits == 0 {
		t.Fatal("no read was served by readahead: Reader.Advance prefetched nothing")
	}
}

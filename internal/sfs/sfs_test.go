package sfs

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gridsec"
	"repro/internal/idmap"
	"repro/internal/mountd"
	"repro/internal/nfs3"
	"repro/internal/nfsclient"
	"repro/internal/oncrpc"
	"repro/internal/vfs"
)

func TestPathParsing(t *testing.T) {
	host, id, err := ParsePath("/sfs/fs.example.org:deadbeef01")
	if err != nil || host != "fs.example.org" || id != "deadbeef01" {
		t.Fatalf("got %q %q %v", host, id, err)
	}
	if _, _, err := ParsePath("/gfs/whatever"); err == nil {
		t.Fatal("non-sfs path accepted")
	}
	if _, _, err := ParsePath("/sfs/nohostid"); err == nil {
		t.Fatal("path without hostid accepted")
	}
	if got := FormatPath("h", "abc"); got != "/sfs/h:abc" {
		t.Fatalf("format: %q", got)
	}
}

func TestHostIDStable(t *testing.T) {
	cred, err := gridsec.NewSelfSigned("server")
	if err != nil {
		t.Fatal(err)
	}
	if HostID(cred) != HostID(cred) {
		t.Fatal("HostID not deterministic")
	}
	other, _ := gridsec.NewSelfSigned("server")
	if HostID(cred) == HostID(other) {
		t.Fatal("distinct keys share a HostID")
	}
}

// buildSFS assembles memfs -> nfs server -> SFS server -> SFS client.
func buildSFS(t *testing.T) (clientAddr string, backend *vfs.MemFS, serverCred *gridsec.Credential, userCred *gridsec.Credential, srvAddr string) {
	t.Helper()
	_, clientAddr, backend, serverCred, userCred, srvAddr = buildSFSServer(t)
	return
}

// buildSFSServer is buildSFS that also hands back the server daemon.
func buildSFSServer(t *testing.T) (srv *Server, clientAddr string, backend *vfs.MemFS, serverCred *gridsec.Credential, userCred *gridsec.Credential, srvAddr string) {
	t.Helper()
	backend = vfs.NewMemFS()
	srv, clientAddr, serverCred, userCred, srvAddr = buildSFSOver(t, backend)
	return
}

// buildSFSOver builds the daemon pair over the given NFS server backend.
func buildSFSOver(t *testing.T, backend vfs.FS) (srv *Server, clientAddr string, serverCred *gridsec.Credential, userCred *gridsec.Credential, srvAddr string) {
	t.Helper()
	rpc := oncrpc.NewServer()
	t.Cleanup(rpc.Close)
	nfsAddr, err := mountd.ServeNFS(rpc, "/export", backend, 2)
	if err != nil {
		t.Fatal(err)
	}

	serverCred, _ = gridsec.NewSelfSigned("sfs-server")
	userCred, _ = gridsec.NewSelfSigned("alice")
	srv, err = NewServer(ServerConfig{
		UpstreamDial: func() (net.Conn, error) { return net.Dial("tcp", nfsAddr) },
		ExportPath:   "/export",
		Credential:   serverCred,
		Users: map[string]idmap.Account{
			gridsec.KeyFingerprint(userCred.Cert): {Name: "alice", UID: 700, GID: 700},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srvL, _ := net.Listen("tcp", "127.0.0.1:0")
	go srv.Serve(srvL)
	t.Cleanup(srv.Close)

	cli, err := NewClient(ClientConfig{
		ServerDial: func() (net.Conn, error) { return net.Dial("tcp", srvL.Addr().String()) },
		HostID:     HostID(serverCred),
		Credential: userCred,
		ExportPath: "/export",
	})
	if err != nil {
		t.Fatal(err)
	}
	cliL, _ := net.Listen("tcp", "127.0.0.1:0")
	go cli.Serve(cliL)
	t.Cleanup(cli.Close)
	return srv, cliL.Addr().String(), serverCred, userCred, srvL.Addr().String()
}

func TestSFSEndToEnd(t *testing.T) {
	addr, backend, _, _, _ := buildSFS(t)
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	fs, err := nfsclient.Mount(context.Background(), dial, "/export", nfsclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ctx := context.Background()
	f, err := fs.Create(ctx, "doc.txt", 0644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(ctx, []byte("self-certified"))
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Data reached the backend under the mapped account.
	h, attr, err := backend.Lookup(backend.Root(), "doc.txt")
	if err != nil {
		t.Fatal(err)
	}
	if attr.UID != 700 {
		t.Fatalf("owner uid %d, want 700", attr.UID)
	}
	buf := make([]byte, 14)
	n, _, _ := backend.Read(h, 0, buf)
	if string(buf[:n]) != "self-certified" {
		t.Fatalf("content %q", buf[:n])
	}
}

func TestSFSWrongHostIDRejected(t *testing.T) {
	_, _, _, userCred, srvAddr := buildSFS(t)
	impostor, _ := gridsec.NewSelfSigned("impostor")
	_, err := NewClient(ClientConfig{
		ServerDial: func() (net.Conn, error) { return net.Dial("tcp", srvAddr) },
		HostID:     HostID(impostor), // wrong expectation
		Credential: userCred,
		ExportPath: "/export",
	})
	if err == nil {
		t.Fatal("client accepted a server whose key does not match the pathname")
	}
}

func TestSFSUnknownUserRejected(t *testing.T) {
	_, _, serverCred, _, srvAddr := buildSFS(t)
	stranger, _ := gridsec.NewSelfSigned("stranger")
	_, err := NewClient(ClientConfig{
		ServerDial: func() (net.Conn, error) { return net.Dial("tcp", srvAddr) },
		HostID:     HostID(serverCred),
		Credential: stranger,
		ExportPath: "/export",
	})
	if err == nil {
		t.Fatal("server admitted an unregistered user key")
	}
}

func TestSFSSequentialReadWithPipelining(t *testing.T) {
	addr, backend, _, _, _ := buildSFS(t)
	// Preload a multi-block file on the server.
	payload := bytes.Repeat([]byte("S"), 8*sfsBlockSize)
	h, _, _ := backend.Create(backend.Root(), "big", vfs.SetAttr{}, false)
	backend.Write(h, 0, payload)

	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	fs, err := nfsclient.Mount(context.Background(), dial, "/export", nfsclient.Options{CacheBytes: 1, Readahead: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ctx := context.Background()
	f, err := fs.Open(ctx, "big")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(ctx, got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("pipelined read corrupted data")
	}
}

// slowCountingFS is a backend that counts its Reads and takes a while
// over each, like a server a few milliseconds away: slow enough that a
// sequential reader catches up with the blocks being prefetched.
type slowCountingFS struct {
	*vfs.MemFS
	reads atomic.Int64
}

func (b *slowCountingFS) Read(h vfs.Handle, off uint64, buf []byte) (int, bool, error) {
	b.reads.Add(1)
	time.Sleep(2 * time.Millisecond)
	return b.MemFS.Read(h, off, buf)
}

// TestSFSSequentialReadIssuesOneReadPerBlock: a demand read joins the
// in-flight prefetch of its block instead of fetching it again, and
// readahead stops at the last block, so a sequential read of an N-block
// file costs the server exactly N READs.
func TestSFSSequentialReadIssuesOneReadPerBlock(t *testing.T) {
	const blocks = 24
	backend := &slowCountingFS{MemFS: vfs.NewMemFS()}
	payload := make([]byte, blocks*sfsBlockSize-100) // a short last block
	rand.New(rand.NewSource(20)).Read(payload)
	h, _, _ := backend.Create(backend.Root(), "big", vfs.SetAttr{}, false)
	backend.Write(h, 0, payload)
	_, addr, _, _, _ := buildSFSOver(t, backend)

	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	fs, err := nfsclient.Mount(context.Background(), dial, "/export", nfsclient.Options{CacheBytes: 1, Readahead: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ctx := context.Background()
	f, err := fs.Open(ctx, "big")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if _, err := f.ReadAt(ctx, got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("pipelined read corrupted data")
	}
	// Prefetches past EOF, if any were issued, are still on their way.
	time.Sleep(50 * time.Millisecond)
	if n := backend.reads.Load(); n != blocks {
		t.Fatalf("server saw %d READs for a sequential read of %d blocks", n, blocks)
	}
}

// heldReadFS holds the first Read at off, after it has read its bytes,
// until release is closed; held is closed once it is held.
type heldReadFS struct {
	*vfs.MemFS
	off     uint64
	held    chan struct{}
	release chan struct{}
	once    sync.Once
}

func (b *heldReadFS) Read(h vfs.Handle, off uint64, buf []byte) (int, bool, error) {
	n, eof, err := b.MemFS.Read(h, off, buf)
	if off == b.off {
		b.once.Do(func() {
			close(b.held)
			<-b.release
		})
	}
	return n, eof, err
}

// TestSFSPrefetchLosesToWrite: a prefetch of block 1 reads the server's
// bytes and is held while the client writes block 1 through the
// daemon. When it lands it must not put the old bytes back in the
// daemon's cache.
func TestSFSPrefetchLosesToWrite(t *testing.T) {
	backend := &heldReadFS{MemFS: vfs.NewMemFS(), off: sfsBlockSize, held: make(chan struct{}), release: make(chan struct{})}
	mode, uid := uint32(0644), uint32(700)
	h, _, _ := backend.Create(backend.Root(), "f", vfs.SetAttr{Mode: &mode, UID: &uid}, false)
	backend.MemFS.Write(h, 0, bytes.Repeat([]byte("o"), 3*sfsBlockSize))
	_, addr, _, _, _ := buildSFSOver(t, backend)
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	fs, err := nfsclient.Mount(context.Background(), dial, "/export", nfsclient.Options{CacheBytes: 1, Readahead: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ctx := context.Background()
	p := fs.Proto()
	fh, _, err := p.Lookup(ctx, fs.Root(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Read(ctx, fh, 0, sfsBlockSize); err != nil {
		t.Fatal(err) // block 0, and prefetches of blocks 1 and 2
	}
	<-backend.held
	written := bytes.Repeat([]byte("N"), sfsBlockSize)
	if _, _, err := p.Write(ctx, fh, sfsBlockSize, written, nfs3.FileSync); err != nil {
		t.Fatal(err)
	}
	close(backend.release)
	time.Sleep(50 * time.Millisecond) // the prefetch lands
	got, _, err := p.Read(ctx, fh, sfsBlockSize, sfsBlockSize)
	if err != nil || !bytes.Equal(got, written) {
		t.Fatalf("block 1 reads %q… (%v) after the write, not the write", got[:min(8, len(got))], err)
	}
}

// heldPostOpFS holds the GetAttr that follows the first Write at
// offset 0 — the server's post-op attributes of that WRITE — after it
// has read them, until release is closed; held is closed once it is
// held.
type heldPostOpFS struct {
	*vfs.MemFS
	zeroWrites atomic.Int32
	armed      atomic.Bool
	held       chan struct{}
	release    chan struct{}
}

func (b *heldPostOpFS) Write(h vfs.Handle, off uint64, data []byte) error {
	err := b.MemFS.Write(h, off, data)
	if off == 0 && b.zeroWrites.Add(1) == 1 {
		b.armed.Store(true)
	}
	return err
}

func (b *heldPostOpFS) GetAttr(h vfs.Handle) (vfs.Attr, error) {
	a, err := b.MemFS.GetAttr(h)
	if b.armed.CompareAndSwap(true, false) {
		close(b.held)
		<-b.release
	}
	return a, err
}

// TestSFSWriteReplyKeepsNewerSize: replies to concurrent WRITEs reach
// the daemon in any order. The first WRITE's post-op attributes are
// read, then held until a second WRITE, which grows the file, has been
// answered through the daemon; the daemon must not then report the
// first reply's smaller size.
func TestSFSWriteReplyKeepsNewerSize(t *testing.T) {
	backend := &heldPostOpFS{MemFS: vfs.NewMemFS(), held: make(chan struct{}), release: make(chan struct{})}
	mode, uid := uint32(0644), uint32(700)
	backend.Create(backend.Root(), "f", vfs.SetAttr{Mode: &mode, UID: &uid}, false)
	_, addr, _, _, _ := buildSFSOver(t, backend)
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	fs, err := nfsclient.Mount(context.Background(), dial, "/export", nfsclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ctx := context.Background()
	p := fs.Proto()
	fh, _, err := p.Lookup(ctx, fs.Root(), "f")
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan error, 1)
	go func() {
		_, _, err := p.Write(ctx, fh, 0, []byte("first"), nfs3.Unstable)
		first <- err
	}()
	<-backend.held
	if _, _, err := p.Write(ctx, fh, sfsBlockSize, bytes.Repeat([]byte("s"), sfsBlockSize), nfs3.Unstable); err != nil {
		t.Fatal(err)
	}
	close(backend.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if attr, err := p.GetAttr(ctx, fh); err != nil || attr.Size != 2*sfsBlockSize {
		t.Fatalf("GETATTR after both WRITEs: size %d (%v), want %d", attr.Size, err, 2*sfsBlockSize)
	}
}

// TestSFSReadEOFWithoutCachedAttr: the daemon's READ reply must carry
// a true EOF flag even when it holds no attributes for the file, as
// after any SETATTR.
func TestSFSReadEOFWithoutCachedAttr(t *testing.T) {
	addr, _, _, _, _ := buildSFS(t)
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	fs, err := nfsclient.Mount(context.Background(), dial, "/export", nfsclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ctx := context.Background()
	p := fs.Proto()
	fh, _, err := p.Create(ctx, fs.Root(), "eof", 0644, false)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 3
	for idx := uint64(0); idx < blocks; idx++ {
		if _, _, err := p.Write(ctx, fh, idx*sfsBlockSize, bytes.Repeat([]byte("e"), sfsBlockSize), nfs3.FileSync); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.SetAttr(ctx, fh, nfs3.Sattr3{SetMode: true, Mode: 0600}); err != nil {
		t.Fatal(err)
	}
	for idx, want := range []bool{false, false, true} {
		data, eof, err := p.Read(ctx, fh, uint64(idx)*sfsBlockSize, sfsBlockSize)
		if err != nil || len(data) != sfsBlockSize {
			t.Fatalf("READ block %d: %d bytes, %v", idx, len(data), err)
		}
		if eof != want {
			t.Errorf("READ block %d of %d: EOF = %v", idx, blocks, eof)
		}
	}
}

func TestSFSAttrCacheAggressive(t *testing.T) {
	addr, _, _, _, _ := buildSFS(t)
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	fs, err := nfsclient.Mount(context.Background(), dial, "/export", nfsclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ctx := context.Background()
	f, _ := fs.Create(ctx, "meta", 0644)
	f.Close(ctx)
	// Repeated stats are absorbed by the SFS daemon's attr cache; we
	// can only observe correctness here.
	for i := 0; i < 10; i++ {
		if _, err := fs.Stat(ctx, "meta"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSFSFullProcedureSurface drives the procedures neither SFS daemon
// intercepts — the relay's pass-through rows — through client and
// server end to end, as proxy.TestFullProcedureSurface does for the
// SGFS proxies.
func TestSFSFullProcedureSurface(t *testing.T) {
	addr, backend, _, _, _ := buildSFS(t)
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	ctx := context.Background()
	fs, err := nfsclient.Mount(ctx, dial, "/export", nfsclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	if err := fs.Symlink(ctx, "target/file", "sym"); err != nil {
		t.Fatal(err)
	}
	if target, err := fs.ReadLink(ctx, "sym"); err != nil || target != "target/file" {
		t.Fatalf("readlink: %q %v", target, err)
	}

	// Rename across directories, then a hard link to the moved file.
	if err := fs.Mkdir(ctx, "d1", 0755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(ctx, "d2", 0755); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(ctx, "d1/file", 0644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(ctx, []byte("x"))
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(ctx, "d1/file", "d2/moved"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(ctx, "d2/moved"); err != nil {
		t.Fatal(err)
	}
	d2, _, err := fs.Proto().Lookup(ctx, fs.Root(), "d2")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Proto().Link(ctx, f.Handle(), d2, "linked"); err != nil {
		t.Fatal(err)
	}
	if a, err := fs.Stat(ctx, "d2/linked"); err != nil || a.Nlink != 2 {
		t.Fatalf("link: %+v %v", a, err)
	}
	if err := fs.Rmdir(ctx, "d1"); err != nil {
		t.Fatal(err)
	}

	// READDIR (nfsclient only speaks READDIRPLUS), PATHCONF and MKNOD
	// have no typed client call: issue them raw.
	raw, err := oncrpc.Dial("tcp", addr, nfs3.Program, nfs3.Version)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var rd nfs3.ReadDirRes
	if err := raw.Call(ctx, nfs3.ProcReadDir, &nfs3.ReadDirArgs{Dir: d2, Count: 4096}, &rd); err != nil || rd.Status != nfs3.OK || len(rd.Entries) < 2 {
		t.Fatalf("readdir: %+v %v", rd, err)
	}
	if entries, _, err := fs.Proto().ReadDirPlus(ctx, d2, 0); err != nil || len(entries) < 2 {
		t.Fatalf("readdirplus: %d entries, %v", len(entries), err)
	}
	if _, err := fs.Proto().FSStat(ctx, fs.Root()); err != nil {
		t.Fatal(err)
	}
	if fi, err := fs.Proto().FSInfo(ctx, fs.Root()); err != nil || fi.RtMax == 0 {
		t.Fatalf("fsinfo: %+v %v", fi, err)
	}
	var pc nfs3.PathConfRes
	if err := raw.Call(ctx, nfs3.ProcPathConf, &nfs3.FSStatArgs{Obj: fs.Root()}, &pc); err != nil || pc.Status != nfs3.OK || pc.NameMax == 0 {
		t.Fatalf("pathconf: %+v %v", pc, err)
	}
	if _, err := fs.Proto().Commit(ctx, f.Handle(), 0, 0); err != nil {
		t.Fatalf("commit: %v", err)
	}
	var mk nfs3.CreateRes
	if err := raw.Call(ctx, nfs3.ProcMknod, &nfs3.GetAttrArgs{Obj: fs.Root()}, &mk); err != nil || mk.Status != nfs3.Status(vfs.ErrNotSupp) {
		t.Fatalf("mknod: %+v %v", mk, err)
	}
	if _, _, err := backend.Lookup(backend.Root(), "sym"); err != nil {
		t.Fatalf("symlink did not reach the backend: %v", err)
	}
}

// TestSFSServerCloseEndsSessions: Close must end established sessions,
// not just stop accepting new ones.
func TestSFSServerCloseEndsSessions(t *testing.T) {
	srv, addr, backend, _, _, _ := buildSFSServer(t)
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fs, err := nfsclient.Mount(ctx, dial, "/export", nfsclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	sessions := func() (n int) {
		srv.sessions.Range(func(_, _ any) bool { n++; return true })
		return n
	}
	if sessions() == 0 {
		t.Fatal("no session after mount")
	}
	// A file the client has not looked up yet: finding it takes an
	// upstream call.
	if _, _, err := backend.Create(backend.Root(), "late", vfs.SetAttr{}, false); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	for deadline := time.Now().Add(5 * time.Second); sessions() > 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d session(s) still open after Close", sessions())
		}
	}
	start := time.Now()
	if _, err := fs.Stat(ctx, "late"); err == nil {
		t.Fatal("call through a closed server succeeded")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("call through a closed server took %v to fail", d)
	}
}

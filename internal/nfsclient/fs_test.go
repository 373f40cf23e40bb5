package nfsclient

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/mountd"
	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/vfs"
)

// startServer launches an NFS+MOUNT server over a MemFS and returns a
// dialer plus the backing FS for white-box assertions.
func startServer(t *testing.T) (Dialer, *vfs.MemFS) {
	t.Helper()
	backend := vfs.NewMemFS()
	return serveNFS(t, oncrpc.NewServer(), backend), backend
}

// serveNFS serves backend as /GFS/test on rpc for the length of the
// test and returns a dialer to it.
func serveNFS(t *testing.T, rpc *oncrpc.Server, backend vfs.FS) Dialer {
	t.Helper()
	t.Cleanup(rpc.Close)
	addr, err := mountd.ServeNFS(rpc, "/GFS/test", backend, 7)
	if err != nil {
		t.Fatal(err)
	}
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

func mountFS(t *testing.T, dial Dialer, opt Options) *FileSystem {
	t.Helper()
	fs, err := Mount(context.Background(), dial, "/GFS/test", opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

func TestMountUnknownExport(t *testing.T) {
	dial, _ := startServer(t)
	if _, err := Mount(context.Background(), dial, "/GFS/nope", Options{}); err == nil {
		t.Fatal("mount of unknown export succeeded")
	}
}

func TestCreateWriteReadRoundTrip(t *testing.T) {
	dial, _ := startServer(t)
	fs := mountFS(t, dial, Options{})
	ctx := context.Background()
	f, err := fs.Create(ctx, "hello.txt", 0644)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("grid-wide data access")
	if _, err := f.Write(ctx, msg); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}

	g, err := fs.Open(ctx, "hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 64)
	n, err := g.Read(ctx, got)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:n], msg) {
		t.Fatalf("read %q", got[:n])
	}
	g.Close(ctx)
}

func TestLargeFileMultiBlock(t *testing.T) {
	dial, _ := startServer(t)
	fs := mountFS(t, dial, Options{BlockSize: 4096, CacheBytes: 64 * 1024})
	ctx := context.Background()
	payload := make([]byte, 300*1024) // 75 blocks, cache holds 16
	rand.New(rand.NewSource(1)).Read(payload)
	f, _ := fs.Create(ctx, "big", 0644)
	if _, err := f.WriteAt(ctx, payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	g, _ := fs.Open(ctx, "big")
	got := make([]byte, len(payload))
	if _, err := g.ReadAt(ctx, got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("large file corrupted through cache eviction path")
	}
}

func TestWriteBehindDelaysRPC(t *testing.T) {
	dial, _ := startServer(t)
	fs := mountFS(t, dial, Options{})
	ctx := context.Background()
	f, _ := fs.Create(ctx, "delayed", 0644)
	f.Write(ctx, bytes.Repeat([]byte("w"), 8192))
	_, writesBefore := fs.RPCCounts()
	if writesBefore != 0 {
		t.Fatalf("write-behind issued %d write RPCs before close", writesBefore)
	}
	f.Close(ctx)
	_, writesAfter := fs.RPCCounts()
	if writesAfter == 0 {
		t.Fatal("close did not flush dirty data")
	}
}

func TestPageCacheServesRereads(t *testing.T) {
	dial, _ := startServer(t)
	fs := mountFS(t, dial, Options{})
	ctx := context.Background()
	f, _ := fs.Create(ctx, "cached", 0644)
	f.Write(ctx, bytes.Repeat([]byte("c"), 32*1024))
	f.Close(ctx)

	g, _ := fs.Open(ctx, "cached")
	buf := make([]byte, 32*1024)
	g.ReadAt(ctx, buf, 0)
	reads1, _ := fs.RPCCounts()
	g.ReadAt(ctx, buf, 0)
	g.ReadAt(ctx, buf, 0)
	reads2, _ := fs.RPCCounts()
	if reads2 != reads1 {
		t.Fatalf("rereads went to the server: %d -> %d", reads1, reads2)
	}
}

func TestSequentialReadDefeatsSmallCache(t *testing.T) {
	// The IOzone property: when the file exceeds the page cache, a
	// second sequential pass gets no hits (LRU evicted everything).
	dial, _ := startServer(t)
	fs := mountFS(t, dial, Options{BlockSize: 4096, CacheBytes: 8 * 4096, Readahead: -1})
	ctx := context.Background()
	data := make([]byte, 32*4096)
	f, _ := fs.Create(ctx, "seq", 0644)
	f.WriteAt(ctx, data, 0)
	f.Close(ctx)

	g, _ := fs.Open(ctx, "seq")
	buf := make([]byte, 4096)
	for pass := 0; pass < 2; pass++ {
		for off := int64(0); off < int64(len(data)); off += 4096 {
			g.ReadAt(ctx, buf, off)
		}
	}
	reads, _ := fs.RPCCounts()
	if reads < 60 {
		t.Fatalf("only %d read RPCs; cache served a pass it shouldn't", reads)
	}
}

func TestCloseToOpenRevalidation(t *testing.T) {
	dial, backend := startServer(t)
	fs := mountFS(t, dial, Options{AttrTimeout: time.Hour})
	ctx := context.Background()
	f, _ := fs.Create(ctx, "shared", 0644)
	f.Write(ctx, []byte("version-one"))
	f.Close(ctx)

	g, _ := fs.Open(ctx, "shared")
	buf := make([]byte, 32)
	n, _ := g.Read(ctx, buf)
	if string(buf[:n]) != "version-one" {
		t.Fatalf("got %q", buf[:n])
	}
	g.Close(ctx)

	// Another client (simulated by writing to the backend directly)
	// replaces the content.
	time.Sleep(10 * time.Millisecond) // ensure distinct mtime
	h, _, err := backend.Lookup(backend.Root(), "shared")
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.Write(h, 0, []byte("version-TWO")); err != nil {
		t.Fatal(err)
	}

	// Reopen must revalidate and see the new content despite the huge
	// attribute timeout, because open bypasses the attr cache.
	g2, err := fs.Open(ctx, "shared")
	if err != nil {
		t.Fatal(err)
	}
	n, _ = g2.Read(ctx, buf)
	if string(buf[:n]) != "version-TWO" {
		t.Fatalf("close-to-open failed: got %q", buf[:n])
	}
}

func TestRemoveDiscardsDirtyData(t *testing.T) {
	dial, _ := startServer(t)
	fs := mountFS(t, dial, Options{})
	ctx := context.Background()
	f, _ := fs.Create(ctx, "temp", 0644)
	f.Write(ctx, bytes.Repeat([]byte("t"), 64*1024))
	// Remove before close: dirty blocks must be cancelled, not flushed.
	if err := fs.Remove(ctx, "temp"); err != nil {
		t.Fatal(err)
	}
	_, writes := fs.RPCCounts()
	if writes != 0 {
		t.Fatalf("removed file's dirty data was flushed (%d writes)", writes)
	}
	if _, err := fs.Stat(ctx, "temp"); !errors.Is(err, vfs.ErrNoEnt) {
		t.Fatalf("stat after remove: %v", err)
	}
}

func TestDirectoryOperations(t *testing.T) {
	dial, _ := startServer(t)
	fs := mountFS(t, dial, Options{})
	ctx := context.Background()
	if err := fs.MkdirAll(ctx, "a/b/c", 0755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		f, err := fs.Create(ctx, fmt.Sprintf("a/b/c/f%d", i), 0644)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(ctx, []byte("x"))
		f.Close(ctx)
	}
	entries, err := fs.ReadDir(ctx, "a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 10 {
		t.Fatalf("readdir got %d entries", len(entries))
	}
	// Rmdir of non-empty fails; after cleanup it succeeds.
	if err := fs.Rmdir(ctx, "a/b/c"); !errors.Is(err, vfs.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	for i := 0; i < 10; i++ {
		fs.Remove(ctx, fmt.Sprintf("a/b/c/f%d", i))
	}
	if err := fs.Rmdir(ctx, "a/b/c"); err != nil {
		t.Fatal(err)
	}
}

func TestRenameVisibility(t *testing.T) {
	dial, _ := startServer(t)
	fs := mountFS(t, dial, Options{})
	ctx := context.Background()
	f, _ := fs.Create(ctx, "src", 0644)
	f.Write(ctx, []byte("contents"))
	f.Close(ctx)
	if err := fs.Rename(ctx, "src", "dst"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(ctx, "src"); !errors.Is(err, vfs.ErrNoEnt) {
		t.Fatalf("src still visible: %v", err)
	}
	g, err := fs.Open(ctx, "dst")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, _ := g.Read(ctx, buf)
	if string(buf[:n]) != "contents" {
		t.Fatalf("got %q", buf[:n])
	}
}

func TestSymlinkAndReadLink(t *testing.T) {
	dial, _ := startServer(t)
	fs := mountFS(t, dial, Options{})
	ctx := context.Background()
	if err := fs.Symlink(ctx, "some/target", "ln"); err != nil {
		t.Fatal(err)
	}
	target, err := fs.ReadLink(ctx, "ln")
	if err != nil || target != "some/target" {
		t.Fatalf("readlink %q %v", target, err)
	}
}

func TestTruncateInvalidatesCache(t *testing.T) {
	dial, _ := startServer(t)
	fs := mountFS(t, dial, Options{})
	ctx := context.Background()
	f, _ := fs.Create(ctx, "t", 0644)
	f.Write(ctx, bytes.Repeat([]byte("z"), 1000))
	f.Close(ctx)
	if err := fs.Truncate(ctx, "t", 10); err != nil {
		t.Fatal(err)
	}
	a, err := fs.Stat(ctx, "t")
	if err != nil || a.Size != 10 {
		t.Fatalf("size %d err %v", a.Size, err)
	}
}

func TestAttrCacheSuppressesGetattr(t *testing.T) {
	dial, _ := startServer(t)
	fs := mountFS(t, dial, Options{AttrTimeout: time.Hour})
	ctx := context.Background()
	f, _ := fs.Create(ctx, "x", 0644)
	f.Close(ctx)
	if _, err := fs.Stat(ctx, "x"); err != nil {
		t.Fatal(err)
	}
	// Many stats: all served from cache (no way to observe RPC count
	// directly for GETATTR, so observe latency-free behaviour via the
	// name cache instead: re-stat returns identical attrs).
	a1, _ := fs.Stat(ctx, "x")
	a2, _ := fs.Stat(ctx, "x")
	if a1 != a2 {
		t.Fatal("cached attrs differ")
	}
}

func TestSeek(t *testing.T) {
	dial, _ := startServer(t)
	fs := mountFS(t, dial, Options{})
	ctx := context.Background()
	f, _ := fs.Create(ctx, "s", 0644)
	f.Write(ctx, []byte("0123456789"))
	if _, err := f.Seek(4, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	n, _ := f.Read(ctx, buf)
	if string(buf[:n]) != "456" {
		t.Fatalf("got %q", buf[:n])
	}
	if pos, _ := f.Seek(-2, io.SeekCurrent); pos != 5 {
		t.Fatalf("pos %d", pos)
	}
	if pos, _ := f.Seek(-1, io.SeekEnd); pos != 9 {
		t.Fatalf("pos %d", pos)
	}
}

func TestAccessCall(t *testing.T) {
	dial, _ := startServer(t)
	fs := mountFS(t, dial, Options{UID: 42, GID: 42})
	ctx := context.Background()
	f, _ := fs.Create(ctx, "mine", 0600)
	f.Close(ctx)
	granted, err := fs.Access(ctx, "mine", vfs.AccessRead|vfs.AccessModify)
	if err != nil {
		t.Fatal(err)
	}
	if granted != vfs.AccessRead|vfs.AccessModify {
		t.Fatalf("owner granted %x", granted)
	}
}

func TestPermissionEnforcement(t *testing.T) {
	dial, _ := startServer(t)
	owner := mountFS(t, dial, Options{UID: 100, GID: 100})
	ctx := context.Background()
	f, err := owner.Create(ctx, "private", 0600)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(ctx, []byte("secret"))
	f.Close(ctx)

	other := mountFS(t, dial, Options{UID: 200, GID: 200})
	g, err := other.Open(ctx, "private")
	if err != nil {
		t.Fatal(err) // open itself only does lookup
	}
	buf := make([]byte, 8)
	if _, err := g.ReadAt(ctx, buf, 0); !errors.Is(err, vfs.ErrAccess) {
		t.Fatalf("foreign read gave %v, want ErrAccess", err)
	}
}

func TestOpenExclusive(t *testing.T) {
	dial, _ := startServer(t)
	fs := mountFS(t, dial, Options{})
	ctx := context.Background()
	if _, err := fs.OpenFile(ctx, "x", OWrite|OCreate|OExcl, 0644); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.OpenFile(ctx, "x", OWrite|OCreate|OExcl, 0644); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("second exclusive open: %v", err)
	}
}

func TestConcurrentFileWriters(t *testing.T) {
	dial, _ := startServer(t)
	fs := mountFS(t, dial, Options{})
	ctx := context.Background()
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			name := fmt.Sprintf("w%d", i)
			f, err := fs.Create(ctx, name, 0644)
			if err != nil {
				done <- err
				return
			}
			data := bytes.Repeat([]byte{byte('a' + i)}, 10000)
			if _, err := f.WriteAt(ctx, data, 0); err != nil {
				done <- err
				return
			}
			done <- f.Close(ctx)
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		a, err := fs.Stat(ctx, fmt.Sprintf("w%d", i))
		if err != nil || a.Size != 10000 {
			t.Fatalf("w%d: size %d err %v", i, a.Size, err)
		}
	}
}

// Property: random interleavings of WriteAt land the same bytes on the
// server as in a local model.
func TestQuickWriteModelThroughStack(t *testing.T) {
	dial, _ := startServer(t)
	fs := mountFS(t, dial, Options{BlockSize: 512, CacheBytes: 16 * 512})
	ctx := context.Background()
	counter := 0
	f := func(seed int64) bool {
		counter++
		name := fmt.Sprintf("model%d", counter)
		rng := rand.New(rand.NewSource(seed))
		file, err := fs.Create(ctx, name, 0644)
		if err != nil {
			return false
		}
		var model []byte
		for i := 0; i < 12; i++ {
			off := rng.Intn(3000)
			n := rng.Intn(700) + 1
			data := make([]byte, n)
			rng.Read(data)
			if _, err := file.WriteAt(ctx, data, int64(off)); err != nil {
				return false
			}
			if off+n > len(model) {
				grown := make([]byte, off+n)
				copy(grown, model)
				model = grown
			}
			copy(model[off:], data)
		}
		if err := file.Close(ctx); err != nil {
			return false
		}
		got := make([]byte, len(model))
		g, err := fs.Open(ctx, name)
		if err != nil {
			return false
		}
		if _, err := g.ReadAt(ctx, got, 0); err != nil && err != io.EOF {
			return false
		}
		return bytes.Equal(got, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// failFirstWrite is a backend whose first Write fails.
type failFirstWrite struct {
	*vfs.MemFS
	failed atomic.Bool
}

func (b *failFirstWrite) Write(h vfs.Handle, off uint64, data []byte) error {
	if b.failed.CompareAndSwap(false, true) {
		return vfs.ErrIO
	}
	return b.MemFS.Write(h, off, data)
}

// TestFailedFlushKeepsDataDirty: a Sync that fails must leave its
// blocks dirty, so the next Sync sends them again instead of finding
// nothing to do and reporting a clean file whose bytes never reached
// the server.
func TestFailedFlushKeepsDataDirty(t *testing.T) {
	backend := &failFirstWrite{MemFS: vfs.NewMemFS()}
	fs := mountFS(t, serveNFS(t, oncrpc.NewServer(), backend), Options{})

	ctx := context.Background()
	f, err := fs.Create(ctx, "kept", 0644)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("k"), 3*32*1024)
	if _, err := f.WriteAt(ctx, payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(ctx); err == nil {
		t.Fatal("Sync over a failing WRITE reported success")
	}
	if err := f.Sync(ctx); err != nil {
		t.Fatalf("second Sync: %v", err)
	}
	h, _, err := backend.Lookup(backend.Root(), "kept")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload)+1)
	n, _, err := backend.Read(h, 0, got)
	if err != nil || !bytes.Equal(got[:n], payload) {
		t.Fatalf("backend holds %d bytes after the retried Sync (err %v), want the %d written", n, err, len(payload))
	}
}

// restartingFS is a backend behind a server that restarts once: writes
// stay volatile until a Commit, and after restartAt writes the volatile
// ones are dropped and restart is called (the test re-registers a fresh
// nfs3.Server, so the write verifier changes).
type restartingFS struct {
	*vfs.MemFS
	restartAt int
	restart   func()

	mu      sync.Mutex
	writes  int
	pending []func() error
}

func (b *restartingFS) Write(h vfs.Handle, off uint64, data []byte) error {
	data = append([]byte(nil), data...)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pending = append(b.pending, func() error { return b.MemFS.Write(h, off, data) })
	if b.writes++; b.writes == b.restartAt {
		b.pending = nil
		b.restart()
	}
	return nil
}

func (b *restartingFS) Commit(h vfs.Handle) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, apply := range b.pending {
		if err := apply(); err != nil {
			return err
		}
	}
	b.pending = nil
	return b.MemFS.Commit(h)
}

// TestFlushSurvivesServerRestart: the server restarts between the last
// UNSTABLE write and the COMMIT, losing the unstable data; the COMMIT's
// verifier says so (RFC 1813 §3.3.7), and Close must send every block
// again rather than report a clean file the server does not hold.
func TestFlushSurvivesServerRestart(t *testing.T) {
	const blocks = 4
	// The restart registers a new nfs3.Server (a new boot verifier) on
	// the RPC server the helper was handed; the first boot is the
	// helper's own registration.
	rpc := oncrpc.NewServer()
	backend := &restartingFS{MemFS: vfs.NewMemFS(), restartAt: blocks}
	backend.restart = func() { nfs3.NewServer(backend, 7).Register(rpc) }
	fs := mountFS(t, serveNFS(t, rpc, backend), Options{})

	ctx := context.Background()
	f, err := fs.Create(ctx, "restart", 0644)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, blocks*32*1024)
	rand.New(rand.NewSource(20)).Read(payload)
	if _, err := f.WriteAt(ctx, payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatalf("Close across a server restart: %v", err)
	}
	h, _, err := backend.Lookup(backend.Root(), "restart")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload)+1)
	n, _, err := backend.MemFS.Read(h, 0, got)
	if err != nil || !bytes.Equal(got[:n], payload) {
		t.Fatalf("backend holds %d bytes after Close (err %v), want the %d written: the restart's lost writes were not re-sent", n, err, len(payload))
	}
	if _, writes := fs.RPCCounts(); writes != 2*blocks {
		t.Errorf("%d WRITE RPCs, want %d UNSTABLE and %d FILE_SYNC", writes, blocks, blocks)
	}
}

// TestRevalidationResetsReadahead: when close-to-open revalidation
// drops a changed file's pages it drops the file's stream state too, so
// the reopened file's first read at block 0 starts a sequential stream
// again instead of looking like a seek back.
func TestRevalidationResetsReadahead(t *testing.T) {
	dial, backend := startServer(t)
	fs := mountFS(t, dial, Options{BlockSize: 4096, AttrTimeout: time.Hour})
	ctx := context.Background()
	f, _ := fs.Create(ctx, "stream", 0644)
	f.WriteAt(ctx, make([]byte, 8*4096), 0)
	f.Close(ctx)

	// Read part of the way in and stop: the stream now expects block 2.
	g, _ := fs.Open(ctx, "stream")
	buf := make([]byte, 4096)
	g.ReadAt(ctx, buf, 0)
	g.ReadAt(ctx, buf, 4096)
	g.Close(ctx)

	time.Sleep(10 * time.Millisecond) // ensure distinct mtime
	h, _, err := backend.Lookup(backend.Root(), "stream")
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.Write(h, 0, []byte("changed")); err != nil {
		t.Fatal(err)
	}
	g2, err := fs.Open(ctx, "stream")
	if err != nil {
		t.Fatal(err)
	}
	before, _ := fs.RPCCounts()
	if _, err := g2.ReadAt(ctx, buf, 0); err != nil {
		t.Fatal(err)
	}
	// Block 0 on demand plus the default two blocks of readahead.
	deadline := time.Now().Add(5 * time.Second)
	for {
		reads, _ := fs.RPCCounts()
		if reads-before == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d READs after the reopened file's first read, want 3: readahead did not restart", reads-before)
		}
		time.Sleep(time.Millisecond)
	}
}

package proxy

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/nfsclient"
	"repro/internal/oncrpc"
	"repro/internal/vfs"
)

// These tests pin the two ordering rules of the write-back cache
// (DESIGN.md, "Pipelined data path"): a block fetched from the server
// is stored only if its file was not written, truncated or dropped
// since the fetch began, and a flush marks a block clean only if it was
// not rewritten since the flush read it. The session name cache has the
// same rule: a reply binds a name only if no name was forgotten since
// the call began.

const raceBlock = 32 * 1024

// holdOnce is a backend that holds one call until release is closed:
// the first Read at readOff, after it has read its bytes, or with
// holdWrite the first Write, before it applies them. held is closed
// once the call is held.
type holdOnce struct {
	*vfs.MemFS
	readOff   uint64
	holdWrite bool
	held      chan struct{}
	release   chan struct{}
	once      sync.Once
}

func (b *holdOnce) hold() {
	b.once.Do(func() {
		close(b.held)
		<-b.release
	})
}

func (b *holdOnce) Read(h vfs.Handle, off uint64, buf []byte) (int, bool, error) {
	n, eof, err := b.MemFS.Read(h, off, buf)
	if !b.holdWrite && off == b.readOff {
		b.hold()
	}
	return n, eof, err
}

func (b *holdOnce) Write(h vfs.Handle, off uint64, data []byte) error {
	if b.holdWrite {
		b.hold()
	}
	return b.MemFS.Write(h, off, data)
}

// holdStack builds a stack with a disk cache over a holdOnce backend
// and a mount with the client's own cache and readahead off. With
// blocks > 0 the backend starts with a file "f" of that many blocks of
// 'o'.
func holdStack(t *testing.T, readOff uint64, holdWrite bool, blocks int) (*testStack, *holdOnce, *nfsclient.FileSystem) {
	b := &holdOnce{readOff: readOff, holdWrite: holdWrite, held: make(chan struct{}), release: make(chan struct{})}
	st := buildStack(t, stackOpts{diskCache: newDiskCache(t), wrapBackend: func(mem *vfs.MemFS, _ *oncrpc.Server) vfs.FS {
		b.MemFS = mem
		return b
	}})
	if blocks > 0 {
		mode, uid := uint32(0644), uint32(5001) // alice's, as the server proxy maps her
		h, _, _ := st.backend.Create(st.backend.Root(), "f", vfs.SetAttr{Mode: &mode, UID: &uid}, false)
		st.backend.Write(h, 0, bytes.Repeat([]byte("o"), blocks*raceBlock))
	}
	return st, b, st.mount(t, nfsclient.Options{CacheBytes: 1, Readahead: -1})
}

// readBlock reads block idx of f through the mount.
func readBlock(t *testing.T, fs *nfsclient.FileSystem, idx int64) []byte {
	t.Helper()
	ctx := context.Background()
	f, err := fs.Open(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(ctx)
	buf := make([]byte, raceBlock)
	n, _ := f.ReadAt(ctx, buf, idx*raceBlock)
	return buf[:n]
}

// awaitFetch waits for a fetch of block idx in flight to finish, by
// joining its flight.
func awaitFetch(t *testing.T, st *testStack, fs *nfsclient.FileSystem, idx uint64) {
	t.Helper()
	fh, _, err := fs.Proto().Lookup(context.Background(), fs.Root(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.clientProxy.reader.Fetch(context.Background(), fh, idx, false); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchLosesToWrite: the proxy's READ of block 0 prefetches
// block 1, whose backend READ reads the old bytes and is held; the
// client writes block 1 in full; the READ is released. The prefetched
// bytes must not replace the acknowledged write, in the cache or on the
// server after a flush.
func TestPrefetchLosesToWrite(t *testing.T) {
	t.Parallel()
	st, b, fs := holdStack(t, raceBlock, false, 5)
	readBlock(t, fs, 0)
	<-b.held
	written := bytes.Repeat([]byte("N"), raceBlock)
	ctx := context.Background()
	f, err := fs.Open(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(ctx, written, raceBlock); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	close(b.release)
	awaitFetch(t, st, fs, 1)
	if got := readBlock(t, fs, 1); !bytes.Equal(got, written) {
		t.Fatalf("re-read of block 1 returns %q…, not the write", got[:8])
	}
	if err := st.clientProxy.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	if got := backendBytes(t, st, "f", 5*raceBlock); !bytes.Equal(got[raceBlock:2*raceBlock], written) {
		t.Fatalf("server holds %q… in block 1 after the flush", got[raceBlock:raceBlock+8])
	}
}

// TestPrefetchLosesToTruncate: a prefetch in flight across a truncate
// to 0 must not bring the cut bytes back. A byte-range WRITE into the
// prefetched block, as a kernel client sends it, then reads back with
// zeros before it, not the old bytes.
func TestPrefetchLosesToTruncate(t *testing.T) {
	t.Parallel()
	st, b, fs := holdStack(t, raceBlock, false, 3)
	readBlock(t, fs, 0)
	<-b.held
	ctx := context.Background()
	if err := fs.Truncate(ctx, "f", 0); err != nil {
		t.Fatal(err)
	}
	close(b.release)
	awaitFetch(t, st, fs, 1)
	fh, _, err := fs.Proto().Lookup(ctx, fs.Root(), "f")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("N"), 100)
	if _, _, err := fs.Proto().Write(ctx, fh, raceBlock+100, data, 0); err != nil {
		t.Fatal(err)
	}
	got, _, err := fs.Proto().Read(ctx, fh, raceBlock, raceBlock)
	if err != nil {
		t.Fatal(err)
	}
	want := append(make([]byte, 100), data...)
	if !bytes.Equal(got, want) {
		t.Fatalf("block 1 reads %q… after truncate and write, want %d zeros then the write", got[:8], 100)
	}
}

// TestFlushKeepsRewriteDirty: a block rewritten while its flush's WRITE
// is in flight must stay dirty, so the next flush sends the rewrite.
func TestFlushKeepsRewriteDirty(t *testing.T) {
	t.Parallel()
	st, b, fs := holdStack(t, 0, true, 0)
	putFile(t, fs, "f", bytes.Repeat([]byte("o"), raceBlock))
	ctx := context.Background()
	done := make(chan error, 1)
	go func() { done <- st.clientProxy.FlushAll(ctx) }()
	<-b.held
	written := bytes.Repeat([]byte("N"), raceBlock)
	fs2 := st.mount(t, nfsclient.Options{CacheBytes: 1, Readahead: -1})
	f, err := fs2.Open(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(ctx, written, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	close(b.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := st.clientProxy.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	if n := len(st.clientProxy.cfg.DiskCache.DirtyFiles()); n != 0 {
		t.Fatalf("%d dirty files after two flushes", n)
	}
	if got := backendBytes(t, st, "f", raceBlock+1); !bytes.Equal(got, written) {
		t.Fatalf("server holds %q… after the flushes, not the rewrite", got[:8])
	}
}

// holdLookup is a backend that holds the first LOOKUP of name, after it
// has looked the name up, until release is closed. held is closed once
// the call is held.
type holdLookup struct {
	*vfs.MemFS
	name    string
	held    chan struct{}
	release chan struct{}
	once    sync.Once
}

func (b *holdLookup) Lookup(dir vfs.Handle, name string) (vfs.Handle, vfs.Attr, error) {
	h, attr, err := b.MemFS.Lookup(dir, name)
	if name == b.name {
		b.once.Do(func() {
			close(b.held)
			<-b.release
		})
	}
	return h, attr, err
}

// TestLookupLosesToRemove: a LOOKUP whose backend call found the name
// and is held; the client removes the name; the LOOKUP is released. Its
// reply, older than the REMOVE, must not bind the name in the session
// name cache, or every later LOOKUP would find the removed file (C3).
func TestLookupLosesToRemove(t *testing.T) {
	t.Parallel()
	b := &holdLookup{name: "x", held: make(chan struct{}), release: make(chan struct{})}
	st := buildStack(t, stackOpts{diskCache: newDiskCache(t), wrapBackend: func(mem *vfs.MemFS, _ *oncrpc.Server) vfs.FS {
		b.MemFS = mem
		return b
	}})
	mode, uid := uint32(0644), uint32(5001) // alice's, as the server proxy maps her
	if _, _, err := st.backend.Create(st.backend.Root(), "x", vfs.SetAttr{Mode: &mode, UID: &uid}, false); err != nil {
		t.Fatal(err)
	}
	fs := st.mount(t, nfsclient.Options{})
	proto, root := fs.Proto(), fs.Root()
	ctx := context.Background()
	looked := make(chan error, 1)
	go func() {
		_, _, err := proto.Lookup(ctx, root, "x")
		looked <- err
	}()
	<-b.held
	if err := proto.Remove(ctx, root, "x"); err != nil {
		t.Fatal(err)
	}
	close(b.release)
	if err := <-looked; err != nil {
		t.Fatalf("held LOOKUP: %v", err)
	}
	if fh, _, err := proto.Lookup(ctx, root, "x"); !errors.Is(err, vfs.ErrNoEnt) {
		t.Fatalf("LOOKUP after the REMOVE: %x, %v; want NOENT", fh.Data, err)
	}
}

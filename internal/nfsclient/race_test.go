package nfsclient

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/oncrpc"
	"repro/internal/vfs"
)

// holdOnce is a backend that holds one call until release is closed:
// the first Read at off, after it has read its bytes, or with holdWrite
// the first Write at off, before it applies them. held is closed once
// the call is held; every other call goes straight through.
type holdOnce struct {
	*vfs.MemFS
	off       uint64
	holdWrite bool
	held      chan struct{}
	release   chan struct{}
	taken     atomic.Bool
}

func newHoldOnce(off uint64, holdWrite bool) *holdOnce {
	return &holdOnce{MemFS: vfs.NewMemFS(), off: off, holdWrite: holdWrite,
		held: make(chan struct{}), release: make(chan struct{})}
}

func (b *holdOnce) hold(write bool, off uint64) {
	if write == b.holdWrite && off == b.off && b.taken.CompareAndSwap(false, true) {
		close(b.held)
		<-b.release
	}
}

func (b *holdOnce) Read(h vfs.Handle, off uint64, buf []byte) (int, bool, error) {
	n, eof, err := b.MemFS.Read(h, off, buf)
	b.hold(false, off)
	return n, eof, err
}

func (b *holdOnce) Write(h vfs.Handle, off uint64, data []byte) error {
	b.hold(true, off)
	return b.MemFS.Write(h, off, data)
}

// fileBytes reads name's content from the backend.
func (b *holdOnce) fileBytes(t *testing.T, name string) []byte {
	t.Helper()
	h, _, err := b.Lookup(b.Root(), name)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<20)
	n, _, err := b.MemFS.Read(h, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

// TestReadaheadLosesToWrite: a readahead READ of block 1 reads the
// server's bytes and is held; the client then writes block 1 in full.
// When the READ lands it must not replace the write in the page cache,
// so the re-read and the flush both carry the write.
func TestReadaheadLosesToWrite(t *testing.T) {
	const bs = 32 * 1024
	backend := newHoldOnce(bs, false)
	h, _, _ := backend.Create(backend.Root(), "f", vfs.SetAttr{}, false)
	backend.MemFS.Write(h, 0, bytes.Repeat([]byte("o"), 4*bs))
	fs := mountFS(t, serveNFS(t, oncrpc.NewServer(), backend), Options{CacheBytes: 1 << 20})
	ctx := context.Background()
	f, err := fs.Open(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.ReadAt(ctx, make([]byte, bs), 0); err != nil {
		t.Fatal(err) // block 0, and a readahead of blocks 1 and 2
	}
	<-backend.held
	written := bytes.Repeat([]byte("N"), bs)
	if _, err := f.WriteAt(ctx, written, bs); err != nil {
		t.Fatal(err)
	}
	close(backend.release)
	// A fetch of block 1 joins the readahead's flight while it runs.
	if _, err := fs.reader.Fetch(ctx, f.Handle(), 1, false); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, bs)
	if _, err := f.ReadAt(ctx, got, bs); err != nil || !bytes.Equal(got, written) {
		t.Fatalf("re-read of block 1 after its readahead landed: %q…, %v", got[:8], err)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if got := backend.fileBytes(t, "f"); !bytes.Equal(got[bs:2*bs], written) {
		t.Fatalf("server holds %q… in block 1 after the flush", got[bs:bs+8])
	}
}

// TestFlushKeepsRewriteDirty: a block rewritten while its flush's WRITE
// is in flight stays dirty, so the next Sync sends the rewrite. The
// flush marks the block clean only if it still holds the version the
// WRITE sent (blockio.Flush, Cache.FlushDone), as the client proxy's
// disk cache does.
func TestFlushKeepsRewriteDirty(t *testing.T) {
	const bs = 32 * 1024
	backend := newHoldOnce(0, true)
	fs := mountFS(t, serveNFS(t, oncrpc.NewServer(), backend), Options{})
	ctx := context.Background()
	f, err := fs.Create(ctx, "f", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(ctx, bytes.Repeat([]byte("o"), bs), 0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- f.Sync(ctx) }()
	<-backend.held
	written := bytes.Repeat([]byte("N"), bs)
	if _, err := f.WriteAt(ctx, written, 0); err != nil {
		t.Fatal(err)
	}
	close(backend.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if got := backend.fileBytes(t, "f"); !bytes.Equal(got, written) {
		t.Fatalf("server holds %q… after the rewrite's Sync", got[:8])
	}
}

// TestEvictionKeepsConcurrentWrite: a page cache of two blocks, full of
// dirty ones, takes a third, and the pressure flush's WRITE of block 0
// is held. A write to another range of block 0 meanwhile must merge
// over the first write, not over the server's older copy, and both
// writes must reach the server.
func TestEvictionKeepsConcurrentWrite(t *testing.T) {
	const bs = 32 * 1024
	backend := newHoldOnce(0, true)
	h, _, _ := backend.Create(backend.Root(), "f", vfs.SetAttr{}, false)
	backend.MemFS.Write(h, 0, bytes.Repeat([]byte("o"), 4*bs))
	fs := mountFS(t, serveNFS(t, oncrpc.NewServer(), backend), Options{CacheBytes: 2 * bs, Readahead: -1})
	ctx := context.Background()
	f, err := fs.Open(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	a, c := bytes.Repeat([]byte("A"), 100), bytes.Repeat([]byte("C"), 100)
	if _, err := f.WriteAt(ctx, a, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(ctx, bytes.Repeat([]byte("B"), bs), bs); err != nil {
		t.Fatal(err)
	}
	third := make(chan error, 1)
	go func() {
		_, err := f.WriteAt(ctx, bytes.Repeat([]byte("D"), bs), 2*bs)
		third <- err
	}()
	<-backend.held
	if _, err := f.WriteAt(ctx, c, 200); err != nil {
		t.Fatal(err)
	}
	close(backend.release)
	if err := <-third; err != nil {
		t.Fatal(err)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	got := backend.fileBytes(t, "f")
	if !bytes.Equal(got[:100], a) || !bytes.Equal(got[200:300], c) {
		t.Fatalf("server holds %q… at 0 and %q… at 200, want both writes", got[:8], got[200:208])
	}
}

// TestCloseWaitsForInFlightSync: while one handle's Sync has a WRITE in
// flight, Close through a second handle of the file must not report
// success before the server holds the bytes.
func TestCloseWaitsForInFlightSync(t *testing.T) {
	backend := newHoldOnce(0, true)
	fs := mountFS(t, serveNFS(t, oncrpc.NewServer(), backend), Options{})
	ctx := context.Background()
	f, err := fs.Create(ctx, "f", 0644)
	if err != nil {
		t.Fatal(err)
	}
	written := bytes.Repeat([]byte("w"), 100)
	if _, err := f.WriteAt(ctx, written, 0); err != nil {
		t.Fatal(err)
	}
	synced := make(chan error, 1)
	go func() { synced <- f.Sync(ctx) }()
	<-backend.held
	g, err := fs.Open(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- g.Close(ctx) }()
	check := func(err error) {
		if got := backend.fileBytes(t, "f"); err == nil && !bytes.Equal(got, written) {
			t.Fatalf("Close returned nil with %d bytes on the server", len(got))
		}
	}
	select {
	case err := <-closed:
		check(err)
		closed <- err
	case <-time.After(100 * time.Millisecond):
	}
	close(backend.release)
	if err := <-synced; err != nil {
		t.Fatal(err)
	}
	err = <-closed
	check(err)
	if err != nil {
		t.Fatal(err)
	}
}

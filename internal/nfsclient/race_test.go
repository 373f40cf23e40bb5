package nfsclient

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/oncrpc"
	"repro/internal/vfs"
)

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

func newHoldOnce(readOff uint64, holdWrite bool) *holdOnce {
	return &holdOnce{MemFS: vfs.NewMemFS(), readOff: readOff, holdWrite: holdWrite,
		held: make(chan struct{}), release: make(chan struct{})}
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
// client's flush works on snapshots and puts back only what a newer
// write has not replaced (Cache.Redirty), so this already held before
// the client proxy's disk cache was given the same guarantee.
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

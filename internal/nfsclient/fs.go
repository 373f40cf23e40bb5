package nfsclient

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockio"
	"repro/internal/mountd"
	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/vfs"
)

// Options tunes the mounted file system. Zero values select the
// defaults noted on each field.
type Options struct {
	// BlockSize is the read/write transfer size (default 32 KiB, the
	// paper's experimental setting).
	BlockSize int
	// CacheBytes bounds the memory page cache (default 32 MiB —
	// scaled from the paper's 256 MB client against a 512 MB file).
	CacheBytes int64
	// AttrTimeout is the attribute/name cache freshness window
	// (default 3 s, matching typical acregmin).
	AttrTimeout time.Duration
	// Readahead caps the readahead window, in blocks, and with it
	// the prefetches in flight (0 selects the default, 2; negative
	// disables). The window opens at 4 blocks or the cap, if smaller,
	// and doubles on each sequential read up to the cap, so at the
	// default it stays at 2.
	Readahead int
	// UID, GID and MachineName form the AUTH_SYS credential.
	UID, GID    uint32
	MachineName string
}

func (o Options) withDefaults() Options {
	if o.BlockSize == 0 {
		o.BlockSize = 32 * 1024
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 32 << 20
	}
	if o.AttrTimeout == 0 {
		o.AttrTimeout = 3 * time.Second
	}
	if o.Readahead == 0 {
		o.Readahead = 2
	}
	if o.MachineName == "" {
		o.MachineName = "client"
	}
	return o
}

// FileSystem is a mounted NFS file system with kernel-client-like
// caching. Writes are delayed in the page cache ("write delay" in the
// paper's export options) until Sync, Close or memory pressure flushes
// them. All methods are safe for concurrent use.
type FileSystem struct {
	proto *Proto
	root  nfs3.FH3
	opt   Options

	attrs *attrCache
	names *nameCache
	pages *blockio.Cache

	// openVersions records the (mtime, size) under which a file's
	// cached pages were populated, for close-to-open revalidation.
	verMu    sync.Mutex
	versions map[string]fileVersion

	// reader fetches blocks into pages: one server READ per block
	// however many demand readers and prefetchers ask, and readahead on
	// sequential streams.
	reader *blockio.Reader

	// flushing is held by the flush running now: flushes go one at a
	// time, so that two never race different versions of one block to
	// the server.
	flushing sync.Mutex

	rpcReads, rpcWrites atomic.Uint64
}

type fileVersion struct {
	mtime nfs3.NFSTime
	size  uint64
}

// Mount attaches to the export at path via dial and returns a caching
// file system. MOUNT and NFS share the one connection dial opens.
func Mount(ctx context.Context, dial Dialer, path string, opt Options) (*FileSystem, error) {
	opt = opt.withDefaults()
	conn, err := dial()
	if err != nil {
		return nil, fmt.Errorf("nfsclient: dial: %w", err)
	}
	proto := &Proto{rpc: oncrpc.NewClient(conn, nfs3.Program, nfs3.Version)}
	if err := proto.SetCred(opt.UID, opt.GID, opt.MachineName); err != nil {
		proto.Close()
		return nil, err
	}
	root, err := mountd.Mount(ctx, proto.rpc, path)
	if err != nil {
		proto.Close()
		return nil, err
	}
	fs := &FileSystem{
		proto:    proto,
		root:     root,
		opt:      opt,
		attrs:    newAttrCache(opt.AttrTimeout),
		names:    newNameCache(opt.AttrTimeout),
		pages:    blockio.NewCache(opt.CacheBytes),
		versions: make(map[string]fileVersion),
	}
	fs.reader = blockio.NewReader(pageSource{fs.pages, fs}, opt.BlockSize, opt.Readahead)
	// Prime the root attributes and verify the server speaks NFSv3.
	if _, err := fs.getAttr(ctx, root); err != nil {
		proto.Close()
		fs.reader.Close()
		return nil, fmt.Errorf("nfsclient: root getattr: %w", err)
	}
	return fs, nil
}

// Close flushes all dirty data and tears down the connection.
func (fs *FileSystem) Close() error {
	// Bound the final write-back: Close must terminate even when the
	// server has gone away mid-session.
	ctx, cancel := context.WithTimeout(context.Background(), closeFlushTimeout)
	defer cancel()
	firstErr := fs.flush(ctx, fs.pages.DirtyFiles(), true)
	if err := fs.proto.Close(); firstErr == nil {
		firstErr = err
	}
	// The transport is gone, so queued prefetches fail fast.
	fs.reader.Close()
	return firstErr
}

// Root returns the root file handle.
func (fs *FileSystem) Root() nfs3.FH3 { return fs.root }

// Proto exposes the underlying protocol client (for tests and tools).
func (fs *FileSystem) Proto() *Proto { return fs.proto }

// RPCCounts reports the number of read and write RPCs issued.
func (fs *FileSystem) RPCCounts() (reads, writes uint64) {
	return fs.rpcReads.Load(), fs.rpcWrites.Load()
}

// CacheStats reports page-cache hit/miss counters.
func (fs *FileSystem) CacheStats() (hits, misses uint64) {
	st := fs.pages.Stats()
	return st.BlockHits, st.BlockMisses
}

// getAttr returns attributes, consulting the cache first.
func (fs *FileSystem) getAttr(ctx context.Context, fh nfs3.FH3) (nfs3.Fattr3, error) {
	if a, ok := fs.attrs.Get(fh); ok {
		return a, nil
	}
	a, err := fs.proto.GetAttr(ctx, fh)
	if err != nil {
		return a, err
	}
	fs.attrs.Put(fh, a)
	return a, nil
}

// splitPath normalizes and splits a slash path.
func splitPath(path string) []string {
	var parts []string
	for _, p := range strings.Split(path, "/") {
		if p != "" && p != "." {
			parts = append(parts, p)
		}
	}
	return parts
}

// walk resolves path to a handle using the name cache.
func (fs *FileSystem) walk(ctx context.Context, path string) (nfs3.FH3, error) {
	cur := fs.root
	for _, name := range splitPath(path) {
		if fh, ok := fs.names.Get(cur, name); ok {
			cur = fh
			continue
		}
		fh, attr, err := fs.proto.Lookup(ctx, cur, name)
		if err != nil {
			return nfs3.FH3{}, err
		}
		fs.names.Put(cur, name, fh)
		fs.attrs.Put(fh, attr)
		cur = fh
	}
	return cur, nil
}

// walkParent resolves the parent directory of path and returns it with
// the final name component.
func (fs *FileSystem) walkParent(ctx context.Context, path string) (nfs3.FH3, string, error) {
	parts := splitPath(path)
	if len(parts) == 0 {
		return nfs3.FH3{}, "", vfs.ErrInval
	}
	dirParts := parts[:len(parts)-1]
	dir := fs.root
	var err error
	if len(dirParts) > 0 {
		dir, err = fs.walk(ctx, strings.Join(dirParts, "/"))
		if err != nil {
			return nfs3.FH3{}, "", err
		}
	}
	return dir, parts[len(parts)-1], nil
}

// Stat returns attributes for path.
func (fs *FileSystem) Stat(ctx context.Context, path string) (nfs3.Fattr3, error) {
	fh, err := fs.walk(ctx, path)
	if err != nil {
		return nfs3.Fattr3{}, err
	}
	return fs.getAttr(ctx, fh)
}

// Access returns the granted subset of mask for path.
func (fs *FileSystem) Access(ctx context.Context, path string, mask uint32) (uint32, error) {
	fh, err := fs.walk(ctx, path)
	if err != nil {
		return 0, err
	}
	return fs.proto.Access(ctx, fh, mask)
}

// Mkdir creates a directory.
func (fs *FileSystem) Mkdir(ctx context.Context, path string, mode uint32) error {
	dir, name, err := fs.walkParent(ctx, path)
	if err != nil {
		return err
	}
	fh, attr, err := fs.proto.Mkdir(ctx, dir, name, mode)
	if err != nil {
		return err
	}
	fs.names.Put(dir, name, fh)
	fs.attrs.Put(fh, attr)
	fs.attrs.Invalidate(dir)
	return nil
}

// MkdirAll creates path and any missing parents.
func (fs *FileSystem) MkdirAll(ctx context.Context, path string, mode uint32) error {
	parts := splitPath(path)
	for i := range parts {
		p := strings.Join(parts[:i+1], "/")
		err := fs.Mkdir(ctx, p, mode)
		if err != nil && !errors.Is(err, vfs.ErrExist) {
			return err
		}
	}
	return nil
}

// Remove unlinks the file at path, discarding any cached dirty blocks
// (they can never be observed again).
func (fs *FileSystem) Remove(ctx context.Context, path string) error {
	dir, name, err := fs.walkParent(ctx, path)
	if err != nil {
		return err
	}
	if fh, ok := fs.names.Get(dir, name); ok {
		fs.dropPages(fh)
		fs.attrs.Invalidate(fh)
	}
	fs.names.Invalidate(dir, name)
	fs.attrs.Invalidate(dir)
	return fs.proto.Remove(ctx, dir, name)
}

// Rmdir removes an empty directory.
func (fs *FileSystem) Rmdir(ctx context.Context, path string) error {
	dir, name, err := fs.walkParent(ctx, path)
	if err != nil {
		return err
	}
	fs.names.Invalidate(dir, name)
	fs.attrs.Invalidate(dir)
	return fs.proto.Rmdir(ctx, dir, name)
}

// Rename moves oldPath to newPath.
func (fs *FileSystem) Rename(ctx context.Context, oldPath, newPath string) error {
	fromDir, fromName, err := fs.walkParent(ctx, oldPath)
	if err != nil {
		return err
	}
	toDir, toName, err := fs.walkParent(ctx, newPath)
	if err != nil {
		return err
	}
	fs.names.Invalidate(fromDir, fromName)
	fs.names.Invalidate(toDir, toName)
	fs.attrs.Invalidate(fromDir)
	fs.attrs.Invalidate(toDir)
	return fs.proto.Rename(ctx, fromDir, fromName, toDir, toName)
}

// Symlink creates a symbolic link at path pointing to target.
func (fs *FileSystem) Symlink(ctx context.Context, target, path string) error {
	dir, name, err := fs.walkParent(ctx, path)
	if err != nil {
		return err
	}
	_, err = fs.proto.Symlink(ctx, dir, name, target)
	fs.attrs.Invalidate(dir)
	return err
}

// ReadLink reads the target of the symlink at path.
func (fs *FileSystem) ReadLink(ctx context.Context, path string) (string, error) {
	fh, err := fs.walk(ctx, path)
	if err != nil {
		return "", err
	}
	return fs.proto.ReadLink(ctx, fh)
}

// Chmod changes permissions.
func (fs *FileSystem) Chmod(ctx context.Context, path string, mode uint32) error {
	fh, err := fs.walk(ctx, path)
	if err != nil {
		return err
	}
	fs.attrs.Invalidate(fh)
	return fs.proto.SetAttr(ctx, fh, nfs3.Sattr3{SetMode: true, Mode: mode})
}

// Truncate sets the file size.
func (fs *FileSystem) Truncate(ctx context.Context, path string, size uint64) error {
	fh, err := fs.walk(ctx, path)
	if err != nil {
		return err
	}
	fs.dropPages(fh)
	fs.attrs.Invalidate(fh)
	return fs.proto.SetAttr(ctx, fh, nfs3.Sattr3{SetSize: true, Size: size})
}

// ReadDir lists the directory at path.
func (fs *FileSystem) ReadDir(ctx context.Context, path string) ([]nfs3.DirEntryPlus, error) {
	fh, err := fs.walk(ctx, path)
	if err != nil {
		return nil, err
	}
	var out []nfs3.DirEntryPlus
	var cookie uint64
	for {
		entries, eof, err := fs.proto.ReadDirPlus(ctx, fh, cookie)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			cookie = e.Cookie
			if e.Name == "." || e.Name == ".." {
				continue
			}
			if e.FH.Present {
				fs.names.Put(fh, e.Name, e.FH.FH)
				if e.Attr.Present {
					fs.attrs.Put(e.FH.FH, e.Attr.Attr)
				}
			}
			out = append(out, e)
		}
		if eof {
			return out, nil
		}
	}
}

// closeFlushTimeout bounds the final write-back in Close.
const closeFlushTimeout = 2 * time.Minute

// File flags for OpenFile.
const (
	ORdOnly = 0
	OWrite  = 1 << iota
	OCreate
	OTrunc
	OExcl
)

// File is an open file with cached I/O.
type File struct {
	fs   *FileSystem
	fh   nfs3.FH3
	path string

	mu     sync.Mutex
	offset int64
	size   int64
	closed bool
}

// Open opens an existing file read/write.
func (fs *FileSystem) Open(ctx context.Context, path string) (*File, error) {
	return fs.OpenFile(ctx, path, ORdOnly, 0)
}

// Create creates (or truncates) a file for writing.
func (fs *FileSystem) Create(ctx context.Context, path string, mode uint32) (*File, error) {
	return fs.OpenFile(ctx, path, OWrite|OCreate|OTrunc, mode)
}

// OpenFile opens path with the given flags. Open performs
// close-to-open consistency: the file's attributes are revalidated
// against the server and cached pages are discarded if the file
// changed since they were populated.
func (fs *FileSystem) OpenFile(ctx context.Context, path string, flags int, mode uint32) (*File, error) {
	dir, name, err := fs.walkParent(ctx, path)
	if err != nil {
		return nil, err
	}
	var fh nfs3.FH3
	var attr nfs3.Fattr3
	fh, attr, err = fs.proto.Lookup(ctx, dir, name)
	switch {
	case err == nil:
		if flags&OExcl != 0 {
			return nil, vfs.ErrExist
		}
		if flags&OTrunc != 0 {
			fs.dropPages(fh)
			if err := fs.proto.SetAttr(ctx, fh, nfs3.Sattr3{SetSize: true}); err != nil {
				return nil, err
			}
			attr.Size = 0
		}
	case errors.Is(err, vfs.ErrNoEnt) && flags&OCreate != 0:
		if mode == 0 {
			mode = 0644
		}
		fh, attr, err = fs.proto.Create(ctx, dir, name, mode, flags&OExcl != 0)
		if err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	fs.names.Put(dir, name, fh)
	fs.attrs.Put(fh, attr)

	// Close-to-open: discard stale pages if the file changed.
	key := fhKey(fh)
	fs.verMu.Lock()
	prev, seen := fs.versions[key]
	cur := fileVersion{mtime: attr.Mtime, size: attr.Size}
	if seen && prev != cur {
		fs.dropPages(fh)
	}
	fs.versions[key] = cur
	fs.verMu.Unlock()

	return &File{fs: fs, fh: fh, path: path, size: int64(attr.Size)}, nil
}

// Handle returns the file's NFS handle.
func (f *File) Handle() nfs3.FH3 { return f.fh }

// Size returns the file's current (locally known) size.
func (f *File) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// Stat returns fresh-enough attributes for the file.
func (f *File) Stat(ctx context.Context) (nfs3.Fattr3, error) {
	return f.fs.getAttr(ctx, f.fh)
}

// dropPages discards fh's readahead stream state, the fetches of it in
// flight, and its cached blocks, dirty ones included.
func (fs *FileSystem) dropPages(fh nfs3.FH3) {
	fs.reader.Forget(fh)
	fs.pages.DropFile(fhKey(fh))
}

// pageSource is the page cache and the server as the block reader and
// the flush engine see them.
type pageSource struct {
	*blockio.Cache
	fs *FileSystem
}

// FetchBlock reads one block from the server into the page cache.
func (s pageSource) FetchBlock(ctx context.Context, fh nfs3.FH3, block uint64, fill blockio.Fill) ([]byte, error) {
	fs := s.fs
	bs := uint64(fs.opt.BlockSize)
	data, _, err := fs.proto.Read(ctx, fh, block*bs, uint32(bs))
	if err != nil {
		return nil, err
	}
	fs.rpcReads.Add(1)
	fs.pages.Fill(fhKey(fh), block, data, fill)
	return data, nil
}

func (s pageSource) WriteBlock(ctx context.Context, fh nfs3.FH3, block uint64, data []byte, stable uint32) (uint32, blockio.Verifier, error) {
	committed, verf, err := s.fs.proto.Write(ctx, fh, block*uint64(s.fs.opt.BlockSize), data, stable)
	if err == nil {
		s.fs.rpcWrites.Add(1)
	}
	return committed, verf, err
}

func (s pageSource) Commit(ctx context.Context, fh nfs3.FH3) (blockio.Verifier, error) {
	return s.fs.proto.Commit(ctx, fh, 0, 0)
}

// flush writes back the dirty blocks of files and commits them, in one
// blockio.Flush. Blocks it does not make durable stay dirty for the
// next. A flush waits for the one running, or with wait unset leaves
// the work to it.
func (fs *FileSystem) flush(ctx context.Context, files []nfs3.FH3, wait bool) error {
	if wait {
		fs.flushing.Lock()
	} else if !fs.flushing.TryLock() {
		return nil
	}
	defer fs.flushing.Unlock()
	src := pageSource{fs.pages, fs}
	_, err := blockio.Flush(ctx, blockio.ClientFlushWidth, src, files, src)
	return err
}

// ReadAt reads len(p) bytes at offset off.
func (f *File) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	attr, err := f.fs.getAttr(ctx, f.fh)
	if err != nil {
		return 0, err
	}
	size := max(int64(attr.Size), f.Size()) // locally extended under write-behind
	n, err := f.fs.reader.ReadAt(ctx, f.fh, p, uint64(off), uint64(size))
	if err == nil && off+int64(n) >= size {
		err = io.EOF
	}
	return n, err
}

// WriteAt writes p at offset off into the page cache. When that leaves
// the cache over capacity with nothing clean to evict, it flushes the
// mount's dirty files, unless a flush is running already, and returns
// that flush's error.
func (f *File) WriteAt(ctx context.Context, p []byte, off int64) (int, error) {
	fs := f.fs
	over := false
	written, err := fs.reader.WriteAt(ctx, f.fh, p, uint64(off), uint64(f.Size()), func(idx uint64, block []byte) error {
		var err error
		over, err = fs.pages.Put(fhKey(f.fh), idx, block, true)
		return err
	})
	if err != nil {
		return written, err
	}
	f.extend(off + int64(written))
	fs.attrs.Update(f.fh, func(a *nfs3.Fattr3) { a.Size = max(a.Size, uint64(f.Size())) })
	if over {
		err = fs.flush(ctx, fs.pages.DirtyFiles(), false)
	}
	return written, err
}

func (f *File) extend(end int64) {
	f.mu.Lock()
	f.size = max(f.size, end)
	f.mu.Unlock()
}

// Read reads sequentially from the file's current offset.
func (f *File) Read(ctx context.Context, p []byte) (int, error) {
	f.mu.Lock()
	off := f.offset
	f.mu.Unlock()
	n, err := f.ReadAt(ctx, p, off)
	f.mu.Lock()
	f.offset += int64(n)
	f.mu.Unlock()
	return n, err
}

// Write writes sequentially at the file's current offset.
func (f *File) Write(ctx context.Context, p []byte) (int, error) {
	f.mu.Lock()
	off := f.offset
	f.mu.Unlock()
	n, err := f.WriteAt(ctx, p, off)
	f.mu.Lock()
	f.offset += int64(n)
	f.mu.Unlock()
	return n, err
}

// Seek sets the file offset.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch whence {
	case io.SeekStart:
		f.offset = offset
	case io.SeekCurrent:
		f.offset += offset
	case io.SeekEnd:
		f.offset = f.size + offset
	default:
		return 0, vfs.ErrInval
	}
	return f.offset, nil
}

// Sync flushes the file's dirty blocks and commits them.
func (f *File) Sync(ctx context.Context) error {
	return f.fs.flush(ctx, []nfs3.FH3{f.fh}, true)
}

// Close flushes dirty data (write-behind) and releases the file.
func (f *File) Close(ctx context.Context) error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	if err := f.Sync(ctx); err != nil {
		return err
	}
	// Record the post-close version so a subsequent open by this
	// client keeps its pages (close-to-open).
	if attr, err := f.fs.proto.GetAttr(ctx, f.fh); err == nil {
		f.fs.attrs.Put(f.fh, attr)
		f.fs.verMu.Lock()
		f.fs.versions[fhKey(f.fh)] = fileVersion{mtime: attr.Mtime, size: attr.Size}
		f.fs.verMu.Unlock()
	}
	return nil
}

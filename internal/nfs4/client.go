package nfs4

import (
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/blockio"
	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/vfs"
)

// Options tunes the v4 client's caching, mirroring the v3 client's
// defaults so baseline comparisons are apples-to-apples.
type Options struct {
	BlockSize   int           // default 32 KiB
	CacheBytes  int64         // default 32 MiB
	AttrTimeout time.Duration // default 3 s
	UID, GID    uint32
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
	return o
}

// Client is a caching NFSv4 client. Unlike v3 it needs no separate
// MOUNT protocol: PUTROOTFH anchors every path traversal, and a whole
// path walk ships as a single COMPOUND round trip.
type Client struct {
	rpc *oncrpc.Client
	opt Options

	blocks *blockio.Cache // keyed by path

	mu    sync.Mutex
	attrs map[string]attrEntry // path -> attrs
}

type attrEntry struct {
	attr   nfs3.Fattr3
	expiry time.Time
}

// Dial connects and returns a v4 client.
func Dial(dial func() (net.Conn, error), opt Options) (*Client, error) {
	conn, err := dial()
	if err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	c := &Client{
		rpc:    oncrpc.NewClient(conn, Program, Version),
		opt:    opt,
		attrs:  make(map[string]attrEntry),
		blocks: blockio.NewCache(opt.CacheBytes),
	}
	cred, err := (&oncrpc.AuthSys{MachineName: "v4client", UID: opt.UID, GID: opt.GID}).Auth()
	if err != nil {
		conn.Close()
		return nil, err
	}
	c.rpc.SetCred(cred)
	// Probe the server.
	if _, err := c.compound(context.Background(), Op{Code: OpPutRootFH}, Op{Code: OpGetAttr}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("nfs4: initial compound: %w", err)
	}
	return c, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.rpc.Close() }

// compound executes ops and returns the results, converting a failed
// compound into an error carrying the failing status.
func (c *Client) compound(ctx context.Context, ops ...Op) ([]OpResult, error) {
	args := &CompoundArgs{Ops: ops}
	var res CompoundRes
	if err := c.rpc.Call(ctx, ProcCompound, args, &res); err != nil {
		return nil, err
	}
	if res.Status != nfs3.OK {
		return res.Results, res.Status.Error()
	}
	return res.Results, nil
}

// pathOps builds the op prefix that walks to path's final component.
func pathOps(path string) []Op {
	ops := []Op{{Code: OpPutRootFH}}
	for _, part := range splitPath(path) {
		ops = append(ops, Op{Code: OpLookup, Name: part})
	}
	return ops
}

// parentOps walks to path's parent and returns the leaf name.
func parentOps(path string) ([]Op, string, error) {
	parts := splitPath(path)
	if len(parts) == 0 {
		return nil, "", vfs.ErrInval
	}
	ops := []Op{{Code: OpPutRootFH}}
	for _, part := range parts[:len(parts)-1] {
		ops = append(ops, Op{Code: OpLookup, Name: part})
	}
	return ops, parts[len(parts)-1], nil
}

func splitPath(path string) []string {
	var parts []string
	for _, p := range strings.Split(path, "/") {
		if p != "" && p != "." {
			parts = append(parts, p)
		}
	}
	return parts
}

// Stat returns attributes for path, cached per AttrTimeout.
func (c *Client) Stat(ctx context.Context, path string) (nfs3.Fattr3, error) {
	c.mu.Lock()
	if e, ok := c.attrs[path]; ok && time.Now().Before(e.expiry) {
		c.mu.Unlock()
		return e.attr, nil
	}
	c.mu.Unlock()
	ops := append(pathOps(path), Op{Code: OpGetAttr})
	results, err := c.compound(ctx, ops...)
	if err != nil {
		return nfs3.Fattr3{}, err
	}
	attr := results[len(results)-1].Attr
	c.putAttr(path, attr)
	return attr, nil
}

func (c *Client) putAttr(path string, attr nfs3.Fattr3) {
	c.mu.Lock()
	c.attrs[path] = attrEntry{attr: attr, expiry: time.Now().Add(c.opt.AttrTimeout)}
	c.mu.Unlock()
}

func (c *Client) dropAttr(path string) {
	c.mu.Lock()
	delete(c.attrs, path)
	c.mu.Unlock()
}

// Mkdir creates a directory.
func (c *Client) Mkdir(ctx context.Context, path string, mode uint32) error {
	ops, name, err := parentOps(path)
	if err != nil {
		return err
	}
	ops = append(ops, Op{Code: OpCreate, Name: name, Dir: true, Attr: nfs3.Sattr3{SetMode: true, Mode: mode}})
	_, err = c.compound(ctx, ops...)
	return err
}

// Remove unlinks a file or empty directory.
func (c *Client) Remove(ctx context.Context, path string) error {
	ops, name, err := parentOps(path)
	if err != nil {
		return err
	}
	ops = append(ops, Op{Code: OpRemove, Name: name})
	c.dropAttr(path)
	c.blocks.DropFile(path)
	_, err = c.compound(ctx, ops...)
	return err
}

// Rename moves oldPath to newPath.
func (c *Client) Rename(ctx context.Context, oldPath, newPath string) error {
	srcOps, oldName, err := parentOps(oldPath)
	if err != nil {
		return err
	}
	dstOps, newName, err := parentOps(newPath)
	if err != nil {
		return err
	}
	ops := append(srcOps, Op{Code: OpSaveFH})
	ops = append(ops, dstOps...)
	ops = append(ops, Op{Code: OpRename, Name: oldName, Name2: newName})
	c.dropAttr(oldPath)
	c.dropAttr(newPath)
	c.blocks.DropFile(oldPath)
	_, err = c.compound(ctx, ops...)
	return err
}

// ReadDir lists a directory.
func (c *Client) ReadDir(ctx context.Context, path string) ([]nfs3.DirEntryPlus, error) {
	var out []nfs3.DirEntryPlus
	var cookie uint64
	for {
		ops := append(pathOps(path), Op{Code: OpReadDir, Cookie: cookie, Count: 256})
		results, err := c.compound(ctx, ops...)
		if err != nil {
			return nil, err
		}
		last := results[len(results)-1]
		out = append(out, last.Entries...)
		for _, e := range last.Entries {
			cookie = e.Cookie
		}
		if last.EOF || len(last.Entries) == 0 {
			return out, nil
		}
	}
}

// File is an open v4 file.
type File struct {
	c      *Client
	path   string
	fh     nfs3.FH3
	rd     *blockio.Reader
	blocks fileBlocks

	// flushing is held by the flush running now, so that two never race
	// different versions of one block to the server.
	flushing sync.Mutex

	mu   sync.Mutex
	size int64
}

// dirtyBytes is how much write-behind data a File holds before a write
// flushes it.
const dirtyBytes = 8 << 20

// OpenFile opens (optionally creating/truncating) path. A single
// COMPOUND performs the walk, open, and attribute fetch — v4's
// latency advantage over v3's per-component LOOKUPs.
func (c *Client) OpenFile(ctx context.Context, path string, create, trunc, excl bool) (*File, error) {
	ops, name, err := parentOps(path)
	if err != nil {
		return nil, err
	}
	open := Op{Code: OpOpen, Name: name, Create: create, Excl: excl}
	if trunc {
		open.Attr = nfs3.Sattr3{SetSize: true, Size: 0}
	}
	if create {
		open.Attr.SetMode = true
		open.Attr.Mode = 0644
	}
	ops = append(ops, open, Op{Code: OpGetFH})
	results, err := c.compound(ctx, ops...)
	if err != nil {
		return nil, err
	}
	openRes := results[len(results)-2]
	fhRes := results[len(results)-1]
	c.putAttr(path, openRes.Attr)
	if trunc {
		c.blocks.DropFile(path)
	}
	f := &File{c: c, path: path, fh: fhRes.FH, size: int64(openRes.Attr.Size)}
	f.blocks = fileBlocks{blockio.NewCache(dirtyBytes), f}
	f.rd = blockio.NewReader(f.blocks, c.opt.BlockSize, 0)
	return f, nil
}

// fileBlocks is a File's written blocks, keyed by handle, and its way
// to the server: the Source of its block reader, and the Store and
// Writer of its flushes. A written block stays in it, dirty, until a
// flush makes it durable and hands it to the client's path-keyed block
// cache; reads look here first, so write-behind data wins over that
// cache, and a miss sends READ.
type fileBlocks struct {
	*blockio.Cache
	f *File
}

func (s fileBlocks) GetBlock(fh nfs3.FH3, idx uint64) ([]byte, bool) {
	if block, ok := s.Cache.GetBlock(fh, idx); ok {
		return block, true
	}
	return s.f.c.blocks.Get(s.f.path, idx)
}

func (s fileBlocks) Contains(fh nfs3.FH3, idx uint64) bool {
	_, ok := s.GetBlock(fh, idx)
	return ok
}

func (s fileBlocks) FetchBlock(ctx context.Context, fh nfs3.FH3, idx uint64, fill blockio.Fill) ([]byte, error) {
	bs := uint64(s.f.c.opt.BlockSize)
	results, err := s.f.c.compound(ctx, Op{Code: OpPutFH, FH: fh}, Op{Code: OpRead, Offset: idx * bs, Count: uint32(bs)})
	if err != nil {
		return nil, err
	}
	s.f.c.blocks.Fill(s.f.path, idx, results[1].Data, fill)
	return results[1].Data, nil
}

// Size returns the locally known size.
func (f *File) Size() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// ReadAt reads from the file through the block cache.
func (f *File) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	size := f.Size()
	n, err := f.rd.ReadAt(ctx, f.fh, p, uint64(off), uint64(size))
	if err == nil && off+int64(n) >= size {
		err = io.EOF
	}
	return n, err
}

// WriteAt buffers the write (write-behind) and flushes at Close or
// once the file holds more than dirtyBytes of it.
func (f *File) WriteAt(ctx context.Context, p []byte, off int64) (int, error) {
	n, err := f.rd.WriteAt(ctx, f.fh, p, uint64(off), uint64(f.Size()), func(idx uint64, block []byte) error {
		over, err := f.blocks.Put(string(f.fh.Data), idx, block, true)
		if over {
			return f.Sync(ctx)
		}
		return err
	})
	f.mu.Lock()
	f.size = max(f.size, off+int64(n))
	f.mu.Unlock()
	return n, err
}

// Sync flushes dirty blocks with UNSTABLE writes then commits.
func (f *File) Sync(ctx context.Context) error {
	f.flushing.Lock()
	defer f.flushing.Unlock()
	_, err := blockio.Flush(ctx, blockio.ClientFlushWidth, f.blocks, []nfs3.FH3{f.fh}, f.blocks)
	return err
}

// WriteBlock sends one block. A v4 WRITE reply carries no commit level
// or verifier here, so every write waits for the COMMIT.
func (s fileBlocks) WriteBlock(ctx context.Context, fh nfs3.FH3, idx uint64, data []byte, stable uint32) (uint32, blockio.Verifier, error) {
	bs := uint64(s.f.c.opt.BlockSize)
	_, err := s.f.c.compound(ctx, Op{Code: OpPutFH, FH: fh}, Op{Code: OpWrite, Offset: idx * bs, Stable: stable, Data: data})
	return nfs3.Unstable, blockio.Verifier{}, err
}

func (s fileBlocks) Commit(ctx context.Context, fh nfs3.FH3) (blockio.Verifier, error) {
	_, err := s.f.c.compound(ctx, Op{Code: OpPutFH, FH: fh}, Op{Code: OpCommit})
	return blockio.Verifier{}, err
}

// FlushDone hands a block made durable to the path-keyed block cache.
func (s fileBlocks) FlushDone(fh nfs3.FH3, idx, ver uint64) {
	if block, v, ok := s.ReadVersion(fh, idx); ok && v == ver {
		if _, err := s.f.c.blocks.Put(s.f.path, idx, block, false); err != nil {
			s.f.c.blocks.Drop(s.f.path, idx) // no stale copy outlives a failed put
		}
	}
	s.Cache.FlushDone(fh, idx, ver)
}

// Close flushes and releases the file (CLOSE is stateless here).
func (f *File) Close(ctx context.Context) error {
	if err := f.Sync(ctx); err != nil {
		return err
	}
	_, err := f.c.compound(ctx, Op{Code: OpPutFH, FH: f.fh}, Op{Code: OpClose})
	f.c.dropAttr(f.path)
	return err
}

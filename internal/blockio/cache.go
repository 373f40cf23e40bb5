// Package blockio is the one block data path under the NFS client, the
// client proxy and the SFS and NFSv4 baselines. It maps byte ranges
// onto blocks, decides what gets prefetched and when a fetched block
// is too old to store (Reader, Fill), when a written block is durable
// and may be marked clean (Flush), and which block leaves the cache
// next (Cache). Callers supply what is theirs: where block bytes are
// kept, and how one block travels to or from the server.
package blockio

import (
	"container/list"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/nfs3"
)

// Files is where a Cache made by NewFileCache keeps its blocks' bytes:
// one BlockFile per cached file.
type Files interface {
	// Open returns the BlockFile of file, creating it. The Cache calls
	// it under its lock, when it stores the file's first block.
	Open(file string) (BlockFile, error)
}

// A BlockFile holds one file's blocks, block idx at idx times the
// block size. The Cache reads and writes it outside its lock, so a
// read or a write may follow a Remove; the Cache then discards it.
type BlockFile interface {
	io.ReaderAt
	io.WriterAt
	// Remove releases the file and its bytes.
	Remove()
}

// cachedFile is one file's blocks.
type cachedFile struct {
	name   string
	blocks map[uint64]*lruBlock
	bf     BlockFile // nil when the bytes are kept in memory
	puts   int       // puts writing to bf outside the lock
}

type lruBlock struct {
	f          *cachedFile
	index      uint64
	data       []byte // the bytes, when kept in memory
	size       int
	ver        uint64 // of the put the bytes came from
	dirty      bool
	prefetched bool // filled by a prefetch and not hit since
	elem       *list.Element
}

// CacheStats counts a Cache's activity.
type CacheStats struct {
	BlockHits, BlockMisses uint64
	// ReadaheadHits counts the first hit on each block a prefetch
	// filled.
	ReadaheadHits uint64
	// FlushedBytes counts the bytes FlushDone made clean, and
	// CancelledBytes the dirty bytes dropped before a flush.
	FlushedBytes, CancelledBytes uint64
	// LockWaits and LockWaitNanos count contended acquisitions of the
	// cache's lock and the time spent waiting for them.
	LockWaits, LockWaitNanos uint64
}

// Cache is every client's one block index: a byte-bounded LRU of file
// blocks. It models the client VM's limited buffer cache (the paper's
// client has 256 MB against a 512 MB IOzone file, so sequential reads
// always miss) and, over Files, the client proxy's disk cache. Only
// clean blocks are evicted: a dirty block stays until a Flush makes
// the version of it that it wrote durable (FlushDone), so a cache full
// of dirty blocks runs over capacity until its owner flushes.
//
// In memory, writers replace a block's data slice wholesale (copy, then
// Put), so data the cache hands out can be read lock-free while the
// cache keeps moving. Over Files, reads and puts move their bytes
// outside the lock, and a fill moves its bytes under it, only while no
// put to its file is in flight: a fill never overtakes a put's bytes.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	vers     uint64     // puts so far; each put's version
	lru      *list.List // front = most recent
	files    map[string]*cachedFile
	stats    CacheStats

	store Files // nil: the bytes are kept in memory
	bs    int64
}

// NewCache returns a cache bounded to capacity bytes of clean block
// data, which keeps the bytes in memory.
func NewCache(capacity int64) *Cache { return NewFileCache(capacity, 0, nil) }

// NewFileCache returns a cache like NewCache's that keeps the bytes of
// its blocks, blockSize bytes at most, in store's files.
func NewFileCache(capacity int64, blockSize int, store Files) *Cache {
	return &Cache{capacity: capacity, lru: list.New(), files: make(map[string]*cachedFile),
		store: store, bs: int64(blockSize)}
}

// lock takes c.mu, counting a contended acquisition and its wait.
func (c *Cache) lock() {
	if c.mu.TryLock() {
		return
	}
	start := time.Now()
	c.mu.Lock()
	c.stats.LockWaits++
	c.stats.LockWaitNanos += uint64(time.Since(start))
}

func (c *Cache) blockLocked(file string, index uint64) *lruBlock {
	if f := c.files[file]; f != nil {
		return f.blocks[index]
	}
	return nil
}

// GetBlock and Contains are Get and a lookup for a file keyed by its
// handle; they make a Cache the block store of a Source.
func (c *Cache) GetBlock(fh nfs3.FH3, index uint64) ([]byte, bool) {
	return c.Get(string(fh.Data), index)
}

// Contains reports whether the block is cached. It is not a use: the
// counters and the LRU stay as they were.
func (c *Cache) Contains(fh nfs3.FH3, index uint64) bool {
	c.lock()
	defer c.mu.Unlock()
	return c.blockLocked(string(fh.Data), index) != nil
}

// Get returns the block's data if cached.
func (c *Cache) Get(file string, index uint64) ([]byte, bool) {
	c.lock()
	b := c.blockLocked(file, index)
	if b == nil {
		c.stats.BlockMisses++
		c.mu.Unlock()
		return nil, false
	}
	c.stats.BlockHits++
	if b.prefetched {
		b.prefetched = false
		c.stats.ReadaheadHits++
	}
	c.lru.MoveToFront(b.elem)
	data, _, ok := c.readUnlock(b)
	return data, ok
}

// ReadVersion returns a block's data and the version of the put it came
// from, which FlushDone takes back. It is not a use: the block keeps
// its place in the LRU.
func (c *Cache) ReadVersion(fh nfs3.FH3, index uint64) ([]byte, uint64, bool) {
	c.lock()
	b := c.blockLocked(string(fh.Data), index)
	if b == nil {
		c.mu.Unlock()
		return nil, 0, false
	}
	return c.readUnlock(b)
}

// readUnlock unlocks c and returns b's bytes, read from its file after
// the unlock when they are not in memory, and their version.
func (c *Cache) readUnlock(b *lruBlock) ([]byte, uint64, bool) {
	data, ver, bf, size, off := b.data, b.ver, b.f.bf, b.size, int64(b.index)*c.bs
	c.mu.Unlock()
	if bf == nil {
		return data, ver, true
	}
	data = make([]byte, size)
	if _, err := bf.ReadAt(data, off); err != nil {
		return nil, 0, false
	}
	return data, ver, true
}

// fileLocked returns file's entry, made on its first block.
func (c *Cache) fileLocked(file string) (*cachedFile, error) {
	if f := c.files[file]; f != nil {
		return f, nil
	}
	f := &cachedFile{name: file, blocks: make(map[uint64]*lruBlock)}
	if c.store != nil {
		bf, err := c.store.Open(file)
		if err != nil {
			return nil, err
		}
		f.bf = bf
	}
	c.files[file] = f
	return f, nil
}

// Put inserts or replaces a block under a new version; dirty marks it
// written locally and not yet durable at the server. It reports whether
// the cache is over capacity with nothing clean left to evict, when
// only a flush can make room. A put that loses to a DropFile of its
// file stores nothing.
func (c *Cache) Put(file string, index uint64, data []byte, dirty bool) (bool, error) {
	c.lock()
	defer c.mu.Unlock()
	f, err := c.fileLocked(file)
	if err != nil {
		return false, err
	}
	size := len(data)
	if f.bf != nil {
		f.puts++
		c.mu.Unlock()
		_, err = f.bf.WriteAt(data, int64(index)*c.bs)
		c.lock()
		f.puts--
		if c.files[file] != f {
			return false, nil
		}
		if err != nil {
			c.closeIdleLocked(f)
			return false, fmt.Errorf("blockio: write block: %w", err)
		}
		data = nil
	}
	return c.putLocked(f, index, data, size, dirty, false), nil
}

// Fill stores a block fetched from the server, clean, under fill's rule
// (see Fill), and only while no put to the file is in flight, since a
// put's bytes are newer than any fill's. A fill that cannot be stored
// leaves the block to be fetched again.
func (c *Cache) Fill(file string, index uint64, data []byte, fill Fill) {
	c.lock()
	defer c.mu.Unlock()
	if f := c.files[file]; f != nil && (f.blocks[index] != nil || f.puts > 0) || fill.Stale() {
		return
	}
	f, err := c.fileLocked(file)
	if err != nil {
		return
	}
	size := len(data)
	if f.bf != nil {
		if _, err := f.bf.WriteAt(data, int64(index)*c.bs); err != nil {
			c.closeIdleLocked(f)
			return
		}
		data = nil
	}
	c.putLocked(f, index, data, size, false, fill.Prefetch)
}

func (c *Cache) putLocked(f *cachedFile, index uint64, data []byte, size int, dirty, prefetched bool) bool {
	c.vers++
	b := f.blocks[index]
	if b == nil {
		b = &lruBlock{f: f, index: index}
		b.elem = c.lru.PushFront(b)
		f.blocks[index] = b
	} else {
		c.lru.MoveToFront(b.elem)
	}
	c.used += int64(size - b.size)
	b.data, b.size, b.ver = data, size, c.vers
	b.dirty = b.dirty || dirty
	b.prefetched = prefetched
	return c.evictLocked()
}

// evictLocked drops clean blocks, least recent first, while used
// exceeds capacity, and reports whether it still does: then every
// block left is dirty.
func (c *Cache) evictLocked() bool {
	for e := c.lru.Back(); e != nil && c.used > c.capacity; {
		b := e.Value.(*lruBlock)
		e = e.Prev()
		if !b.dirty {
			c.removeLocked(b)
			c.closeIdleLocked(b.f)
		}
	}
	return c.used > c.capacity
}

// removeLocked drops b; a dirty b's bytes are cancelled.
func (c *Cache) removeLocked(b *lruBlock) {
	c.lru.Remove(b.elem)
	delete(b.f.blocks, b.index)
	c.used -= int64(b.size)
	if b.dirty {
		c.stats.CancelledBytes += uint64(b.size)
	}
}

// closeIdleLocked forgets f, and removes its BlockFile, once it holds
// no block and no put is writing to it.
func (c *Cache) closeIdleLocked(f *cachedFile) {
	if len(f.blocks) > 0 || f.puts > 0 || c.files[f.name] != f {
		return
	}
	delete(c.files, f.name)
	if f.bf != nil {
		f.bf.Remove()
	}
}

// DirtyList returns the dirty block indices of fh in ascending order
// (they stay dirty until FlushDone).
func (c *Cache) DirtyList(fh nfs3.FH3) []uint64 {
	c.lock()
	defer c.mu.Unlock()
	f := c.files[string(fh.Data)]
	if f == nil {
		return nil
	}
	var out []uint64
	for idx, b := range f.blocks {
		if b.dirty {
			out = append(out, idx)
		}
	}
	slices.Sort(out)
	return out
}

// FlushDone marks a block clean after a flush made version ver of it
// durable, unless a put has changed it since: the server holds older
// bytes, so the block stays dirty. Blocks made clean become evictable,
// so it trims the cache back to capacity.
func (c *Cache) FlushDone(fh nfs3.FH3, index, ver uint64) {
	c.lock()
	defer c.mu.Unlock()
	if b := c.blockLocked(string(fh.Data), index); b != nil && b.dirty && b.ver == ver {
		b.dirty = false
		c.stats.FlushedBytes += uint64(b.size)
		c.evictLocked()
	}
}

// DirtyFiles lists the files that have unwritten blocks.
func (c *Cache) DirtyFiles() []nfs3.FH3 {
	c.lock()
	defer c.mu.Unlock()
	var files []nfs3.FH3
	for name, f := range c.files {
		for _, b := range f.blocks {
			if b.dirty {
				files = append(files, nfs3.FH3{Data: []byte(name)})
				break
			}
		}
	}
	return files
}

// Drop removes one block, discarding it even if dirty.
func (c *Cache) Drop(file string, index uint64) {
	c.lock()
	defer c.mu.Unlock()
	if b := c.blockLocked(file, index); b != nil {
		c.removeLocked(b)
		c.closeIdleLocked(b.f)
	}
}

// DropFile removes all blocks of file, discarding dirty data (used when
// the file is removed before its data is written back), and its
// BlockFile. A put to the file in flight stores nothing.
func (c *Cache) DropFile(file string) {
	c.lock()
	f := c.files[file]
	if f != nil {
		for _, b := range f.blocks {
			c.removeLocked(b)
		}
		delete(c.files, file)
	}
	c.mu.Unlock()
	if f != nil && f.bf != nil {
		f.bf.Remove()
	}
}

// Close drops every block, dirty ones included, and removes their
// BlockFiles. It returns nil; it is an io.Closer for owners that keep
// one.
func (c *Cache) Close() error {
	c.lock()
	files := c.files
	c.files = make(map[string]*cachedFile)
	c.lru.Init()
	c.used = 0
	c.mu.Unlock()
	for _, f := range files {
		if f.bf != nil {
			f.bf.Remove()
		}
	}
	return nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	c.lock()
	defer c.mu.Unlock()
	return c.stats
}

// Used reports the bytes of the blocks held.
func (c *Cache) Used() int64 {
	c.lock()
	defer c.mu.Unlock()
	return c.used
}

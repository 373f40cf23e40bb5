// Package blockio is the one block data path under the NFS client, the
// client proxy and the SFS and NFSv4 baselines. It maps byte ranges
// onto blocks, decides what gets prefetched and when a fetched block
// is too old to store (Reader, Fill), when a written block is durable
// and may be marked clean (Flush), and which block leaves memory next
// (Cache). Callers supply what is theirs: where blocks are kept, and
// how one block travels to or from the server.
package blockio

import (
	"container/list"
	"sync"

	"repro/internal/nfs3"
)

type blockKey struct {
	file  string
	index uint64
}

type lruBlock struct {
	key   blockKey
	data  []byte
	ver   uint64 // of the put the data came from
	dirty bool
	elem  *list.Element
}

// Cache is a bounded in-memory LRU of file blocks, modelling the client
// VM's limited buffer cache (the paper's client has 256 MB against a
// 512 MB IOzone file, so sequential reads always miss). Only clean
// blocks are evicted: a dirty block stays until a Flush makes the
// version of it that it wrote durable (FlushDone), so a cache full of
// dirty blocks runs over capacity until its owner flushes. Writers
// replace a block's data slice wholesale (copy, then Put), so data the
// cache hands out can be read lock-free while the cache keeps moving.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	vers     uint64     // puts so far; each put's version
	lru      *list.List // front = most recent
	blocks   map[blockKey]*lruBlock

	hits, misses uint64
}

// NewCache returns a cache bounded to capacity bytes of clean block
// data.
func NewCache(capacity int64) *Cache {
	return &Cache{capacity: capacity, lru: list.New(), blocks: make(map[blockKey]*lruBlock)}
}

// GetBlock and Contains are Get for a file keyed by its handle; they
// make a Cache the block store of a Source.
func (c *Cache) GetBlock(fh nfs3.FH3, index uint64) ([]byte, bool) {
	return c.Get(string(fh.Data), index)
}

func (c *Cache) Contains(fh nfs3.FH3, index uint64) bool {
	_, ok := c.Get(string(fh.Data), index)
	return ok
}

// Get returns the block's data if cached.
func (c *Cache) Get(file string, index uint64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.blocks[blockKey{file, index}]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(b.elem)
	return b.data, true
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
		}
	}
	return c.used > c.capacity
}

func (c *Cache) removeLocked(b *lruBlock) {
	c.lru.Remove(b.elem)
	delete(c.blocks, b.key)
	c.used -= int64(len(b.data))
}

// Put inserts or replaces a block under a new version; dirty marks it
// written locally and not yet durable at the server. It reports whether
// the cache is over capacity with nothing clean left to evict, when
// only a flush can make room.
func (c *Cache) Put(file string, index uint64, data []byte, dirty bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.putLocked(blockKey{file, index}, data, dirty)
}

func (c *Cache) putLocked(k blockKey, data []byte, dirty bool) bool {
	c.vers++
	if b, ok := c.blocks[k]; ok {
		c.used += int64(len(data)) - int64(len(b.data))
		b.data, b.ver = data, c.vers
		b.dirty = b.dirty || dirty
		c.lru.MoveToFront(b.elem)
	} else {
		b := &lruBlock{key: k, data: data, ver: c.vers, dirty: dirty}
		b.elem = c.lru.PushFront(b)
		c.blocks[k] = b
		c.used += int64(len(data))
	}
	return c.evictLocked()
}

// Fill stores a block fetched from the server, clean, under fill's rule
// (see Fill).
func (c *Cache) Fill(file string, index uint64, data []byte, fill Fill) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := blockKey{file, index}
	if _, ok := c.blocks[k]; !ok && !fill.Stale() {
		c.putLocked(k, data, false)
	}
}

// ReadVersion returns a block's data and the version of the put it came
// from, which FlushDone takes back. It is not a use: the block keeps
// its place in the LRU.
func (c *Cache) ReadVersion(fh nfs3.FH3, index uint64) ([]byte, uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.blocks[blockKey{string(fh.Data), index}]
	if !ok {
		return nil, 0, false
	}
	return b.data, b.ver, true
}

// DirtyList returns the dirty block indices of fh, in no particular
// order (they stay dirty until FlushDone).
func (c *Cache) DirtyList(fh nfs3.FH3) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []uint64
	for k, b := range c.blocks {
		if k.file == string(fh.Data) && b.dirty {
			out = append(out, k.index)
		}
	}
	return out
}

// FlushDone marks a block clean after a flush made version ver of it
// durable, unless a put has changed it since: the server holds older
// bytes, so the block stays dirty. Blocks made clean become evictable,
// so it trims the cache back to capacity.
func (c *Cache) FlushDone(fh nfs3.FH3, index, ver uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.blocks[blockKey{string(fh.Data), index}]; ok && b.ver == ver {
		b.dirty = false
		c.evictLocked()
	}
}

// DirtyFiles lists the files that have unwritten blocks.
func (c *Cache) DirtyFiles() []nfs3.FH3 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var files []nfs3.FH3
	seen := map[string]bool{}
	for k, b := range c.blocks {
		if b.dirty && !seen[k.file] {
			seen[k.file] = true
			files = append(files, nfs3.FH3{Data: []byte(k.file)})
		}
	}
	return files
}

// Drop removes one block, discarding it even if dirty.
func (c *Cache) Drop(file string, index uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.blocks[blockKey{file, index}]; ok {
		c.removeLocked(b)
	}
}

// DropFile removes all blocks of file, discarding dirty data (used when
// the file is removed before its data is written back).
func (c *Cache) DropFile(file string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, b := range c.blocks {
		if k.file == file {
			c.removeLocked(b)
		}
	}
}

// Stats reports hit/miss counters and current occupancy.
func (c *Cache) Stats() (hits, misses uint64, used int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.used
}

// Package blockio is the one block data path under the NFS client, the
// client proxy and the SFS and NFSv4 baselines. It maps byte ranges
// onto blocks, decides what gets prefetched and when a fetched block
// is too old to store (Reader, Fill), when an UNSTABLE-written block is
// durable (Flush), and which block leaves memory next (Cache). Callers
// supply what is theirs: where blocks are kept, and how one block
// travels to or from the server.
package blockio

import (
	"container/list"
	"sync"

	"repro/internal/nfs3"
)

// Block is one file block by value. Writers replace a cached block's
// data slice wholesale (copy, then Put), so a Block the cache hands out
// can be read lock-free while the cache keeps moving.
type Block struct {
	File  string
	Index uint64
	Data  []byte
}

type blockKey struct {
	file  string
	index uint64
}

type lruBlock struct {
	key   blockKey
	data  []byte
	dirty bool
	elem  *list.Element
}

// Cache is a bounded in-memory LRU of file blocks, modelling the client
// VM's limited buffer cache (the paper's client has 256 MB against a
// 512 MB IOzone file, so sequential reads always miss). Clean blocks
// are evicted before dirty ones; a dirty block that must go is handed
// back to the caller to write out.
type Cache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	lru      *list.List // front = most recent
	blocks   map[blockKey]*lruBlock

	hits, misses uint64
}

// NewCache returns a cache bounded to capacity bytes of block data.
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

// evictLocked drops clean LRU blocks until used fits capacity,
// returning any dirty blocks that must be flushed by the caller (they
// are removed from the cache).
func (c *Cache) evictLocked() []Block {
	var dirty []Block
	for c.used > c.capacity {
		// Find the least-recent block (clean preferred).
		back := c.lru.Back()
		if back == nil {
			break
		}
		var victim *lruBlock
		for e := back; e != nil; e = e.Prev() {
			b := e.Value.(*lruBlock)
			if !b.dirty {
				victim = b
				break
			}
		}
		if victim == nil {
			victim = back.Value.(*lruBlock)
			dirty = append(dirty, Block{victim.key.file, victim.key.index, victim.data})
		}
		c.removeLocked(victim)
	}
	return dirty
}

func (c *Cache) removeLocked(b *lruBlock) {
	c.lru.Remove(b.elem)
	delete(c.blocks, b.key)
	c.used -= int64(len(b.data))
}

// Put inserts or replaces a block. It returns dirty blocks evicted to
// make room, which the caller must write back.
func (c *Cache) Put(file string, index uint64, data []byte, dirty bool) []Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.putLocked(blockKey{file, index}, data, dirty)
}

func (c *Cache) putLocked(k blockKey, data []byte, dirty bool) []Block {
	if b, ok := c.blocks[k]; ok {
		c.used += int64(len(data)) - int64(len(b.data))
		b.data = data
		b.dirty = b.dirty || dirty
		c.lru.MoveToFront(b.elem)
	} else {
		b := &lruBlock{key: k, data: data, dirty: dirty}
		b.elem = c.lru.PushFront(b)
		c.blocks[k] = b
		c.used += int64(len(data))
	}
	return c.evictLocked()
}

// Fill stores a block fetched from the server, clean, under fill's rule
// (see Fill). Like Put it returns dirty blocks evicted to make room.
func (c *Cache) Fill(file string, index uint64, data []byte, fill Fill) []Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := blockKey{file, index}
	if _, ok := c.blocks[k]; ok || fill.Stale() {
		return nil
	}
	return c.putLocked(k, data, false)
}

// DirtyBlocks returns (and cleans) snapshots of all dirty blocks of
// file, in no particular order.
func (c *Cache) DirtyBlocks(file string) []Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Block
	for k, b := range c.blocks {
		if k.file == file && b.dirty {
			b.dirty = false
			out = append(out, Block{k.file, k.index, b.data})
		}
	}
	return out
}

// Redirty puts back, dirty, a snapshot whose write-back failed —
// unless a newer write has made the block dirty again, in which case
// that data (merged over the snapshot's) stands. Like Put it returns
// dirty blocks evicted to make room.
func (c *Cache) Redirty(d Block) []Block {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := blockKey{d.File, d.Index}
	if b, ok := c.blocks[k]; ok && b.dirty {
		return nil
	}
	return c.putLocked(k, d.Data, true)
}

// DirtyFiles lists the files that have unwritten blocks.
func (c *Cache) DirtyFiles() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var files []string
	seen := map[string]bool{}
	for k, b := range c.blocks {
		if b.dirty && !seen[k.file] {
			seen[k.file] = true
			files = append(files, k.file)
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

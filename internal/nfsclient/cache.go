package nfsclient

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/nfs3"
)

// fhKey converts a file handle to a map key.
func fhKey(fh nfs3.FH3) string { return string(fh.Data) }

// attrCache caches file attributes with a freshness timeout, the way
// kernel NFS clients cache attributes between revalidations.
type attrCache struct {
	mu      sync.Mutex
	timeout time.Duration
	entries map[string]attrEntry
}

type attrEntry struct {
	attr   nfs3.Fattr3
	expiry time.Time
}

func newAttrCache(timeout time.Duration) *attrCache {
	return &attrCache{timeout: timeout, entries: make(map[string]attrEntry)}
}

// Get returns a cached attribute if still fresh.
func (c *attrCache) Get(fh nfs3.FH3) (nfs3.Fattr3, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[fhKey(fh)]
	if !ok || time.Now().After(e.expiry) {
		return nfs3.Fattr3{}, false
	}
	return e.attr, true
}

// Put caches an attribute.
func (c *attrCache) Put(fh nfs3.FH3, attr nfs3.Fattr3) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[fhKey(fh)] = attrEntry{attr: attr, expiry: time.Now().Add(c.timeout)}
}

// Update mutates a cached attribute in place (e.g. size growth under
// write-behind) without refreshing its expiry.
func (c *attrCache) Update(fh nfs3.FH3, f func(*nfs3.Fattr3)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[fhKey(fh)]; ok {
		f(&e.attr)
		c.entries[fhKey(fh)] = e
	}
}

// Invalidate drops one entry.
func (c *attrCache) Invalidate(fh nfs3.FH3) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.entries, fhKey(fh))
}

// nameCache is the directory-name lookup cache (DNLC).
type nameCache struct {
	mu      sync.Mutex
	timeout time.Duration
	entries map[nameKey]nameEntry
}

type nameKey struct {
	dir  string
	name string
}

type nameEntry struct {
	fh     nfs3.FH3
	expiry time.Time
}

func newNameCache(timeout time.Duration) *nameCache {
	return &nameCache{timeout: timeout, entries: make(map[nameKey]nameEntry)}
}

// Get returns a cached handle for (dir, name) if fresh.
func (c *nameCache) Get(dir nfs3.FH3, name string) (nfs3.FH3, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[nameKey{fhKey(dir), name}]
	if !ok || time.Now().After(e.expiry) {
		return nfs3.FH3{}, false
	}
	return e.fh, true
}

// Put caches a resolution.
func (c *nameCache) Put(dir nfs3.FH3, name string, fh nfs3.FH3) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries[nameKey{fhKey(dir), name}] = nameEntry{fh: fh, expiry: time.Now().Add(c.timeout)}
}

// Invalidate drops one resolution.
func (c *nameCache) Invalidate(dir nfs3.FH3, name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.entries, nameKey{fhKey(dir), name})
}

// blockKey identifies one page-cache block.
type blockKey struct {
	fh    string
	block uint64
}

// cacheBlock is one cached file block.
type cacheBlock struct {
	key   blockKey
	data  []byte
	dirty bool
	elem  *list.Element
}

// pageCache is a bounded LRU of file blocks, modelling the client VM's
// limited buffer cache (the paper's client has 256 MB against a 512 MB
// IOzone file, so sequential reads always miss).
type pageCache struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	lru      *list.List // front = most recent
	blocks   map[blockKey]*cacheBlock

	hits, misses uint64
}

func newPageCache(capacity int64) *pageCache {
	return &pageCache{capacity: capacity, lru: list.New(), blocks: make(map[blockKey]*cacheBlock)}
}

// Get returns the block's data if cached.
func (c *pageCache) Get(fh nfs3.FH3, block uint64) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.blocks[blockKey{fhKey(fh), block}]
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
func (c *pageCache) evictLocked() []*cacheBlock {
	var dirty []*cacheBlock
	for c.used > c.capacity {
		// Find the least-recent block (clean preferred).
		back := c.lru.Back()
		if back == nil {
			break
		}
		var victim *cacheBlock
		for e := back; e != nil; e = e.Prev() {
			b := e.Value.(*cacheBlock)
			if !b.dirty {
				victim = b
				break
			}
		}
		if victim == nil {
			victim = back.Value.(*cacheBlock)
			dirty = append(dirty, victim)
		}
		c.lru.Remove(victim.elem)
		delete(c.blocks, victim.key)
		c.used -= int64(len(victim.data))
	}
	return dirty
}

// Put inserts or replaces a block. It returns dirty blocks evicted to
// make room, which the caller must write back.
func (c *pageCache) Put(fh nfs3.FH3, block uint64, data []byte, dirty bool) []*cacheBlock {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.putLocked(blockKey{fhKey(fh), block}, data, dirty)
}

func (c *pageCache) putLocked(k blockKey, data []byte, dirty bool) []*cacheBlock {
	if b, ok := c.blocks[k]; ok {
		c.used += int64(len(data)) - int64(len(b.data))
		b.data = data
		b.dirty = b.dirty || dirty
		c.lru.MoveToFront(b.elem)
	} else {
		b := &cacheBlock{key: k, data: data, dirty: dirty}
		b.elem = c.lru.PushFront(b)
		c.blocks[k] = b
		c.used += int64(len(data))
	}
	return c.evictLocked()
}

// dirtyBlock is one dirty block snapshotted under the cache lock. The
// key and the data header are immutable copies: writers replace a
// block's data slice wholesale (writeCached copies before Put, Put
// swaps the header under mu), so the snapshot can be read lock-free
// after DirtyBlocks returns, while the live *cacheBlock keeps moving.
type dirtyBlock struct {
	key  blockKey
	data []byte
}

// DirtyBlocks returns (and cleans) snapshots of all dirty blocks for
// fh, ordered by block number by the caller if needed.
func (c *pageCache) DirtyBlocks(fh nfs3.FH3) []dirtyBlock {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := fhKey(fh)
	var out []dirtyBlock
	for k, b := range c.blocks {
		if k.fh == key && b.dirty {
			b.dirty = false
			out = append(out, dirtyBlock{key: k, data: b.data})
		}
	}
	return out
}

// Redirty puts back, dirty, a snapshot whose write-back failed —
// unless a newer write has made the block dirty again, in which case
// that data (merged over the snapshot's) stands. Like Put it returns
// dirty blocks evicted to make room.
func (c *pageCache) Redirty(d dirtyBlock) []*cacheBlock {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.blocks[d.key]; ok && b.dirty {
		return nil
	}
	return c.putLocked(d.key, d.data, true)
}

// DropFile removes all blocks of fh, discarding dirty data (used when
// the file is removed before its data is written back).
func (c *pageCache) DropFile(fh nfs3.FH3) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := fhKey(fh)
	for k, b := range c.blocks {
		if k.fh == key {
			c.lru.Remove(b.elem)
			delete(c.blocks, k)
			c.used -= int64(len(b.data))
		}
	}
}

// HasDirty reports whether fh has unwritten blocks.
func (c *pageCache) HasDirty(fh nfs3.FH3) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := fhKey(fh)
	for k, b := range c.blocks {
		if k.fh == key && b.dirty {
			return true
		}
	}
	return false
}

// Stats reports hit/miss counters and current occupancy.
func (c *pageCache) Stats() (hits, misses uint64, used int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.used
}

// Package cache implements the SGFS client-side proxy's disk cache:
// the mechanism behind the paper's WAN results (Figures 8-10). File
// blocks are cached in files under a local cache directory, so the
// cache can hold working sets far larger than client memory;
// attributes and access decisions are cached for the lifetime of the
// session (the paper's experiments dedicate a file system session to a
// single user or job, §6.1).
//
// Writes are absorbed locally (write-back): the proxy acknowledges
// them once they are in the disk cache, and dirty blocks flow to the
// server on Flush — typically at session close. Dirty blocks of a file
// that is removed before the flush are cancelled, which is how the
// Seismic benchmark's temporary outputs never cross the WAN (§6.3.2).
//
// The cache is sharded by file handle: each shard has its own mutex,
// block/attr/access maps, and LRU list, so concurrent requests for
// unrelated files (the pipelined flush workers, the readahead pool,
// and foreground NFS traffic) do not serialize on one global lock.
// Block file pread/pwrite syscalls happen outside the shard lock, but
// for a block fetched from the server: it is written under the lock, so
// that it cannot overtake a local write. Capacity is accounted
// globally — a single hot file may use the whole budget — and each
// shard evicts its own clean LRU blocks while the global total is over
// capacity.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockio"
	"repro/internal/nfs3"
)

// shardCount is the number of independent cache shards. Handles are
// distributed by FNV-1a, so any workload touching more than a handful
// of files spreads across locks.
const shardCount = 16

// DiskCache is a block/attribute/access cache backed by a directory.
// It is safe for concurrent use.
type DiskCache struct {
	dir       string
	blockSize int
	capacity  int64
	used      atomic.Int64

	shards [shardCount]cacheShard
}

// cacheShard holds the metadata for one slice of the handle space.
type cacheShard struct {
	mu     sync.Mutex
	files  map[string]*cacheFile
	lru    *list.List // *blockMeta, front = most recent
	attrs  map[string]nfs3.Fattr3
	access map[string]uint32 // fh -> granted mask for the session user
	stats  Stats
	vers   uint64 // last block version handed out

	lockWaits  atomic.Uint64
	lockWaitNs atomic.Int64
}

// lock acquires the shard mutex, counting contended acquisitions and
// the time spent waiting so the sharding's effect is observable in
// Stats.
func (s *cacheShard) lock() {
	if s.mu.TryLock() {
		return
	}
	start := time.Now()
	s.mu.Lock()
	s.lockWaits.Add(1)
	s.lockWaitNs.Add(time.Since(start).Nanoseconds())
}

func (s *cacheShard) unlock() { s.mu.Unlock() }

// Stats counts cache activity.
type Stats struct {
	BlockHits      uint64
	BlockMisses    uint64
	AttrHits       uint64
	AttrMisses     uint64
	AccessHits     uint64
	AccessMisses   uint64
	FlushedBytes   uint64
	CancelledBytes uint64
	// ReadaheadHits counts GetBlock hits whose block was brought in by
	// the proxy's readahead rather than by demand fetch.
	ReadaheadHits uint64
	// LockWaits and LockWaitNanos count contended shard-lock
	// acquisitions and the total time spent waiting for them.
	LockWaits     uint64
	LockWaitNanos uint64
}

type cacheFile struct {
	path   string
	f      *os.File
	blocks map[uint64]*blockMeta
	puts   int // puts writing their bytes outside the shard lock
}

type blockMeta struct {
	fh         string
	idx        uint64
	len        int
	ver        uint64 // the shard's count at the block's latest put
	dirty      bool
	prefetched bool // brought in by readahead; cleared on first hit
	elem       *list.Element
}

// New creates a disk cache in dir (created if absent) with the given
// block size and capacity in bytes.
func New(dir string, blockSize int, capacity int64) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0700); err != nil {
		return nil, fmt.Errorf("cache: create dir: %w", err)
	}
	c := &DiskCache{dir: dir, blockSize: blockSize, capacity: capacity}
	for i := range c.shards {
		s := &c.shards[i]
		s.files = make(map[string]*cacheFile)
		s.lru = list.New()
		s.attrs = make(map[string]nfs3.Fattr3)
		s.access = make(map[string]uint32)
	}
	return c, nil
}

// BlockSize returns the configured block size.
func (c *DiskCache) BlockSize() int { return c.blockSize }

// shard maps a file-handle key to its shard.
func (c *DiskCache) shard(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()%shardCount]
}

func fhName(fh string) string {
	sum := sha256.Sum256([]byte(fh))
	return hex.EncodeToString(sum[:16]) + ".blk"
}

// fileLocked returns (opening or creating) the cache file for fh; the
// caller holds s's lock.
func (c *DiskCache) fileLocked(s *cacheShard, fh string, create bool) (*cacheFile, error) {
	if cf, ok := s.files[fh]; ok {
		return cf, nil
	}
	if !create {
		return nil, nil
	}
	path := filepath.Join(c.dir, fhName(fh))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0600)
	if err != nil {
		return nil, fmt.Errorf("cache: open block file: %w", err)
	}
	cf := &cacheFile{path: path, f: f, blocks: make(map[uint64]*blockMeta)}
	s.files[fh] = cf
	return cf, nil
}

// GetBlock returns the cached block data, or ok=false on a miss.
func (c *DiskCache) GetBlock(fh nfs3.FH3, idx uint64) ([]byte, bool) {
	data, _, ok := c.ReadVersion(fh, idx)
	return data, ok
}

// ReadVersion is GetBlock that also returns the version of the put the
// block's metadata came from; FlushDone takes it back.
func (c *DiskCache) ReadVersion(fh nfs3.FH3, idx uint64) ([]byte, uint64, bool) {
	key := string(fh.Data)
	s := c.shard(key)
	s.lock()
	cf := s.files[key]
	if cf == nil {
		s.stats.BlockMisses++
		s.unlock()
		return nil, 0, false
	}
	bm, ok := cf.blocks[idx]
	if !ok {
		s.stats.BlockMisses++
		s.unlock()
		return nil, 0, false
	}
	s.stats.BlockHits++
	if bm.prefetched {
		bm.prefetched = false
		s.stats.ReadaheadHits++
	}
	s.lru.MoveToFront(bm.elem)
	length, ver := bm.len, bm.ver
	f := cf.f
	s.unlock()

	// Read outside the lock; block files are never shrunk so the
	// offset is stable (the file may be deleted concurrently by
	// DropFile/Close, in which case the open descriptor still serves
	// the data).
	buf := make([]byte, length)
	if _, err := f.ReadAt(buf, int64(idx)*int64(c.blockSize)); err != nil {
		return nil, 0, false
	}
	return buf, ver, true
}

// Contains reports whether the block is cached, without touching hit
// statistics, the LRU, or the prefetched flag. The readahead machinery
// uses it to skip blocks already present.
func (c *DiskCache) Contains(fh nfs3.FH3, idx uint64) bool {
	key := string(fh.Data)
	s := c.shard(key)
	s.lock()
	defer s.unlock()
	cf := s.files[key]
	if cf == nil {
		return false
	}
	_, ok := cf.blocks[idx]
	return ok
}

// PutBlock stores block data. dirty marks it as written locally and
// not yet on the server. Eviction discards clean blocks only; dirty
// blocks are pinned until flushed or cancelled (the cache directory is
// the stable store backing the proxy's write-back guarantee).
func (c *DiskCache) PutBlock(fh nfs3.FH3, idx uint64, data []byte, dirty bool) error {
	return c.putBlock(fh, idx, data, dirty, nil)
}

// PutFetched stores a clean block fetched from the server under fill's
// rule (blockio.Fill). A prefetched block is marked so that its first
// demand hit is counted in Stats.ReadaheadHits.
func (c *DiskCache) PutFetched(fh nfs3.FH3, idx uint64, data []byte, fill blockio.Fill) error {
	return c.putBlock(fh, idx, data, false, &fill)
}

func (c *DiskCache) putBlock(fh nfs3.FH3, idx uint64, data []byte, dirty bool, fill *blockio.Fill) error {
	key := string(fh.Data)
	off := int64(idx) * int64(c.blockSize)
	s := c.shard(key)
	s.lock()
	defer s.unlock()
	if cf := s.files[key]; fill != nil && (cf != nil && (cf.blocks[idx] != nil || cf.puts > 0) || fill.Stale()) {
		return nil
	}
	cf, err := c.fileLocked(s, key, true)
	if err != nil {
		return err
	}
	var werr error
	if fill != nil {
		// A fill writes under the lock, and only with no put to the
		// file in flight, so that it cannot overtake a put's bytes.
		_, werr = cf.f.WriteAt(data, off)
	} else {
		// Write outside the lock; block files are never shrunk so the
		// offset is stable.
		cf.puts++
		s.unlock()
		_, werr = cf.f.WriteAt(data, off)
		s.lock()
		cf.puts--
		if s.files[key] != cf {
			// DropFile ran while the lock was released: the file, and
			// this put with it, are gone (its WriteAt may have failed
			// on the closed descriptor).
			return nil
		}
	}
	if werr != nil {
		return fmt.Errorf("cache: write block: %w", werr)
	}
	s.vers++
	if bm, ok := cf.blocks[idx]; ok {
		c.used.Add(int64(len(data)) - int64(bm.len))
		bm.len = len(data)
		bm.ver = s.vers
		bm.dirty = bm.dirty || dirty
		// A local write over a prefetched block ends its life as a
		// readahead block.
		bm.prefetched = false
		s.lru.MoveToFront(bm.elem)
	} else {
		prefetched := fill != nil && fill.Prefetch
		bm := &blockMeta{fh: key, idx: idx, len: len(data), ver: s.vers, dirty: dirty, prefetched: prefetched}
		bm.elem = s.lru.PushFront(bm)
		cf.blocks[idx] = bm
		c.used.Add(int64(len(data)))
	}
	c.evictLocked(s)
	return nil
}

// evictLocked drops this shard's clean LRU blocks while the cache as a
// whole is over capacity. Capacity is global, so a shard holding no
// clean blocks leaves eviction to the shards where insertions (and
// thus growth) are happening.
func (c *DiskCache) evictLocked(s *cacheShard) {
	for c.used.Load() > c.capacity {
		var victim *blockMeta
		for e := s.lru.Back(); e != nil; e = e.Prev() {
			bm := e.Value.(*blockMeta)
			if !bm.dirty {
				victim = bm
				break
			}
		}
		if victim == nil {
			return // everything here dirty; over-capacity until flush
		}
		c.removeBlockLocked(s, victim)
	}
}

func (c *DiskCache) removeBlockLocked(s *cacheShard, bm *blockMeta) {
	s.lru.Remove(bm.elem)
	if cf := s.files[bm.fh]; cf != nil && cf.blocks[bm.idx] == bm {
		delete(cf.blocks, bm.idx)
	}
	c.used.Add(-int64(bm.len))
}

// DirtyList returns the dirty block indices of fh in ascending order
// (they stay dirty until FlushDone).
func (c *DiskCache) DirtyList(fh nfs3.FH3) []uint64 {
	key := string(fh.Data)
	s := c.shard(key)
	s.lock()
	defer s.unlock()
	cf := s.files[key]
	if cf == nil {
		return nil
	}
	var out []uint64
	for idx, bm := range cf.blocks {
		if bm.dirty {
			out = append(out, idx)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DirtyFiles returns the handles of all files with dirty blocks.
func (c *DiskCache) DirtyFiles() []nfs3.FH3 {
	var out []nfs3.FH3
	for i := range c.shards {
		s := &c.shards[i]
		s.lock()
		for key, cf := range s.files {
			for _, bm := range cf.blocks {
				if bm.dirty {
					out = append(out, nfs3.FH3{Data: []byte(key)})
					break
				}
			}
		}
		s.unlock()
	}
	return out
}

// AttrFiles returns every handle with cached attributes, in no
// particular order. Revalidation sweeps use it to enumerate what the
// session believes it knows.
func (c *DiskCache) AttrFiles() []nfs3.FH3 {
	var out []nfs3.FH3
	for i := range c.shards {
		s := &c.shards[i]
		s.lock()
		for key := range s.attrs {
			out = append(out, nfs3.FH3{Data: []byte(key)})
		}
		s.unlock()
	}
	return out
}

// FlushDone marks a block clean after it reached the server, unless a
// put has changed it since ReadVersion returned version ver: the
// server holds the older bytes, so the block stays dirty.
func (c *DiskCache) FlushDone(fh nfs3.FH3, idx, ver uint64) {
	key := string(fh.Data)
	s := c.shard(key)
	s.lock()
	defer s.unlock()
	if cf := s.files[key]; cf != nil {
		if bm, ok := cf.blocks[idx]; ok && bm.dirty && bm.ver == ver {
			bm.dirty = false
			s.stats.FlushedBytes += uint64(bm.len)
		}
	}
}

// DropFile discards every cached block of fh (dirty included) and
// deletes its backing file. Used when the file is removed: pending
// write-back is cancelled.
func (c *DiskCache) DropFile(fh nfs3.FH3) {
	key := string(fh.Data)
	s := c.shard(key)
	s.lock()
	cf := s.files[key]
	if cf != nil {
		for _, bm := range cf.blocks {
			if bm.dirty {
				s.stats.CancelledBytes += uint64(bm.len)
			}
			s.lru.Remove(bm.elem)
			c.used.Add(-int64(bm.len))
		}
		delete(s.files, key)
	}
	delete(s.attrs, key)
	delete(s.access, key)
	s.unlock()
	if cf != nil {
		cf.f.Close()
		os.Remove(cf.path)
	}
}

// GetAttr returns cached attributes.
func (c *DiskCache) GetAttr(fh nfs3.FH3) (nfs3.Fattr3, bool) {
	key := string(fh.Data)
	s := c.shard(key)
	s.lock()
	defer s.unlock()
	a, ok := s.attrs[key]
	if ok {
		s.stats.AttrHits++
	} else {
		s.stats.AttrMisses++
	}
	return a, ok
}

// PutAttr caches attributes for the session.
func (c *DiskCache) PutAttr(fh nfs3.FH3, a nfs3.Fattr3) {
	key := string(fh.Data)
	s := c.shard(key)
	s.lock()
	defer s.unlock()
	s.attrs[key] = a
}

// UpdateAttr mutates cached attributes if present.
func (c *DiskCache) UpdateAttr(fh nfs3.FH3, f func(*nfs3.Fattr3)) {
	key := string(fh.Data)
	s := c.shard(key)
	s.lock()
	defer s.unlock()
	if a, ok := s.attrs[key]; ok {
		f(&a)
		s.attrs[key] = a
	}
}

// InvalidateAttr drops cached attributes.
func (c *DiskCache) InvalidateAttr(fh nfs3.FH3) {
	key := string(fh.Data)
	s := c.shard(key)
	s.lock()
	defer s.unlock()
	delete(s.attrs, key)
}

// GetAccess returns the cached ACCESS grant for fh.
func (c *DiskCache) GetAccess(fh nfs3.FH3) (uint32, bool) {
	key := string(fh.Data)
	s := c.shard(key)
	s.lock()
	defer s.unlock()
	g, ok := s.access[key]
	if ok {
		s.stats.AccessHits++
	} else {
		s.stats.AccessMisses++
	}
	return g, ok
}

// PutAccess caches an ACCESS grant.
func (c *DiskCache) PutAccess(fh nfs3.FH3, granted uint32) {
	key := string(fh.Data)
	s := c.shard(key)
	s.lock()
	defer s.unlock()
	s.access[key] = granted
}

// Stats returns a snapshot of the counters, aggregated across shards.
func (c *DiskCache) Stats() Stats {
	var total Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.lock()
		st := s.stats
		s.unlock()
		total.BlockHits += st.BlockHits
		total.BlockMisses += st.BlockMisses
		total.AttrHits += st.AttrHits
		total.AttrMisses += st.AttrMisses
		total.AccessHits += st.AccessHits
		total.AccessMisses += st.AccessMisses
		total.FlushedBytes += st.FlushedBytes
		total.CancelledBytes += st.CancelledBytes
		total.ReadaheadHits += st.ReadaheadHits
		total.LockWaits += s.lockWaits.Load()
		total.LockWaitNanos += uint64(s.lockWaitNs.Load())
	}
	return total
}

// Used reports current cached bytes.
func (c *DiskCache) Used() int64 { return c.used.Load() }

// Close releases all backing files and removes the cache directory
// contents.
func (c *DiskCache) Close() error {
	var files []*cacheFile
	for i := range c.shards {
		s := &c.shards[i]
		s.lock()
		for _, cf := range s.files {
			files = append(files, cf)
		}
		s.files = make(map[string]*cacheFile)
		s.lru.Init()
		s.unlock()
	}
	c.used.Store(0)
	for _, cf := range files {
		cf.f.Close()
		os.Remove(cf.path)
	}
	return nil
}

// The disk cache is a store the flush engine drains.
var _ blockio.Store = (*DiskCache)(nil)

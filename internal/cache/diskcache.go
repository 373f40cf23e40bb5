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
// The block index — LRU, versions, dirty pinning, eviction and the
// order of fills against puts — is blockio.Cache's; this package
// keeps the directory, one block file per handle, and the session's
// attribute and access maps.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/blockio"
	"repro/internal/nfs3"
)

// DiskCache is a block/attribute/access cache backed by a directory.
// It is safe for concurrent use.
type DiskCache struct {
	*blockio.Cache
	blockSize int

	mu     sync.Mutex
	attrs  map[string]nfs3.Fattr3
	access map[string]uint32 // fh -> granted mask for the session user
	counts Stats             // the attribute and access counters
}

// Stats counts cache activity.
type Stats struct {
	blockio.CacheStats
	AttrHits     uint64
	AttrMisses   uint64
	AccessHits   uint64
	AccessMisses uint64
}

// New creates a disk cache in dir (created if absent) with the given
// block size and capacity in bytes.
func New(dir string, blockSize int, capacity int64) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0700); err != nil {
		return nil, fmt.Errorf("cache: create dir: %w", err)
	}
	return &DiskCache{
		Cache:     blockio.NewFileCache(capacity, blockSize, blockDir(dir)),
		blockSize: blockSize,
		attrs:     make(map[string]nfs3.Fattr3),
		access:    make(map[string]uint32),
	}, nil
}

// blockDir keeps each handle's blocks in a file of its own under a
// directory.
type blockDir string

func (d blockDir) Open(fh string) (blockio.BlockFile, error) {
	sum := sha256.Sum256([]byte(fh))
	path := filepath.Join(string(d), hex.EncodeToString(sum[:16])+".blk")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0600)
	if err != nil {
		return nil, fmt.Errorf("cache: open block file: %w", err)
	}
	return blockFile{f}, nil
}

// blockFile is one handle's block file.
type blockFile struct{ *os.File }

// Remove closes and deletes the file. Errors leave at worst an orphan
// file in the cache directory.
func (f blockFile) Remove() {
	f.Close()
	os.Remove(f.Name())
}

// BlockSize returns the configured block size.
func (c *DiskCache) BlockSize() int { return c.blockSize }

// PutBlock stores block data. dirty marks it as written locally and
// not yet on the server. Eviction discards clean blocks only; dirty
// blocks are pinned until flushed or cancelled (the cache directory is
// the stable store backing the proxy's write-back guarantee).
func (c *DiskCache) PutBlock(fh nfs3.FH3, idx uint64, data []byte, dirty bool) error {
	_, err := c.Put(string(fh.Data), idx, data, dirty)
	return err
}

// DropFile discards every cached block of fh (dirty included), its
// block file, and its attributes and access grant. Used when the file
// is removed: pending write-back is cancelled.
func (c *DiskCache) DropFile(fh nfs3.FH3) {
	key := string(fh.Data)
	c.Cache.DropFile(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.attrs, key)
	delete(c.access, key)
}

// AttrFiles returns every handle with cached attributes, in no
// particular order. Revalidation sweeps use it to enumerate what the
// session believes it knows.
func (c *DiskCache) AttrFiles() []nfs3.FH3 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]nfs3.FH3, 0, len(c.attrs))
	for key := range c.attrs {
		out = append(out, nfs3.FH3{Data: []byte(key)})
	}
	return out
}

// GetAttr returns cached attributes.
func (c *DiskCache) GetAttr(fh nfs3.FH3) (nfs3.Fattr3, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.attrs[string(fh.Data)]
	if ok {
		c.counts.AttrHits++
	} else {
		c.counts.AttrMisses++
	}
	return a, ok
}

// PutAttr caches attributes for the session.
func (c *DiskCache) PutAttr(fh nfs3.FH3, a nfs3.Fattr3) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attrs[string(fh.Data)] = a
}

// UpdateAttr mutates cached attributes if present.
func (c *DiskCache) UpdateAttr(fh nfs3.FH3, f func(*nfs3.Fattr3)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a, ok := c.attrs[string(fh.Data)]; ok {
		f(&a)
		c.attrs[string(fh.Data)] = a
	}
}

// InvalidateAttr drops cached attributes.
func (c *DiskCache) InvalidateAttr(fh nfs3.FH3) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.attrs, string(fh.Data))
}

// GetAccess returns the cached ACCESS grant for fh.
func (c *DiskCache) GetAccess(fh nfs3.FH3) (uint32, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	g, ok := c.access[string(fh.Data)]
	if ok {
		c.counts.AccessHits++
	} else {
		c.counts.AccessMisses++
	}
	return g, ok
}

// PutAccess caches an ACCESS grant.
func (c *DiskCache) PutAccess(fh nfs3.FH3, granted uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.access[string(fh.Data)] = granted
}

// Stats returns a snapshot of the counters.
func (c *DiskCache) Stats() Stats {
	c.mu.Lock()
	st := c.counts
	c.mu.Unlock()
	st.CacheStats = c.Cache.Stats()
	return st
}

// The disk cache is a store the flush engine drains.
var _ blockio.Store = (*DiskCache)(nil)

package nfsclient

import (
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

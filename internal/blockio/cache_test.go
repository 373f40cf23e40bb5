package blockio_test

import (
	"bytes"
	"testing"

	"repro/internal/blockio"
	"repro/internal/cache"
	"repro/internal/nfs3"
)

// byteStores are the places a Cache keeps its blocks' bytes: memory,
// and the disk cache's block files.
var byteStores = []struct {
	name string
	new  func(t *testing.T, capacity int64) *blockio.Cache
}{
	{"memory", func(_ *testing.T, capacity int64) *blockio.Cache { return blockio.NewCache(capacity) }},
	{"file", func(t *testing.T, capacity int64) *blockio.Cache {
		dc, err := cache.New(t.TempDir(), 1024, capacity)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { dc.Close() })
		return dc.Cache
	}},
}

// eachStore runs test once over each byte store, with a way to make a
// Cache of capacity bytes over it.
func eachStore(t *testing.T, test func(t *testing.T, newCache func(capacity int64) *blockio.Cache)) {
	for _, s := range byteStores {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			test(t, func(capacity int64) *blockio.Cache { return s.new(t, capacity) })
		})
	}
}

func fh(s string) nfs3.FH3 { return nfs3.FH3{Data: []byte(s)} }

// put is Cache.Put for a put that must not fail.
func put(t *testing.T, c *blockio.Cache, file string, index uint64, data string, dirty bool) bool {
	t.Helper()
	over, err := c.Put(file, index, []byte(data), dirty)
	if err != nil {
		t.Fatal(err)
	}
	return over
}

// flushDone marks a block clean as a flush that read it now would.
func flushDone(c *blockio.Cache, f nfs3.FH3, idx uint64) {
	_, ver, _ := c.ReadVersion(f, idx)
	c.FlushDone(f, idx, ver)
}

// TestCacheEvictsCleanBeforeDirty: under pressure the least recent
// clean block goes first, and a dirty block never goes: once nothing
// clean is left the cache runs over capacity, and Put says so. A
// Contains is not a use: it counts nothing and moves nothing up the
// LRU.
func TestCacheEvictsCleanBeforeDirty(t *testing.T) {
	eachStore(t, func(t *testing.T, newCache func(int64) *blockio.Cache) {
		c := newCache(3)
		if put(t, c, "f", 0, "d", true) {
			t.Fatal("an empty cache reports pressure")
		}
		put(t, c, "f", 1, "c", false)
		put(t, c, "f", 2, "c", false)
		if !c.Contains(fh("f"), 1) || c.Contains(fh("f"), 9) {
			t.Fatal("Contains is wrong about which blocks are held")
		}
		if st := c.Stats(); st.BlockHits != 0 || st.BlockMisses != 0 {
			t.Fatalf("Contains counted %d hits and %d misses", st.BlockHits, st.BlockMisses)
		}
		if put(t, c, "f", 3, "c", false) {
			t.Fatal("pressure reported while clean blocks remained")
		}
		if _, ok := c.Get("f", 1); ok {
			t.Error("least recent clean block survived")
		}
		if _, ok := c.Get("f", 0); !ok {
			t.Error("dirty block evicted before a clean one")
		}
		put(t, c, "g", 0, "d", true)
		put(t, c, "g", 1, "d", true)
		if !put(t, c, "g", 2, "d", true) {
			t.Fatal("no pressure reported with every block dirty and the cache over capacity")
		}
		for _, k := range []struct {
			file  string
			index uint64
		}{{"f", 0}, {"g", 0}, {"g", 1}, {"g", 2}} {
			if _, ok := c.Get(k.file, k.index); !ok {
				t.Errorf("dirty block %v evicted", k)
			}
		}
		if used := c.Used(); used != 4 {
			t.Errorf("used = %d, want the 4 dirty bytes", used)
		}
		if c.Fill("g", 3, []byte("c"), blockio.Fill{}); c.Contains(fh("g"), 3) {
			t.Error("a fill into a cache full of dirty blocks was kept")
		}
	})
}

// TestCacheDirtyLifecycle: a dirty block stays dirty until FlushDone
// names the version it holds; a stale version leaves it dirty, the
// current one cleans it and trims the cache to capacity; Drop and
// DropFile discard dirty data.
func TestCacheDirtyLifecycle(t *testing.T) {
	eachStore(t, func(t *testing.T, newCache func(int64) *blockio.Cache) {
		a, b := fh("a"), fh("b")
		c := newCache(4)
		put(t, c, "a", 1, "a1", true)
		put(t, c, "a", 0, "a0", true)
		put(t, c, "a", 2, "clean", false) // evicted at once: all else is dirty
		put(t, c, "b", 0, "b0", true)
		if files := c.DirtyFiles(); len(files) != 2 {
			t.Fatalf("DirtyFiles = %v", files)
		}
		if got := c.DirtyList(a); len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Fatalf("DirtyList = %v, want [0 1]", got)
		}
		data, ver, ok := c.ReadVersion(a, 0)
		if !ok || string(data) != "a0" {
			t.Fatalf("ReadVersion = %q, %v", data, ok)
		}
		// A rewrite after the read: the flush of the read's version
		// does not clean the block, which now holds bytes the server
		// lacks.
		put(t, c, "a", 0, "A0", true)
		c.FlushDone(a, 0, ver)
		if got := c.DirtyList(a); len(got) != 2 {
			t.Fatalf("a stale FlushDone cleaned a rewritten block: dirty %v", got)
		}
		flushDone(c, a, 0)
		if got := c.DirtyList(a); len(got) != 1 || got[0] != 1 {
			t.Fatalf("dirty %v after the current FlushDone, want [1]", got)
		}
		if used := c.Used(); used != 4 {
			t.Errorf("used = %d, want the cache trimmed to its capacity of 4", used)
		}
		if _, ok := c.Get("a", 0); ok {
			t.Error("the cleaned block, least recent, outlived the trim")
		}
		c.Drop("a", 1)
		c.Drop("a", 99) // absent: no effect
		c.DropFile("b")
		if files := c.DirtyFiles(); len(files) != 0 {
			t.Errorf("DirtyFiles = %v after the drops", files)
		}
		if used := c.Used(); used != 0 {
			t.Errorf("used = %d after the drops", used)
		}
		if got := c.DirtyList(b); len(got) != 0 {
			t.Errorf("DropFile left dirty blocks %v", got)
		}
		if st := c.Stats(); st.CancelledBytes != 4 || st.FlushedBytes != 2 {
			t.Errorf("cancelled %d and flushed %d bytes, want 4 and 2", st.CancelledBytes, st.FlushedBytes)
		}
	})
}

func TestDirtyFlushCycle(t *testing.T) {
	eachStore(t, func(t *testing.T, newCache func(int64) *blockio.Cache) {
		c := newCache(1 << 20)
		blk := string(bytes.Repeat([]byte("w"), 1024))
		put(t, c, "f", 2, blk, true)
		put(t, c, "f", 0, blk, true)
		put(t, c, "f", 1, blk, false)
		dirty := c.DirtyList(fh("f"))
		if len(dirty) != 2 || dirty[0] != 0 || dirty[1] != 2 {
			t.Fatalf("dirty list %v", dirty)
		}
		files := c.DirtyFiles()
		if len(files) != 1 {
			t.Fatalf("dirty files %d", len(files))
		}
		flushDone(c, fh("f"), 0)
		flushDone(c, fh("f"), 2)
		if got := c.DirtyList(fh("f")); len(got) != 0 {
			t.Fatalf("dirty after flush: %v", got)
		}
		if c.Stats().FlushedBytes != 2048 {
			t.Fatalf("flushed bytes %d", c.Stats().FlushedBytes)
		}
	})
}

// TestFlushDoneKeepsRewrittenBlockDirty: a flush's completion must not
// mark clean a block rewritten after the flush read it.
func TestFlushDoneKeepsRewrittenBlockDirty(t *testing.T) {
	eachStore(t, func(t *testing.T, newCache func(int64) *blockio.Cache) {
		c := newCache(1 << 20)
		put(t, c, "f", 0, "old", true)
		_, ver, _ := c.ReadVersion(fh("f"), 0)
		put(t, c, "f", 0, "new", true)
		c.FlushDone(fh("f"), 0, ver)
		if d := c.DirtyList(fh("f")); len(d) != 1 {
			t.Fatalf("a block rewritten during its flush was marked clean")
		}
		flushDone(c, fh("f"), 0)
		if d := c.DirtyList(fh("f")); len(d) != 0 {
			t.Fatalf("dirty list %v after flushing the rewrite", d)
		}
	})
}

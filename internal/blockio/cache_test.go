package blockio

import (
	"testing"

	"repro/internal/nfs3"
)

// TestCacheEvictsCleanBeforeDirty: under pressure the least recent
// clean block goes first, and a dirty block never goes: once nothing
// clean is left the cache runs over capacity, and Put says so.
func TestCacheEvictsCleanBeforeDirty(t *testing.T) {
	t.Parallel()
	c := NewCache(3)
	if c.Put("f", 0, []byte("d"), true) {
		t.Fatal("an empty cache reports pressure")
	}
	c.Put("f", 1, []byte("c"), false)
	c.Put("f", 2, []byte("c"), false)
	if c.Put("f", 3, []byte("c"), false) {
		t.Fatal("pressure reported while clean blocks remained")
	}
	if _, ok := c.Get("f", 1); ok {
		t.Error("least recent clean block survived")
	}
	if _, ok := c.Get("f", 0); !ok {
		t.Error("dirty block evicted before a clean one")
	}
	c.Put("g", 0, []byte("d"), true)
	c.Put("g", 1, []byte("d"), true)
	if !c.Put("g", 2, []byte("d"), true) {
		t.Fatal("no pressure reported with every block dirty and the cache over capacity")
	}
	for _, k := range []blockKey{{"f", 0}, {"g", 0}, {"g", 1}, {"g", 2}} {
		if _, ok := c.Get(k.file, k.index); !ok {
			t.Errorf("dirty block %v evicted", k)
		}
	}
	if _, _, used := c.Stats(); used != 4 {
		t.Errorf("used = %d, want the 4 dirty bytes", used)
	}
	if c.Fill("g", 3, []byte("c"), Fill{}); c.Contains(nfs3.FH3{Data: []byte("g")}, 3) {
		t.Error("a fill into a cache full of dirty blocks was kept")
	}
}

// TestCacheDirtyLifecycle: a dirty block stays dirty until FlushDone
// names the version it holds; a stale version leaves it dirty, the
// current one cleans it and trims the cache to capacity; Drop and
// DropFile discard dirty data.
func TestCacheDirtyLifecycle(t *testing.T) {
	t.Parallel()
	a, b := nfs3.FH3{Data: []byte("a")}, nfs3.FH3{Data: []byte("b")}
	c := NewCache(4)
	c.Put("a", 1, []byte("a1"), true)
	c.Put("a", 0, []byte("a0"), true)
	c.Put("a", 2, []byte("clean"), false) // evicted at once: all else is dirty
	c.Put("b", 0, []byte("b0"), true)
	if files := c.DirtyFiles(); len(files) != 2 {
		t.Fatalf("DirtyFiles = %v", files)
	}
	if got := c.DirtyList(a); len(got) != 2 || got[0]+got[1] != 1 {
		t.Fatalf("DirtyList = %v, want 0 and 1", got)
	}
	data, ver, ok := c.ReadVersion(a, 0)
	if !ok || string(data) != "a0" {
		t.Fatalf("ReadVersion = %q, %v", data, ok)
	}
	// A rewrite after the read: the flush of the read's version does
	// not clean the block, which now holds bytes the server lacks.
	c.Put("a", 0, []byte("A0"), true)
	c.FlushDone(a, 0, ver)
	if got := c.DirtyList(a); len(got) != 2 {
		t.Fatalf("a stale FlushDone cleaned a rewritten block: dirty %v", got)
	}
	_, ver, _ = c.ReadVersion(a, 0)
	c.FlushDone(a, 0, ver)
	if got := c.DirtyList(a); len(got) != 1 || got[0] != 1 {
		t.Fatalf("dirty %v after the current FlushDone, want [1]", got)
	}
	if _, _, used := c.Stats(); used != 4 {
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
	if _, _, used := c.Stats(); used != 0 {
		t.Errorf("used = %d after the drops", used)
	}
	if got := c.DirtyList(b); len(got) != 0 {
		t.Errorf("DropFile left dirty blocks %v", got)
	}
}

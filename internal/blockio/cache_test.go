package blockio

import (
	"sort"
	"testing"
)

// TestCacheEvictsCleanBeforeDirty: under pressure the least recent
// clean block goes first; a dirty block goes only when nothing clean is
// left, and then it is handed back to be written out.
func TestCacheEvictsCleanBeforeDirty(t *testing.T) {
	t.Parallel()
	c := NewCache(3)
	if ev := c.Put("f", 0, []byte("d"), true); len(ev) != 0 {
		t.Fatalf("evicted %v from an empty cache", ev)
	}
	c.Put("f", 1, []byte("c"), false)
	c.Put("f", 2, []byte("c"), false)
	if ev := c.Put("f", 3, []byte("c"), false); len(ev) != 0 {
		t.Fatalf("evicted dirty %v while clean blocks remained", ev)
	}
	if _, ok := c.Get("f", 1); ok {
		t.Error("least recent clean block survived")
	}
	if _, ok := c.Get("f", 0); !ok {
		t.Error("dirty block evicted before a clean one")
	}
	c.Put("g", 0, []byte("d"), true)
	c.Put("g", 1, []byte("d"), true)
	ev := c.Put("g", 2, []byte("d"), true)
	if len(ev) != 1 || ev[0].File != "f" || ev[0].Index != 0 || string(ev[0].Data) != "d" {
		t.Fatalf("evicted %+v, want the oldest dirty block f/0", ev)
	}
}

// TestCacheDirtyLifecycle: DirtyBlocks snapshots and cleans, Redirty
// restores unless a newer write got there first, Drop and DropFile
// discard, DirtyFiles lists what is left.
func TestCacheDirtyLifecycle(t *testing.T) {
	t.Parallel()
	c := NewCache(1 << 20)
	c.Put("a", 0, []byte("a0"), true)
	c.Put("a", 1, []byte("a1"), true)
	c.Put("a", 2, []byte("clean"), false)
	c.Put("b", 0, []byte("b0"), true)
	files := c.DirtyFiles()
	sort.Strings(files)
	if len(files) != 2 || files[0] != "a" || files[1] != "b" {
		t.Fatalf("DirtyFiles = %v", files)
	}
	snap := c.DirtyBlocks("a")
	if len(snap) != 2 {
		t.Fatalf("DirtyBlocks = %+v", snap)
	}
	if again := c.DirtyBlocks("a"); len(again) != 0 {
		t.Fatalf("second DirtyBlocks = %+v, want none", again)
	}
	// A newer write to one of the blocks stands over its stale snapshot.
	newer := snap[0]
	c.Put("a", newer.Index, []byte("newer"), true)
	for _, b := range snap {
		c.Redirty(b)
	}
	if got, _ := c.Get("a", newer.Index); string(got) != "newer" {
		t.Errorf("Redirty overwrote a newer write with %q", got)
	}
	if again := c.DirtyBlocks("a"); len(again) != 2 {
		t.Errorf("after Redirty %d blocks are dirty, want 2", len(again))
	}
	c.Drop("a", 2)
	if _, ok := c.Get("a", 2); ok {
		t.Error("Drop left the block")
	}
	c.Drop("a", 99) // absent: no effect
	c.DropFile("b")
	if files := c.DirtyFiles(); len(files) != 0 {
		t.Errorf("DirtyFiles = %v after the snapshots and drops", files)
	}
	if _, _, used := c.Stats(); used != int64(len("newer")+len("a0")) && used != int64(len("newer")+len("a1")) {
		t.Errorf("used = %d", used)
	}
}

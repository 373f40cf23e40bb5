package cache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/nfs3"
)

func newCache(t *testing.T, capacity int64) *DiskCache {
	t.Helper()
	c, err := New(t.TempDir(), 1024, capacity)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func fh(s string) nfs3.FH3 { return nfs3.FH3{Data: []byte(s)} }

func TestBlockRoundTrip(t *testing.T) {
	t.Parallel()
	c := newCache(t, 1<<20)
	data := bytes.Repeat([]byte("d"), 1024)
	if err := c.PutBlock(fh("f1"), 3, data, false); err != nil {
		t.Fatal(err)
	}
	got, ok := c.GetBlock(fh("f1"), 3)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("block lost or corrupted")
	}
	if _, ok := c.GetBlock(fh("f1"), 4); ok {
		t.Fatal("phantom block")
	}
	if _, ok := c.GetBlock(fh("f2"), 3); ok {
		t.Fatal("cross-file block leak")
	}
}

func TestShortBlock(t *testing.T) {
	t.Parallel()
	c := newCache(t, 1<<20)
	data := []byte("short")
	c.PutBlock(fh("f"), 0, data, false)
	got, ok := c.GetBlock(fh("f"), 0)
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("short block: %q %v", got, ok)
	}
}

func TestOverwriteBlock(t *testing.T) {
	t.Parallel()
	c := newCache(t, 1<<20)
	c.PutBlock(fh("f"), 0, []byte("old-contents"), false)
	c.PutBlock(fh("f"), 0, []byte("new"), false)
	got, _ := c.GetBlock(fh("f"), 0)
	if string(got) != "new" {
		t.Fatalf("got %q", got)
	}
}

func TestEvictionRespectsCapacityAndDirtyPin(t *testing.T) {
	t.Parallel()
	c := newCache(t, 4*1024) // four blocks
	blk := bytes.Repeat([]byte("x"), 1024)
	// Two dirty blocks are pinned.
	c.PutBlock(fh("d"), 0, blk, true)
	c.PutBlock(fh("d"), 1, blk, true)
	// Six clean blocks force eviction.
	for i := uint64(0); i < 6; i++ {
		c.PutBlock(fh("c"), i, blk, false)
	}
	if c.Used() > 4*1024 {
		t.Fatalf("used %d exceeds capacity", c.Used())
	}
	// Dirty blocks must survive.
	for i := uint64(0); i < 2; i++ {
		if _, ok := c.GetBlock(fh("d"), i); !ok {
			t.Fatalf("dirty block %d evicted", i)
		}
	}
}

func TestDirtyFlushCycle(t *testing.T) {
	t.Parallel()
	c := newCache(t, 1<<20)
	blk := bytes.Repeat([]byte("w"), 1024)
	c.PutBlock(fh("f"), 2, blk, true)
	c.PutBlock(fh("f"), 0, blk, true)
	c.PutBlock(fh("f"), 1, blk, false)
	dirty := c.DirtyList(fh("f"))
	if len(dirty) != 2 || dirty[0] != 0 || dirty[1] != 2 {
		t.Fatalf("dirty list %v", dirty)
	}
	files := c.DirtyFiles()
	if len(files) != 1 {
		t.Fatalf("dirty files %d", len(files))
	}
	c.FlushDone(fh("f"), 0)
	c.FlushDone(fh("f"), 2)
	if got := c.DirtyList(fh("f")); len(got) != 0 {
		t.Fatalf("dirty after flush: %v", got)
	}
	if c.Stats().FlushedBytes != 2048 {
		t.Fatalf("flushed bytes %d", c.Stats().FlushedBytes)
	}
}

func TestDropFileCancelsDirty(t *testing.T) {
	t.Parallel()
	c := newCache(t, 1<<20)
	blk := bytes.Repeat([]byte("t"), 1024)
	c.PutBlock(fh("tmp"), 0, blk, true)
	c.PutBlock(fh("tmp"), 1, blk, true)
	c.DropFile(fh("tmp"))
	if _, ok := c.GetBlock(fh("tmp"), 0); ok {
		t.Fatal("block survived drop")
	}
	if len(c.DirtyFiles()) != 0 {
		t.Fatal("dirty files after drop")
	}
	st := c.Stats()
	if st.CancelledBytes != 2048 {
		t.Fatalf("cancelled bytes %d", st.CancelledBytes)
	}
	if st.FlushedBytes != 0 {
		t.Fatal("cancelled writes counted as flushed")
	}
}

func TestAttrCache(t *testing.T) {
	t.Parallel()
	c := newCache(t, 1<<20)
	if _, ok := c.GetAttr(fh("f")); ok {
		t.Fatal("phantom attr")
	}
	c.PutAttr(fh("f"), nfs3.Fattr3{Size: 99})
	a, ok := c.GetAttr(fh("f"))
	if !ok || a.Size != 99 {
		t.Fatal("attr lost")
	}
	c.UpdateAttr(fh("f"), func(a *nfs3.Fattr3) { a.Size = 100 })
	a, _ = c.GetAttr(fh("f"))
	if a.Size != 100 {
		t.Fatal("update lost")
	}
	c.InvalidateAttr(fh("f"))
	if _, ok := c.GetAttr(fh("f")); ok {
		t.Fatal("invalidate failed")
	}
}

func TestAccessCache(t *testing.T) {
	t.Parallel()
	c := newCache(t, 1<<20)
	if _, ok := c.GetAccess(fh("f")); ok {
		t.Fatal("phantom access")
	}
	c.PutAccess(fh("f"), 0x1f)
	g, ok := c.GetAccess(fh("f"))
	if !ok || g != 0x1f {
		t.Fatal("access grant lost")
	}
}

func TestManyFiles(t *testing.T) {
	t.Parallel()
	c := newCache(t, 1<<20)
	for i := 0; i < 50; i++ {
		key := fh(fmt.Sprintf("file%d", i))
		if err := c.PutBlock(key, 0, []byte{byte(i)}, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		got, ok := c.GetBlock(fh(fmt.Sprintf("file%d", i)), 0)
		if !ok || got[0] != byte(i) {
			t.Fatalf("file%d lost", i)
		}
	}
}

func TestStatsCounting(t *testing.T) {
	t.Parallel()
	c := newCache(t, 1<<20)
	c.GetBlock(fh("f"), 0) // miss
	c.PutBlock(fh("f"), 0, []byte("x"), false)
	c.GetBlock(fh("f"), 0) // hit
	st := c.Stats()
	if st.BlockHits != 1 || st.BlockMisses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestPrefetchedBlocksCountReadaheadHits(t *testing.T) {
	t.Parallel()
	c := newCache(t, 1<<20)
	blk := bytes.Repeat([]byte("r"), 1024)
	if err := c.PutPrefetched(fh("f"), 0, blk); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(fh("f"), 0) {
		t.Fatal("prefetched block not cached")
	}
	// Contains must not consume the prefetched flag or count a hit.
	if st := c.Stats(); st.BlockHits != 0 || st.ReadaheadHits != 0 {
		t.Fatalf("Contains touched stats: %+v", st)
	}
	got, ok := c.GetBlock(fh("f"), 0)
	if !ok || !bytes.Equal(got, blk) {
		t.Fatal("prefetched block lost")
	}
	c.GetBlock(fh("f"), 0) // second hit: no longer a readahead hit
	st := c.Stats()
	if st.BlockHits != 2 || st.ReadaheadHits != 1 {
		t.Fatalf("stats %+v; want 2 hits, 1 readahead hit", st)
	}
}

func TestDemandPutClearsPrefetchedFlag(t *testing.T) {
	t.Parallel()
	c := newCache(t, 1<<20)
	c.PutPrefetched(fh("f"), 0, []byte("ra"))
	c.PutBlock(fh("f"), 0, []byte("demand"), false)
	c.GetBlock(fh("f"), 0)
	if st := c.Stats(); st.ReadaheadHits != 0 {
		t.Fatalf("demand-put block still counted as readahead hit: %+v", st)
	}
}

// TestConcurrentHammer pounds the sharded cache from many goroutines —
// mixed gets, puts, dirty-list walks, flushes, drops, and attr traffic
// over a small capacity so eviction runs constantly. Run under -race
// this is the shard-locking regression test; it also checks that
// accounting never goes negative and dirty blocks never vanish
// silently.
func TestConcurrentHammer(t *testing.T) {
	t.Parallel()
	c := newCache(t, 64*1024)
	const (
		workers = 16
		iters   = 300
		nFiles  = 24
	)
	blk := bytes.Repeat([]byte("h"), 1024)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				f := fh(fmt.Sprintf("hammer-%d", (w*7+i)%nFiles))
				switch i % 6 {
				case 0:
					if err := c.PutBlock(f, uint64(i%8), blk, i%2 == 0); err != nil {
						t.Error(err)
						return
					}
				case 1:
					if data, ok := c.GetBlock(f, uint64(i%8)); ok && len(data) != len(blk) {
						t.Errorf("truncated block: %d bytes", len(data))
						return
					}
				case 2:
					for _, idx := range c.DirtyList(f) {
						c.FlushDone(f, idx)
					}
				case 3:
					c.PutAttr(f, nfs3.Fattr3{Size: uint64(i)})
					c.GetAttr(f)
					c.PutAccess(f, uint32(i))
					c.GetAccess(f)
				case 4:
					c.PutPrefetched(f, uint64(i%8), blk)
					c.Contains(f, uint64(i%8))
				case 5:
					if i%60 == 5 {
						c.DropFile(f)
					} else {
						c.Used()
						c.Stats()
						c.DirtyFiles()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if used := c.Used(); used < 0 {
		t.Fatalf("negative accounting: used = %d", used)
	}
	// Every remaining dirty block must still be listed and flushable.
	for _, f := range c.DirtyFiles() {
		for _, idx := range c.DirtyList(f) {
			if _, ok := c.GetBlock(f, idx); !ok {
				t.Fatalf("dirty block %v/%d unreadable", f, idx)
			}
			c.FlushDone(f, idx)
		}
	}
	if left := c.DirtyFiles(); len(left) != 0 {
		t.Fatalf("%d dirty files after full flush", len(left))
	}
}

func TestLockWaitCountersMonotonic(t *testing.T) {
	t.Parallel()
	c := newCache(t, 1<<20)
	// Force contention on one shard: many goroutines, one file handle.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.PutBlock(fh("same"), uint64(i%4), []byte("x"), false)
				c.GetBlock(fh("same"), uint64(i%4))
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.LockWaits == 0 && st.LockWaitNanos != 0 {
		t.Fatalf("wait time without waits: %+v", st)
	}
}

// TestPutRacesDropFile races puts against drops of one file. A put
// that loses to a drop is discarded, not an error, and once the
// traffic stops the accounting matches the blocks that are left.
func TestPutRacesDropFile(t *testing.T) {
	c, err := New(t.TempDir(), 4096, 64<<10) // small, so eviction runs too
	if err != nil {
		t.Fatal(err)
	}
	fh := nfs3.FH3{Data: []byte("racing-file")}
	var puts sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		puts.Add(1)
		go func() {
			defer puts.Done()
			data := make([]byte, 4096)
			for i := 0; i < 5000; i++ {
				if err := c.PutBlock(fh, uint64(i%32), data, false); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	stop, dropped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(dropped)
		for {
			select {
			case <-stop:
				return
			default:
				c.DropFile(fh)
			}
		}
	}()
	puts.Wait()
	close(stop)
	<-dropped
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var live int64
	blocks, queued := 0, 0
	for i := range c.shards {
		s := &c.shards[i]
		s.lock()
		for _, cf := range s.files {
			for _, bm := range cf.blocks {
				live += int64(bm.len)
				blocks++
			}
		}
		queued += s.lru.Len()
		s.unlock()
	}
	if c.Used() != live || queued != blocks {
		t.Fatalf("Used() = %d for %d live bytes; %d LRU entries for %d blocks", c.Used(), live, queued, blocks)
	}
}

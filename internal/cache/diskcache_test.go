package cache

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/blockio"
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

// flushDone marks a block clean as a flush that read it now would.
func flushDone(c *DiskCache, f nfs3.FH3, idx uint64) {
	_, ver, _ := c.ReadVersion(f, idx)
	c.FlushDone(f, idx, ver)
}

// prefetched is the Fill of a readahead no Reader tracks.
var prefetched = blockio.Fill{Prefetch: true}

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

// TestEvictionRespectsCapacityAndDirtyPin: capacity bounds the whole
// cache, whichever files its clean blocks belong to; only dirty bytes
// run over it, and flushing them trims the cache back.
func TestEvictionRespectsCapacityAndDirtyPin(t *testing.T) {
	t.Parallel()
	type puts struct {
		file  string
		n     uint64
		dirty bool
	}
	blk := bytes.Repeat([]byte("x"), 1024)
	for _, tc := range []struct {
		name     string
		capacity int64
		puts     []puts
	}{
		{"dirty-then-clean", 4 * 1024, []puts{{"d", 2, true}, {"c", 6, false}}},
		{"clean-then-dirty", 8 * 1024, []puts{{"a", 8, false}, {"b", 8, true}}},
		{"all-dirty", 4 * 1024, []puts{{"d", 8, true}}},
	} {
		c := newCache(t, tc.capacity)
		var dirty int64
		for _, p := range tc.puts {
			for i := uint64(0); i < p.n; i++ {
				c.PutBlock(fh(p.file), i, blk, p.dirty)
			}
			if p.dirty {
				dirty += int64(p.n) * 1024
			}
		}
		if used := c.Used(); used > max(tc.capacity, dirty) {
			t.Fatalf("%s: used %d exceeds capacity %d with %d dirty", tc.name, used, tc.capacity, dirty)
		}
		for _, p := range tc.puts {
			for i := uint64(0); p.dirty && i < p.n; i++ {
				if _, ok := c.GetBlock(fh(p.file), i); !ok {
					t.Fatalf("%s: dirty block %s/%d evicted", tc.name, p.file, i)
				}
				flushDone(c, fh(p.file), i)
			}
		}
		if used := c.Used(); used > tc.capacity {
			t.Fatalf("%s: used %d exceeds capacity %d after the flush", tc.name, used, tc.capacity)
		}
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

func TestNameCache(t *testing.T) {
	t.Parallel()
	c := newCache(t, 1<<20)
	at := func(dir, name string) nfs3.DirOpArgs { return nfs3.DirOpArgs{Dir: fh(dir), Name: name} }
	has := func(e nfs3.DirOpArgs, want string) {
		t.Helper()
		got, ok := c.Name(e)
		if want == "" && ok || want != "" && string(got.Data) != want {
			t.Fatalf("%s/%s bound to %q (%v), want %q", e.Dir.Data, e.Name, got.Data, ok, want)
		}
	}
	c.PutName(at("d", "a"), fh("A"), c.NameGen())
	c.PutName(at("d", "."), fh("d"), c.NameGen())
	c.PutName(at("d", ".."), fh("p"), c.NameGen())
	has(at("d", "a"), "A")
	has(at("d", "."), "")
	has(at("d", ".."), "")

	// A reply that a forget overtook binds nothing.
	gen := c.NameGen()
	c.ForgetName(at("d", "x"))
	c.PutName(at("d", "b"), fh("B"), gen)
	has(at("d", "b"), "")

	c.RenameName(at("d", "a"), at("e", "z"), true)
	has(at("d", "a"), "")
	has(at("e", "z"), "A")
	c.RenameName(at("e", "z"), at("d", "a"), false)
	has(at("e", "z"), "")
	has(at("d", "a"), "")

	c.PutName(at("d", "a"), fh("A"), c.NameGen())
	c.PutName(at("d", "b"), fh("B"), c.NameGen())
	c.ForgetNames(map[string]bool{"B": true})
	has(at("d", "a"), "")
	has(at("d", "b"), "B")
	if st := c.Stats(); st.NameHits != 3 || st.NameMisses != 7 {
		t.Fatalf("%d name hits, %d misses; want 3 and 7", st.NameHits, st.NameMisses)
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
	c.Fill("f", 0, blk, prefetched)
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
	c.Fill("f", 0, []byte("ra"), prefetched)
	c.PutBlock(fh("f"), 0, []byte("demand"), false)
	c.GetBlock(fh("f"), 0)
	if st := c.Stats(); st.ReadaheadHits != 0 {
		t.Fatalf("demand-put block still counted as readahead hit: %+v", st)
	}
}

// TestConcurrentHammer pounds the cache from many goroutines — mixed
// gets, puts, dirty-list walks, flushes, drops, and attr traffic over a
// small capacity so eviction runs constantly. Run under -race this is
// the locking regression test; it also checks that
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
						flushDone(c, f, idx)
					}
				case 3:
					c.PutAttr(f, nfs3.Fattr3{Size: uint64(i)})
					c.GetAttr(f)
					c.PutAccess(f, uint32(i))
					c.GetAccess(f)
				case 4:
					c.Fill(string(f.Data), uint64(i%8), blk, prefetched)
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
			flushDone(c, f, idx)
		}
	}
	if left := c.DirtyFiles(); len(left) != 0 {
		t.Fatalf("%d dirty files after full flush", len(left))
	}
}

func TestLockWaitCountersMonotonic(t *testing.T) {
	t.Parallel()
	c := newCache(t, 1<<20)
	// Force contention on the cache's lock: many goroutines, one file
	// handle.
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
	defer c.Close()
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
	for i := uint64(0); i < 32; i++ {
		if data, _, ok := c.ReadVersion(fh, i); ok {
			live += int64(len(data))
		}
	}
	if c.Used() != live {
		t.Fatalf("Used() = %d for %d live bytes", c.Used(), live)
	}
	// With the file dropped, the LRU holds exactly what another file
	// puts there: a stale entry would be evicted first and throw the
	// accounting off.
	c.DropFile(fh)
	other, data := nfs3.FH3{Data: []byte("other")}, make([]byte, 4096)
	held := 0
	for i := uint64(0); i <= 16; i++ {
		c.PutBlock(other, i, data, false)
	}
	for i := uint64(0); i <= 16; i++ {
		if c.Contains(other, i) {
			held++
		}
	}
	if c.Used() != 64<<10 || held != 16 {
		t.Fatalf("Used() = %d with %d of 16 blocks held", c.Used(), held)
	}
}

// diskSource is a Source over a DiskCache whose server holds every
// block as 1024 bytes of 'o'. Each FetchBlock is announced on started
// and held, after it has read the server, until gate opens.
type diskSource struct {
	*DiskCache
	gate    chan struct{}
	started chan uint64
}

func (s diskSource) FetchBlock(_ context.Context, f nfs3.FH3, idx uint64, fill blockio.Fill) ([]byte, error) {
	data := bytes.Repeat([]byte("o"), 1024)
	s.started <- idx
	<-s.gate
	s.Fill(string(f.Data), idx, data, fill)
	return data, nil
}

// TestPrefetchLosesToWrite: a prefetch that read the server before a
// write of its block reached the cache must not store the server's
// bytes over the write, nor leave them dirty for the next flush.
func TestPrefetchLosesToWrite(t *testing.T) {
	t.Parallel()
	c := newCache(t, 1<<20)
	src := diskSource{c, make(chan struct{}), make(chan uint64, 1)}
	r := blockio.NewReader(src, 1024, 1, time.Minute)
	f := fh("f")
	r.Advance(f, 0, 2)
	<-src.started
	written := bytes.Repeat([]byte("N"), 1024)
	_, err := r.WriteAt(context.Background(), f, written, 1024, 2048, func(idx uint64, block []byte) error {
		return c.PutBlock(f, idx, block, true)
	})
	if err != nil {
		t.Fatal(err)
	}
	close(src.gate)
	r.Close()
	if got, _ := c.GetBlock(f, 1); !bytes.Equal(got, written) {
		t.Fatalf("block 1 holds %q after a prefetch in flight across its write", got[:8])
	}
	if d := c.DirtyList(f); len(d) != 1 || d[0] != 1 {
		t.Fatalf("dirty list %v, want [1]", d)
	}
}

// TestPrefetchLosesToDrop: a prefetch in flight when its file is
// dropped stores nothing, and opens no cache file for it.
func TestPrefetchLosesToDrop(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	c, err := New(dir, 1024, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	src := diskSource{c, make(chan struct{}), make(chan uint64, 1)}
	r := blockio.NewReader(src, 1024, 1, time.Minute)
	f := fh("f")
	c.PutBlock(f, 0, []byte("zero"), false)
	r.Advance(f, 0, 2)
	<-src.started
	r.Forget(f)
	c.DropFile(f)
	close(src.gate)
	r.Close()
	if got, ok := c.GetBlock(f, 1); ok {
		t.Fatalf("a prefetch in flight across a drop stored %q", got[:8])
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
		t.Fatalf("%d cache files after the drop (%v)", len(files), err)
	}
}

package proxy

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/nfs3"
	"repro/internal/nfsclient"
	"repro/internal/oncrpc"
	"repro/internal/vfs"
)

// dirtyThroughMount writes payload into name through a write-back
// mount, leaving every block dirty in the client proxy's disk cache.
func dirtyThroughMount(t testing.TB, st *testStack, name string, payload []byte) {
	t.Helper()
	fs := st.mount(t, nfsclient.Options{})
	ctx := context.Background()
	f, err := fs.Create(ctx, name, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(ctx, payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
}

// backendBytes reads name's content directly from the backend.
func backendBytes(t testing.TB, st *testStack, name string, size int) []byte {
	t.Helper()
	h, _, err := st.backend.Lookup(st.backend.Root(), name)
	if err != nil {
		t.Fatalf("backend lookup %s: %v", name, err)
	}
	buf := make([]byte, size)
	n, _, err := st.backend.Read(h, 0, buf)
	if err != nil {
		t.Fatalf("backend read %s: %v", name, err)
	}
	return buf[:n]
}

// TestChaosParallelFlushLinkCut proves the parallel flush loses nothing
// when the WAN link is cut out from under it: UNSTABLE writes that die
// with a session are retried FILE_SYNC or left dirty for the next
// round, COMMIT verifier churn forces stable re-sends, and after the
// link settles a final FlushAll leaves the server byte-identical with
// everything the client ever wrote.
func TestChaosParallelFlushLinkCut(t *testing.T) {
	dc := newDiskCache(t)
	faulter := netem.NewFaulter()
	st := buildStack(t, stackOpts{
		diskCache: dc,
		faulter:   faulter,
		rtt:       5 * time.Millisecond,
		recovery: &RecoveryConfig{
			MaxAttempts:    8,
			BaseDelay:      5 * time.Millisecond,
			MaxDelay:       100 * time.Millisecond,
			AttemptTimeout: 5 * time.Second,
			OpTimeout:      30 * time.Second,
		},
	})
	stats := st.clientProxy.ChannelStats

	// Dirty a sizeable dataset up front, before the killer starts:
	// CREATE is not replayable, flush WRITEs are.
	const nFiles = 4
	const fileBlocks = 32
	payloads := make(map[string][]byte, nFiles)
	for i := 0; i < nFiles; i++ {
		name := fmt.Sprintf("chaosflush-%d", i)
		payloads[name] = chaosPayload(i, fileBlocks*32*1024)
		dirtyThroughMount(t, st, name, payloads[name])
	}

	// The killer severs every live WAN connection on a short timer, so
	// cuts land mid-flush repeatedly.
	stopKiller := make(chan struct{})
	killerDone := make(chan struct{})
	go func() {
		defer close(killerDone)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopKiller:
				return
			case <-tick.C:
				faulter.CutAll(netem.FaultReset)
			}
		}
	}()

	// Keep flushing (and re-dirtying on quiet rounds) under fire until
	// the link has demonstrably died mid-workload at least twice.
	ctx := context.Background()
	deadline := time.Now().Add(90 * time.Second)
	for {
		// Errors are expected while the killer runs; dirty blocks must
		// simply survive for the next attempt.
		if err := st.clientProxy.FlushAll(ctx); err != nil {
			for _, fh := range dc.DirtyFiles() {
				for _, idx := range dc.DirtyList(fh) {
					if _, ok := dc.GetBlock(fh, idx); !ok {
						t.Fatalf("dirty block %d lost after failed flush", idx)
					}
				}
			}
		}
		if s := stats(); s.Disconnects >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("link cuts never hit the flush: %+v (faulter %+v)", stats(), faulter.Stats())
		}
		if len(dc.DirtyFiles()) == 0 {
			// Flushed clean between cuts: re-dirty and go again.
			name := "chaosflush-0"
			dirtyThroughMount(t, st, name, payloads[name])
		}
	}
	close(stopKiller)
	<-killerDone

	// The link heals; flushing must eventually drain everything.
	drainBy := time.Now().Add(60 * time.Second)
	for {
		err := st.clientProxy.FlushAll(ctx)
		if err == nil && len(dc.DirtyFiles()) == 0 {
			break
		}
		if time.Now().After(drainBy) {
			t.Fatalf("flush never drained after link healed: %v (%d dirty files)", err, len(dc.DirtyFiles()))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Every file must be byte-identical on the server: any block marked
	// clean without reaching the server would surface here.
	for name, want := range payloads {
		if got := backendBytes(t, st, name, len(want)+1); !bytes.Equal(got, want) {
			t.Fatalf("%s corrupted after chaos flush: %d bytes, want %d", name, len(got), len(want))
		}
	}
	dp := st.clientProxy.DataPathStats()
	if dp.FlushedBlocks == 0 {
		t.Fatal("no flushed blocks counted")
	}
	t.Logf("datapath: %+v channel: %+v", dp, stats())
}

// restartingFS is a backend behind a server that restarts once: writes
// stay volatile until a Commit, and after restartAt writes the volatile
// ones are dropped and restart is called (the test re-registers a fresh
// nfs3.Server, so the write verifier changes).
type restartingFS struct {
	*vfs.MemFS
	restartAt int
	restart   func()

	mu      sync.Mutex
	writes  int
	pending []func() error
}

func (b *restartingFS) Write(h vfs.Handle, off uint64, data []byte) error {
	data = append([]byte(nil), data...)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pending = append(b.pending, func() error { return b.MemFS.Write(h, off, data) })
	if b.writes++; b.writes == b.restartAt {
		b.pending = nil
		b.restart()
	}
	return nil
}

func (b *restartingFS) Commit(h vfs.Handle) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, apply := range b.pending {
		if err := apply(); err != nil {
			return err
		}
	}
	b.pending = nil
	return b.MemFS.Commit(h)
}

// TestFlushAllSurvivesServerRestart: the file server restarts between
// the flush's last UNSTABLE write and its COMMIT, losing the unstable
// data. The COMMIT verifier gives it away; FlushAll must re-send every
// block FILE_SYNC, count the mismatch, and only then mark blocks clean.
func TestFlushAllSurvivesServerRestart(t *testing.T) {
	t.Parallel()
	const blocks = 6
	dc := newDiskCache(t)
	st := buildStack(t, stackOpts{diskCache: dc, wrapBackend: func(mem *vfs.MemFS, rpc *oncrpc.Server) vfs.FS {
		b := &restartingFS{MemFS: mem, restartAt: blocks}
		b.restart = func() { nfs3.NewServer(b, 1).Register(rpc) }
		return b
	}})
	payload := chaosPayload(20, blocks*32*1024)
	dirtyThroughMount(t, st, "restart.dat", payload)
	if err := st.clientProxy.FlushAll(context.Background()); err != nil {
		t.Fatalf("FlushAll across a server restart: %v", err)
	}
	if got := backendBytes(t, st, "restart.dat", len(payload)+1); !bytes.Equal(got, payload) {
		t.Fatalf("server holds %d bytes after FlushAll, want %d: the restart's lost writes were not re-sent", len(got), len(payload))
	}
	if n := len(dc.DirtyFiles()); n != 0 {
		t.Errorf("%d files still dirty after a successful flush", n)
	}
	if dp := st.clientProxy.DataPathStats(); dp.CommitMismatches != 1 {
		t.Errorf("CommitMismatches = %d, want 1: %+v", dp.CommitMismatches, dp)
	}
}

// TestFetchBlockSingleFlight: concurrent readers of one uncached block
// must share a single upstream READ.
func TestFetchBlockSingleFlight(t *testing.T) {
	t.Parallel()
	dc := newDiskCache(t)
	st := buildStack(t, stackOpts{diskCache: dc, rtt: 40 * time.Millisecond})

	h, _, err := st.backend.Create(st.backend.Root(), "shared.dat", vfs.SetAttr{}, false)
	if err != nil {
		t.Fatal(err)
	}
	want := chaosPayload(7, 32*1024)
	if err := st.backend.Write(h, 0, want); err != nil {
		t.Fatal(err)
	}
	fs := st.mount(t, nfsclient.Options{CacheBytes: 1, Readahead: -1})
	ctx := context.Background()
	fh, _, err := fs.Proto().Lookup(ctx, fs.Root(), "shared.dat")
	if err != nil {
		t.Fatal(err)
	}

	const readers = 16
	results := make([][]byte, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, err := st.clientProxy.reader.Fetch(ctx, fh, 0, false)
			if err != nil {
				t.Errorf("reader %d: %v", i, err)
				return
			}
			results[i] = data
		}(i)
	}
	wg.Wait()
	for i, data := range results {
		if !bytes.Equal(data, want) {
			t.Fatalf("reader %d got %d bytes, want %d", i, len(data), len(want))
		}
	}
	dp := st.clientProxy.DataPathStats()
	if dp.InflightDedup == 0 {
		t.Fatalf("no in-flight dedup counted across %d concurrent readers: %+v", readers, dp)
	}
}

// TestProxyReadaheadWarmsCache: a sequential scan over the WAN must
// trigger background prefetches, and later reads must either hit the
// prefetched blocks or piggyback on their in-flight fetches.
func TestProxyReadaheadWarmsCache(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("WAN-delay timing test")
	}
	dc := newDiskCache(t)
	st := buildStack(t, stackOpts{diskCache: dc, rtt: 20 * time.Millisecond})

	const blocks = 16
	h, _, err := st.backend.Create(st.backend.Root(), "seq.dat", vfs.SetAttr{}, false)
	if err != nil {
		t.Fatal(err)
	}
	want := chaosPayload(3, blocks*32*1024)
	if err := st.backend.Write(h, 0, want); err != nil {
		t.Fatal(err)
	}

	// Client-side caching and readahead off: every block request
	// reaches the proxy, which must do its own sequential detection.
	fs := st.mount(t, nfsclient.Options{CacheBytes: 1, Readahead: -1})
	ctx := context.Background()
	f, err := fs.Open(ctx, "seq.dat")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	for off := 0; off < len(want); off += 32 * 1024 {
		if _, err := f.ReadAt(ctx, got[off:off+32*1024], int64(off)); err != nil && err != io.EOF {
			t.Fatalf("read @%d: %v", off, err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sequential scan returned corrupted data")
	}
	dp := st.clientProxy.DataPathStats()
	if dp.ReadaheadIssued == 0 {
		t.Fatalf("sequential scan issued no readahead: %+v", dp)
	}
	cs, _ := st.clientProxy.CacheStats()
	if cs.ReadaheadHits == 0 && dp.InflightDedup == 0 {
		t.Fatalf("readahead never helped a read: cache %+v datapath %+v", cs, dp)
	}
}

// opCounter is a backend that counts the READs, WRITEs and COMMITs
// reaching the file server.
type opCounter struct {
	*vfs.MemFS
	reads, writes, commits atomic.Int64
}

func (b *opCounter) Read(h vfs.Handle, off uint64, buf []byte) (int, bool, error) {
	b.reads.Add(1)
	return b.MemFS.Read(h, off, buf)
}

func (b *opCounter) Write(h vfs.Handle, off uint64, data []byte) error {
	b.writes.Add(1)
	return b.MemFS.Write(h, off, data)
}

func (b *opCounter) Commit(h vfs.Handle) error {
	b.commits.Add(1)
	return b.MemFS.Commit(h)
}

// TestColdReadRampsReadahead: a cold 1 MiB sequential read through a
// default mount and the client proxy, over a 40 ms RTT link, finishes
// within 5 round trips: the readahead window ramps from 4 blocks to the
// 1 MiB cap and issues each block once, so the server sees one READ
// per block.
func TestColdReadRampsReadahead(t *testing.T) {
	if testing.Short() {
		t.Skip("WAN-delay timing test")
	}
	const rtt = 40 * time.Millisecond
	const blocks = 32
	backend := &opCounter{}
	dc := newDiskCache(t)
	st := buildStack(t, stackOpts{diskCache: dc, rtt: rtt, wrapBackend: func(mem *vfs.MemFS, _ *oncrpc.Server) vfs.FS {
		backend.MemFS = mem
		return backend
	}})
	want := chaosPayload(11, blocks*32*1024)
	h, _, err := st.backend.Create(st.backend.Root(), "cold.dat", vfs.SetAttr{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.backend.Write(h, 0, want); err != nil {
		t.Fatal(err)
	}
	fs := st.mount(t, nfsclient.Options{})
	ctx := context.Background()
	f, err := fs.Open(ctx, "cold.dat")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close(ctx)
	readsBefore := backend.reads.Load()
	got := make([]byte, len(want))
	start := time.Now()
	for off := 0; off < len(want); off += 32 * 1024 {
		if _, err := f.ReadAt(ctx, got[off:off+32*1024], int64(off)); err != nil && err != io.EOF {
			t.Fatalf("read @%d: %v", off, err)
		}
	}
	elapsed := time.Since(start)
	if !bytes.Equal(got, want) {
		t.Fatal("cold read returned corrupted data")
	}
	dp := st.clientProxy.DataPathStats()
	reads := backend.reads.Load() - readsBefore
	t.Logf("%v (%.1f RTT), %d upstream READs, %d prefetches issued, %d shed, %d in-flight dedups",
		elapsed, float64(elapsed)/float64(rtt), reads, dp.ReadaheadIssued, dp.ReadaheadDropped, dp.InflightDedup)
	if elapsed > 5*rtt {
		t.Errorf("cold 1 MiB read took %v, more than 5 RTT (%v)", elapsed, 5*rtt)
	}
	if reads != blocks {
		t.Errorf("%d upstream READs for %d blocks", reads, blocks)
	}
	if dp.ReadaheadIssued > blocks-1 {
		t.Errorf("%d prefetches issued for %d blocks: a block was issued twice", dp.ReadaheadIssued, blocks)
	}
}

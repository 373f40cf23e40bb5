package nfsclient

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/netem"
)

// seedTree creates d1/d2/f0..f(n-1) plus a top-level root.txt through
// fs and returns the deep paths.
func seedTree(t *testing.T, fs *FileSystem, n int) []string {
	t.Helper()
	ctx := context.Background()
	if err := fs.MkdirAll(ctx, "d1/d2", 0755); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, n)
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("d1/d2/f%d", i)
		f, err := fs.Create(ctx, p, 0644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(ctx, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(ctx); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

func TestBatchStatColdCache(t *testing.T) {
	dial, _ := startServer(t)
	seedTree(t, mountFS(t, dial, Options{}), 10)

	// A second mount sees the tree with cold name/attr caches, so
	// every component LOOKUP and every GETATTR goes to the wire — the
	// batch path must pipeline them, not serialize.
	fs := mountFS(t, dial, Options{})
	var stats metrics.ChannelStats
	fs.proto.rpc.SetStats(&stats)
	ctx := context.Background()

	var paths []string
	for i := 0; i < 10; i++ {
		paths = append(paths, fmt.Sprintf("d1/d2/f%d", i))
	}
	paths = append(paths, "d1/nope/missing")

	res := fs.BatchStat(ctx, paths)
	if len(res) != len(paths) {
		t.Fatalf("got %d results for %d paths", len(res), len(paths))
	}
	for i := 0; i < 10; i++ {
		if res[i].Err != nil {
			t.Fatalf("%s: %v", paths[i], res[i].Err)
		}
		want, err := fs.Stat(ctx, paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if res[i].Attr.Size != want.Size || res[i].Attr.FileID != want.FileID {
			t.Fatalf("%s: batch attr %+v != stat attr %+v", paths[i], res[i].Attr, want)
		}
		if res[i].Attr.Size != uint64(len(fmt.Sprintf("payload-%d", i))) {
			t.Fatalf("%s: size %d", paths[i], res[i].Attr.Size)
		}
	}
	if res[10].Err == nil {
		t.Fatal("missing path did not fail its slot")
	}
	if snap := stats.Snapshot(); snap.InflightHWM < 2 {
		t.Fatalf("batch stat never pipelined: in-flight HWM %d", snap.InflightHWM)
	}
}

// TestBatchStatPipelines bounds BatchStat in round trips: 24 cold
// depth-3 paths cost one round per path component plus one GETATTR
// round, where a serial walk pays at least 48 round trips.
func TestBatchStatPipelines(t *testing.T) {
	dial, _ := startServer(t)
	paths := seedTree(t, mountFS(t, dial, Options{}), 24)

	const rtt = 20 * time.Millisecond
	// AttrTimeout 1ns: nothing the LOOKUPs prime survives to the stat,
	// so every GETATTR goes to the wire.
	fs := mountFS(t, netem.Dialer(dial, netem.Config{RTT: rtt}), Options{AttrTimeout: time.Nanosecond})
	start := time.Now()
	for _, r := range fs.BatchStat(context.Background(), paths) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Path, r.Err)
		}
	}
	if d := time.Since(start); d >= 8*rtt {
		t.Fatalf("BatchStat of %d cold files took %v, want under 8 RTTs (%v)", len(paths), d, 8*rtt)
	}
}

func TestReadDirStat(t *testing.T) {
	dial, _ := startServer(t)
	seedTree(t, mountFS(t, dial, Options{}), 6)

	fs := mountFS(t, dial, Options{})
	ctx := context.Background()
	entries, err := fs.ReadDirStat(ctx, "d1/d2")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 6 {
		t.Fatalf("got %d entries", len(entries))
	}
	for _, e := range entries {
		if !e.Attr.Present {
			t.Fatalf("%s: no attributes after ReadDirStat", e.Name)
		}
		var i int
		if _, err := fmt.Sscanf(e.Name, "f%d", &i); err != nil {
			t.Fatalf("unexpected entry %q", e.Name)
		}
		if want := uint64(len(fmt.Sprintf("payload-%d", i))); e.Attr.Attr.Size != want {
			t.Fatalf("%s: size %d want %d", e.Name, e.Attr.Attr.Size, want)
		}
	}
}

func TestRevalidateDropsChangedPages(t *testing.T) {
	dial, _ := startServer(t)
	writer := mountFS(t, dial, Options{})
	reader := mountFS(t, dial, Options{AttrTimeout: time.Nanosecond})
	ctx := context.Background()

	// Populate the file and the reader's page cache + version record.
	f, err := writer.Create(ctx, "r.txt", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(ctx, []byte("old-contents")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	rf, err := reader.Open(ctx, "r.txt")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := rf.Read(ctx, buf); err != nil && err.Error() != "EOF" {
		_ = err // short file EOF is fine
	}
	if err := rf.Close(ctx); err != nil {
		t.Fatal(err)
	}
	fh, err := reader.walk(ctx, "r.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reader.pages.Get(fhKey(fh), 0); !ok {
		t.Fatal("reader page cache not populated")
	}

	// No upstream change: revalidation must not disturb anything.
	changed, err := reader.Revalidate(ctx, []string{"r.txt"})
	if err != nil || changed != 0 {
		t.Fatalf("clean revalidate: changed=%d err=%v", changed, err)
	}
	if _, ok := reader.pages.Get(fhKey(fh), 0); !ok {
		t.Fatal("clean revalidate dropped fresh pages")
	}

	// Another client rewrites the file (different size so the version
	// comparison cannot be defeated by mtime granularity).
	wf, err := writer.OpenFile(ctx, "r.txt", OWrite|OTrunc, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wf.Write(ctx, []byte("NEW")); err != nil {
		t.Fatal(err)
	}
	if err := wf.Close(ctx); err != nil {
		t.Fatal(err)
	}

	changed, err = reader.Revalidate(ctx, []string{"r.txt"})
	if err != nil {
		t.Fatal(err)
	}
	if changed != 1 {
		t.Fatalf("changed = %d, want 1", changed)
	}
	if _, ok := reader.pages.Get(fhKey(fh), 0); ok {
		t.Fatal("stale pages survived revalidation")
	}
}

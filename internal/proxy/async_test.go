package proxy

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/nfs3"
	"repro/internal/nfsclient"
	"repro/internal/vfs"
)

// TestRevalidateAttrsSweep checks the concurrent attribute
// revalidation: attrs the session cache holds are re-fetched
// concurrently, a file changed behind the proxy's back loses its
// cached blocks, and an unchanged file keeps them.
func TestRevalidateAttrsSweep(t *testing.T) {
	t.Parallel()
	dc := newDiskCache(t)
	st := buildStack(t, stackOpts{diskCache: dc})
	fs := st.mount(t, nfsclient.Options{CacheBytes: 1, AttrTimeout: time.Nanosecond})
	ctx := context.Background()

	payload := bytes.Repeat([]byte("Q"), 64*1024)
	for _, name := range []string{"steady", "moving"} {
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
	}
	// Push write-back data to the server, then sync the cached attrs
	// with the server's view (the local write stamps mtimes itself, so
	// the first post-flush sweep legitimately sees them as changed).
	if err := st.clientProxy.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.clientProxy.RevalidateAttrs(ctx); err != nil {
		t.Fatal(err)
	}
	// Read both files back so the disk cache holds their blocks clean.
	for _, name := range []string{"steady", "moving"} {
		g, err := fs.Open(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, len(payload))
		if _, err := g.ReadAt(ctx, buf, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		g.Close(ctx)
	}

	// A clean sweep: everything cached, nothing changed.
	checked, changed, err := st.clientProxy.RevalidateAttrs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if checked < 2 || changed != 0 {
		t.Fatalf("clean sweep: checked=%d changed=%d", checked, changed)
	}

	// Mutate "moving" directly in the backend, bypassing the proxy.
	mfh, err := lookupBackend(st, "moving")
	if err != nil {
		t.Fatal(err)
	}
	if err := writeBackend(st, "moving", []byte("rewritten-short")); err != nil {
		t.Fatal(err)
	}

	checked, changed, err = st.clientProxy.RevalidateAttrs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if checked < 2 {
		t.Fatalf("sweep checked only %d handles", checked)
	}
	if changed != 1 {
		t.Fatalf("changed = %d, want 1", changed)
	}
	if dc.Contains(mfh, 0) {
		t.Fatal("stale blocks of the changed file survived the sweep")
	}
	// The cached attr must now reflect the upstream truth.
	if a, ok := dc.GetAttr(mfh); !ok || a.Size != uint64(len("rewritten-short")) {
		t.Fatalf("post-sweep attr = %+v (ok=%v)", a, ok)
	}

	sfh, err := lookupBackend(st, "steady")
	if err != nil {
		t.Fatal(err)
	}
	if !dc.Contains(sfh, 0) {
		t.Fatal("unchanged file lost its cached blocks")
	}
}

// TestRevalidateAttrsPipelinesReplicated bounds the attribute sweep
// over a replicated upstream in round trips: 24 cached handles behind
// 20 ms links must revalidate in under 8 RTTs (each GETATTR is one
// round trip plus, on a backend that has not translated the handle
// yet, one LOOKUP), where a serial sweep pays at least 24.
func TestRevalidateAttrsPipelinesReplicated(t *testing.T) {
	t.Parallel()
	const rtt = 20 * time.Millisecond
	dc := newDiskCache(t)
	st := buildReplStack(t, replOpts{n: 3, quorum: 2, diskCache: dc, recovery: fastRecovery(),
		rtts: []time.Duration{rtt, rtt, rtt}})
	for _, be := range st.backends {
		for i := 0; i < 24; i++ {
			if _, _, err := be.Create(be.Root(), fmt.Sprintf("f%02d", i), vfs.SetAttr{}, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One READDIRPLUS through the proxy primes the session attribute
	// cache with every file.
	ctx := context.Background()
	if _, err := st.mount(t, nfsclient.Options{}).ReadDir(ctx, "/"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	checked, _, err := st.cp.RevalidateAttrs(ctx)
	d := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if checked < 24 {
		t.Fatalf("sweep checked %d handles, want >= 24", checked)
	}
	if d >= 8*rtt {
		t.Fatalf("sweep of %d handles took %v, want under 8 RTTs (%v)", checked, d, 8*rtt)
	}
}

// TestMeterStaysNonNegative: upCall credits upstream waits back to the
// meter, so work that runs outside any handler span — readahead
// prefetches, FlushAll, the attribute sweep — must add its own elapsed
// time or the meter is driven below zero.
func TestMeterStaysNonNegative(t *testing.T) {
	t.Parallel()
	var meter metrics.Meter
	dc := newDiskCache(t)
	st := buildStack(t, stackOpts{diskCache: dc, rtt: 20 * time.Millisecond, meter: &meter})

	const blocks = 16
	h, _, err := st.backend.Create(st.backend.Root(), "seq.dat", vfs.SetAttr{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.backend.Write(h, 0, chaosPayload(5, blocks*32*1024)); err != nil {
		t.Fatal(err)
	}
	// Client-side caching and readahead off, so the proxy sees the
	// sequential stream and prefetches.
	fs := st.mount(t, nfsclient.Options{CacheBytes: 1, Readahead: -1})
	ctx := context.Background()
	f, err := fs.Open(ctx, "seq.dat")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32*1024)
	for off := int64(0); off < blocks*32*1024; off += 32 * 1024 {
		if _, err := f.ReadAt(ctx, buf, off); err != nil && err != io.EOF {
			t.Fatalf("read @%d: %v", off, err)
		}
	}
	if dp := st.clientProxy.DataPathStats(); dp.ReadaheadIssued == 0 {
		t.Fatalf("sequential scan issued no readahead: %+v", dp)
	}

	g, err := fs.Create(ctx, "out.dat", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt(ctx, chaosPayload(6, 8*32*1024), 0); err != nil {
		t.Fatal(err)
	}
	if err := g.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st.clientProxy.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	if dp := st.clientProxy.DataPathStats(); dp.FlushedBlocks == 0 {
		t.Fatalf("FlushAll pushed nothing: %+v", dp)
	}
	if _, _, err := st.clientProxy.RevalidateAttrs(ctx); err != nil {
		t.Fatal(err)
	}
	// Close drains the prefetch pool, so no background unit is between
	// its credit and its own add when the meter is read.
	st.clientProxy.Close()
	if busy := meter.Busy(); busy < 0 {
		t.Fatalf("meter went negative: %v", busy)
	}
}

// lookupBackend resolves name against the backend MemFS root,
// returning the NFS handle the proxies use for it.
func lookupBackend(st *testStack, name string) (nfs3.FH3, error) {
	h, _, err := st.backend.Lookup(st.backend.Root(), name)
	if err != nil {
		return nfs3.FH3{}, err
	}
	return nfs3.FromHandle(h), nil
}

// writeBackend rewrites name's contents directly in the backend,
// invisible to the proxy layer (another client's update).
func writeBackend(st *testStack, name string, data []byte) error {
	h, _, err := st.backend.Lookup(st.backend.Root(), name)
	if err != nil {
		return err
	}
	zero := uint64(0)
	if _, err := st.backend.SetAttr(h, vfs.SetAttr{Size: &zero}); err != nil {
		return err
	}
	return st.backend.Write(h, 0, data)
}

//go:build !race

package proxy

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/oncrpc"
	"repro/internal/vfs"
)

// The WAN window's round-trip bound. Not under the race detector: there
// the stack's own CPU for 2 MiB (about 150 ms on two cores) is itself
// about 4 round trips, so the bound would time the instrumentation, not
// the window.

// TestFlushAllFillsWindow: FlushAll of 64 dirty blocks over a 40 ms
// RTT link keeps the client proxy's whole WAN window (1 MiB, 32
// blocks) of UNSTABLE writes in flight, so it drains in two windows and
// one COMMIT: within 5 round trips, with one upstream WRITE per block,
// one COMMIT, and the file byte-identical on the server.
func TestFlushAllFillsWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("WAN-delay timing test")
	}
	const rtt = 40 * time.Millisecond
	const blocks = 64
	backend := &opCounter{}
	dc := newDiskCache(t)
	st := buildStack(t, stackOpts{diskCache: dc, rtt: rtt, wrapBackend: func(mem *vfs.MemFS, _ *oncrpc.Server) vfs.FS {
		backend.MemFS = mem
		return backend
	}})
	want := chaosPayload(12, blocks*32*1024)
	dirtyThroughMount(t, st, "flushme", want)
	writesBefore, commitsBefore := backend.writes.Load(), backend.commits.Load()
	start := time.Now()
	if err := st.clientProxy.FlushAll(context.Background()); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	elapsed := time.Since(start)
	if got := backendBytes(t, st, "flushme", len(want)+1); !bytes.Equal(got, want) {
		t.Fatalf("flushed bytes corrupted: %d bytes on server, want %d", len(got), len(want))
	}
	dp := st.clientProxy.DataPathStats()
	writes, commits := backend.writes.Load()-writesBefore, backend.commits.Load()-commitsBefore
	t.Logf("%v (%.1f RTT), %d upstream WRITEs, %d COMMITs, flush peak %d",
		elapsed, float64(elapsed)/float64(rtt), writes, commits, dp.FlushPeak)
	if elapsed > 5*rtt {
		t.Errorf("flushing %d blocks took %v, more than 5 RTT (%v)", blocks, elapsed, 5*rtt)
	}
	if dp.FlushPeak != 32 {
		t.Errorf("flush peak %d, want the 32-block WAN window", dp.FlushPeak)
	}
	if writes != blocks || commits != 1 {
		t.Errorf("%d upstream WRITEs and %d COMMITs for %d blocks of one file, want %d and 1", writes, commits, blocks, blocks)
	}
}

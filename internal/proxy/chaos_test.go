package proxy

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/nfsclient"
	"repro/internal/vfs"
)

// chaosPayload is the deterministic content of chaos-test file i.
func chaosPayload(i, size int) []byte {
	p := make([]byte, size)
	for j := range p {
		p[j] = byte(i*31 + j%251)
	}
	return p
}

// TestChaosLinkKillsDuringReadWorkload is the acceptance scenario for
// the fault-tolerant WAN channel: with the link killed on a timer
// during a read-heavy workload, the session must reconnect and replay
// idempotent calls so the workload completes with byte-identical data;
// with the link down and dials refused, cached reads must keep being
// served (disconnected operation); and the recovery counters must
// record all of it.
func TestChaosLinkKillsDuringReadWorkload(t *testing.T) {
	dc := newDiskCache(t)
	faulter := netem.NewFaulter()
	st := buildStack(t, stackOpts{
		diskCache: dc,
		faulter:   faulter,
		recovery: &RecoveryConfig{
			MaxAttempts:    8,
			BaseDelay:      5 * time.Millisecond,
			MaxDelay:       100 * time.Millisecond,
			AttemptTimeout: 5 * time.Second,
			OpTimeout:      30 * time.Second,
		},
	})
	stats := st.clientProxy.ChannelStats

	// Read-only dataset, planted on the backend directly.
	const nFiles = 12
	const fileSize = 96 * 1024
	root := st.backend.Root()
	for i := 0; i < nFiles; i++ {
		h, _, err := st.backend.Create(root, fmt.Sprintf("chaos-%d", i), vfs.SetAttr{}, false)
		if err != nil {
			t.Fatal(err)
		}
		st.backend.Write(h, 0, chaosPayload(i, fileSize))
	}

	// Raw protocol access through the client proxy: no client-side
	// memory cache, so every LOOKUP (and every uncached READ) crosses
	// the faulted WAN link.
	fs := st.mount(t, nfsclient.Options{CacheBytes: 1})
	proto := fs.Proto()
	ctx := context.Background()

	verify := func(i int) error {
		fh, _, err := proto.Lookup(ctx, fs.Root(), fmt.Sprintf("chaos-%d", i))
		if err != nil {
			return fmt.Errorf("lookup chaos-%d: %w", i, err)
		}
		got := make([]byte, 0, fileSize)
		for uint64(len(got)) < fileSize {
			data, eof, err := proto.Read(ctx, fh, uint64(len(got)), 32*1024)
			if err != nil {
				return fmt.Errorf("read chaos-%d @%d: %w", i, len(got), err)
			}
			got = append(got, data...)
			if eof {
				break
			}
		}
		if !bytes.Equal(got, chaosPayload(i, fileSize)) {
			return fmt.Errorf("chaos-%d corrupted: %d bytes", i, len(got))
		}
		return nil
	}

	// The killer: sever every live WAN connection on a timer while the
	// workload runs.
	killEvery := 2 * time.Second
	if testing.Short() {
		killEvery = 250 * time.Millisecond
	}
	stopKiller := make(chan struct{})
	killerDone := make(chan struct{})
	go func() {
		defer close(killerDone)
		tick := time.NewTicker(killEvery)
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

	// Phase 1: read-heavy workload under fire. Keep cycling full
	// verification passes until the channel has died and come back at
	// least 3 times and at least one idempotent call was replayed.
	deadline := time.Now().Add(90 * time.Second)
	for pass := 0; ; pass++ {
		for i := 0; i < nFiles; i++ {
			if err := verify(i); err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
		}
		s := stats()
		if s.Reconnects >= 3 && s.Replays >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("counters never reached target: %+v (faulter %+v)", s, faulter.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stopKiller)
	<-killerDone

	// Grab a handle while connected; its attributes and every block are
	// in the disk cache from the passes above.
	fh0, _, err := proto.Lookup(ctx, fs.Root(), "chaos-0")
	if err != nil {
		t.Fatal(err)
	}

	// Phase 2: disconnected operation. Down the link for good — every
	// redial refused — and read from the cache.
	faulter.FailNextDials(1 << 30)
	faulter.CutAll(netem.FaultReset)
	degradedBy := time.Now().Add(10 * time.Second)
	for !st.clientProxy.degraded() {
		if time.Now().After(degradedBy) {
			t.Fatal("proxy never entered degraded mode after link down")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := proto.GetAttr(ctx, fh0); err != nil {
		t.Fatalf("GETATTR while disconnected: %v", err)
	}
	got := make([]byte, 0, fileSize)
	for uint64(len(got)) < fileSize {
		data, eof, err := proto.Read(ctx, fh0, uint64(len(got)), 32*1024)
		if err != nil {
			t.Fatalf("cached read while disconnected @%d: %v", len(got), err)
		}
		got = append(got, data...)
		if eof {
			break
		}
	}
	if !bytes.Equal(got, chaosPayload(0, fileSize)) {
		t.Fatal("disconnected read returned corrupted data")
	}
	if s := stats(); s.DegradedReads == 0 {
		t.Fatalf("no degraded reads counted while disconnected: %+v", s)
	}

	// Phase 3: the link heals; the next lookup re-establishes the
	// session and the full dataset still verifies byte-identical.
	faulter.FailNextDials(0)
	healedBy := time.Now().Add(30 * time.Second)
	for {
		if _, _, err := proto.Lookup(ctx, fs.Root(), "chaos-0"); err == nil {
			break
		}
		if time.Now().After(healedBy) {
			t.Fatal("session never recovered after link healed")
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i := 0; i < nFiles; i++ {
		if err := verify(i); err != nil {
			t.Fatalf("final pass: %v", err)
		}
	}

	s := stats()
	if s.Disconnects == 0 || s.Reconnects < 3 || s.Replays == 0 {
		t.Fatalf("recovery counters incomplete: %+v", s)
	}
	if fst := faulter.Stats(); fst.Cuts < 3 {
		t.Fatalf("faulter injected only %d cuts", fst.Cuts)
	}
}

// TestChaosAlternatingBackendCutsFlushAll: two backends, replicas 2 /
// quorum 1, and a link cut that alternates between them across three
// write+flush generations. Every FlushAll that returns nil is an ack to
// the application; once both links heal and background repair drains,
// both backends must hold every acked generation byte-identical — zero
// acked-write loss no matter which side of the pair was dark when the
// ack happened.
func TestChaosAlternatingBackendCutsFlushAll(t *testing.T) {
	t.Parallel()
	dc := newDiskCache(t)
	st := buildReplStack(t, replOpts{
		n: 2, replicas: 2, quorum: 1,
		diskCache:  dc,
		recovery:   fastRecovery(),
		ejectAfter: 1,
		probe:      20 * time.Millisecond,
	})
	fs := st.mount(t, nfsclient.Options{})
	ctx := context.Background()

	const fileSize = 64 * 1024
	write := func(gen int) {
		t.Helper()
		f, err := fs.Create(ctx, fmt.Sprintf("gen-%d.dat", gen), 0644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(ctx, chaosPayload(gen, fileSize), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// ejectDark drives namespace traffic (which fans to every backend
	// still marked healthy) until the dark backend's failures are
	// observed and it is ejected.
	junk := 0
	ejectDark := func(b int) {
		t.Helper()
		waitFor(t, 10*time.Second, fmt.Sprintf("backend %d ejection", b), func() bool {
			junk++
			if f, err := fs.Create(ctx, fmt.Sprintf("junk-%d", junk), 0644); err == nil {
				f.Close(ctx)
			}
			return st.stats.Backend(b).Ejections.Load() > 0
		})
	}

	// Generation 1: backend 0 goes dark mid-life; the flush must still
	// ack through backend 1.
	write(1)
	st.cutBackend(0)
	if err := st.cp.FlushAll(ctx); err != nil {
		t.Fatalf("FlushAll with backend 0 dark: %v", err)
	}
	ejectDark(0)

	// Generation 2: the cut alternates — 0 heals, 1 goes dark.
	st.healBackend(0)
	st.cutBackend(1)
	write(2)
	if err := st.cp.FlushAll(ctx); err != nil {
		t.Fatalf("FlushAll with backend 1 dark: %v", err)
	}
	ejectDark(1)

	// Generation 3: both links up (backend 1 may still be ejected until
	// a probe lands); the flush acks through whichever is healthy.
	st.healBackend(1)
	write(3)
	if err := st.cp.FlushAll(ctx); err != nil {
		t.Fatalf("FlushAll after healing: %v", err)
	}

	// Zero acked-write loss: every generation converges byte-identical
	// on BOTH backends once reintegration and repair drain.
	for b := range st.backends {
		for gen := 1; gen <= 3; gen++ {
			b, gen := b, gen
			name := fmt.Sprintf("gen-%d.dat", gen)
			waitFor(t, 15*time.Second,
				fmt.Sprintf("backend %d to hold %s", b, name), func() bool {
					got, err := backendFile(st.backends[b], name)
					return err == nil && bytes.Equal(got, chaosPayload(gen, fileSize))
				})
		}
	}

	// Both sides were ejected at some point, and the convergence above
	// came from the repair queue, not luck.
	if e0, e1 := st.stats.Backend(0).Ejections.Load(), st.stats.Backend(1).Ejections.Load(); e0 == 0 || e1 == 0 {
		t.Fatalf("expected ejections on both backends, got %d / %d", e0, e1)
	}
	if st.stats.RepairsQueued.Load() == 0 || st.stats.RepairedBlocks.Load() == 0 {
		t.Fatalf("repair not exercised: %+v", st.stats.Snapshot())
	}
	if st.stats.QuorumWrites.Load() == 0 {
		t.Fatalf("no quorum writes counted: %+v", st.stats.Snapshot())
	}
}

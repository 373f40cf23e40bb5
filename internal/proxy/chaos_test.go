package proxy

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/nfs3"
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
// with the link down and dials refused, cached lookups and reads must
// keep being served (disconnected operation); and the recovery counters
// must record all of it.
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
	// memory cache. verify drops the file from the disk cache first, so
	// that its LOOKUP and every READ cross the faulted WAN link: the
	// session caches would answer them all after the first pass.
	fs := st.mount(t, nfsclient.Options{CacheBytes: 1})
	proto := fs.Proto()
	ctx := context.Background()

	var fhs [nFiles]nfs3.FH3
	verify := func(i int) error {
		dc.DropFile(fhs[i])
		fh, _, err := proto.Lookup(ctx, fs.Root(), fmt.Sprintf("chaos-%d", i))
		if err != nil {
			return fmt.Errorf("lookup chaos-%d: %w", i, err)
		}
		fhs[i] = fh
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
	before := stats().DegradedReads
	if fh, _, err := proto.Lookup(ctx, fs.Root(), "chaos-0"); err != nil || !bytes.Equal(fh.Data, fh0.Data) {
		t.Fatalf("LOOKUP of a cached name while disconnected: %x, %v", fh.Data, err)
	}
	if s := stats(); s.DegradedReads == before {
		t.Fatalf("no degraded read counted for the cached LOOKUP: %+v", s)
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

	// Phase 3: the link heals; the next lookup, with chaos-0 dropped
	// from the cache so that it goes upstream, re-establishes the
	// session and the full dataset still verifies byte-identical.
	faulter.FailNextDials(0)
	dc.DropFile(fh0)
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

// TestChaosAlternatingBackendCutsFlushAll: two backends, quorum 1,
// and a link cut that alternates between them across three
// write+flush generations. Every FlushAll that returns nil is an ack to
// the application; once both links heal and the log replays,
// both backends must hold every acked generation byte-identical — zero
// acked-write loss no matter which side of the pair was dark when the
// ack happened.
func TestChaosAlternatingBackendCutsFlushAll(t *testing.T) {
	t.Parallel()
	dc := newDiskCache(t)
	st := buildReplStack(t, replOpts{
		n: 2, quorum: 1,
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
	// on BOTH backends once reintegration and replay drain.
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
	// came from replaying the log, not luck, with no backend retired.
	if e0, e1 := st.stats.Backend(0).Ejections.Load(), st.stats.Backend(1).Ejections.Load(); e0 == 0 || e1 == 0 {
		t.Fatalf("expected ejections on both backends, got %d / %d", e0, e1)
	}
	if st.stats.Replays.Load() == 0 || st.stats.Retirements.Load() != 0 {
		t.Fatalf("log replay not exercised, or a backend retired: %+v", st.stats.Snapshot())
	}
	if st.stats.QuorumWrites.Load() == 0 {
		t.Fatalf("no quorum writes counted: %+v", st.stats.Snapshot())
	}
}

// TestChaosNamespaceExactlyOnce: CREATE and REMOVE calls through a link
// that is cut every few milliseconds, and whose replies are tampered
// with, all succeed and each runs once at the backend. Pair i creates
// f-i and removes f-(i-1), so a CREATE run twice fails with EXIST, a
// REMOVE run twice fails with NOENT, and the backend ends holding f-last
// alone.
func TestChaosNamespaceExactlyOnce(t *testing.T) {
	faulter := netem.NewFaulter()
	st := buildStack(t, stackOpts{
		faulter: faulter,
		recovery: &RecoveryConfig{
			MaxAttempts:    50,
			BaseDelay:      time.Millisecond,
			MaxDelay:       20 * time.Millisecond,
			AttemptTimeout: 5 * time.Second,
			OpTimeout:      60 * time.Second,
		},
	})
	fs := st.mount(t, nfsclient.Options{CacheBytes: 1})
	proto := fs.Proto()
	ctx := context.Background()

	// Cut every link every 7 ms, once it has come back since the last
	// cut (so a slow run, under the race detector, still gets calls
	// through); each new link has one reply byte flipped somewhere in
	// its first 64 KiB, which the secure channel's MAC check refuses.
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(7 * time.Millisecond)
		defer tick.Stop()
		cutAt := ^uint64(0)
		for n := int64(0); ; n++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if r := st.clientProxy.ChannelStats().Reconnects; r != cutAt {
				cutAt = r
				faulter.CutAll(netem.FaultReset)
			}
			faulter.SetPlan(netem.FaultPlan{CutAfterBytes: 2048 + n*7919%(62<<10), Mode: netem.FaultTamper})
		}
	}()

	pairs := 1000
	if testing.Short() {
		pairs = 200
	}
	failed := 0
	for i := 0; i < pairs; i++ {
		if _, _, err := proto.Create(ctx, fs.Root(), fmt.Sprintf("f-%d", i), 0o644, true); err != nil {
			failed++
			t.Errorf("CREATE f-%d: %v", i, err)
		}
		if i == 0 {
			continue
		}
		if err := proto.Remove(ctx, fs.Root(), fmt.Sprintf("f-%d", i-1)); err != nil {
			failed++
			t.Errorf("REMOVE f-%d: %v", i-1, err)
		}
		if failed > 10 {
			break
		}
	}
	close(stop)
	<-done

	s := st.clientProxy.ChannelStats()
	fst := faulter.Stats()
	t.Logf("channel %+v, faulter %+v", s, fst)
	if s.Replays == 0 || fst.Tampers == 0 {
		t.Fatalf("no call was sent again (%d replays, %d tampered bytes): the faults missed the workload", s.Replays, fst.Tampers)
	}
	var names []string
	ents, _, err := st.backend.ReadDir(st.backend.Root(), 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name, "f-") {
			names = append(names, e.Name)
		}
	}
	if want := fmt.Sprintf("f-%d", pairs-1); failed == 0 && (len(names) != 1 || names[0] != want) {
		t.Fatalf("backend holds %v, want [%s]", names, want)
	}
}

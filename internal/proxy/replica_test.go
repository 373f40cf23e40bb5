package proxy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/netem"
	"repro/internal/nfs3"
	"repro/internal/nfsclient"
	"repro/internal/oncrpc"
	"repro/internal/placement"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// replStack is a replicated SGFS deployment: n independent
// MemFS-backed NFS servers, each behind its own server proxy, and one
// client proxy fanning out across them. Everything runs in gfs (plain)
// mode: replication semantics are orthogonal to channel security,
// which TestSecureEndToEnd already covers.
type replStack struct {
	backends []*vfs.MemFS
	faulters []*netem.Faulter
	stats    *metrics.ReplicaStats
	cp       *ClientProxy

	clientAddr string
}

type replOpts struct {
	n        int
	replicas int
	quorum   int

	diskCache  *cache.DiskCache
	recovery   *RecoveryConfig
	hedgeDelay time.Duration
	ejectAfter int
	probe      time.Duration
	rtts       []time.Duration // per-backend emulated link delay
	// wrapBackend, when set, puts backend i's NFS server over the file
	// system it returns instead of the bare MemFS.
	wrapBackend func(i int, mem *vfs.MemFS) vfs.FS
}

func buildReplStack(t testing.TB, opts replOpts) *replStack {
	t.Helper()
	if opts.n == 0 {
		opts.n = 3
	}
	st := &replStack{stats: metrics.NewReplicaStats(opts.n)}
	defs := make([]ReplicaBackendDef, opts.n)
	for i := 0; i < opts.n; i++ {
		backend := vfs.NewMemFS()
		st.backends = append(st.backends, backend)

		var exported vfs.FS = backend
		if opts.wrapBackend != nil {
			exported = opts.wrapBackend(i, backend)
		}
		nfsAddr := serveNFS(t, oncrpc.NewServer(), exported, uint64(i+1))

		sp, err := NewServerProxy(ServerConfig{
			UpstreamDial: func() (net.Conn, error) { return net.Dial("tcp", nfsAddr) },
			ExportPath:   "/GFS/alice",
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(sp.Close)
		spAddr := serveOn(t, sp.Serve)

		dial := func() (net.Conn, error) { return net.Dial("tcp", spAddr) }
		if opts.rtts != nil && opts.rtts[i] > 0 {
			dial = netem.Dialer(dial, netem.Config{RTT: opts.rtts[i]})
		}
		faulter := netem.NewFaulter()
		st.faulters = append(st.faulters, faulter)
		defs[i] = ReplicaBackendDef{Addr: spAddr, Dial: faulter.Dialer(dial)}
	}

	cp, err := NewClientProxy(ClientConfig{
		ExportPath: "/GFS/alice",
		DiskCache:  opts.diskCache,
		Recovery:   opts.recovery,
		Replication: &ReplicationConfig{
			Backends:      defs,
			Replicas:      opts.replicas,
			Quorum:        opts.quorum,
			HedgeDelay:    opts.hedgeDelay,
			EjectAfter:    opts.ejectAfter,
			ProbeInterval: opts.probe,
			Stats:         st.stats,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st.cp = cp
	t.Cleanup(func() { cp.Close() })
	st.clientAddr = serveOn(t, cp.Serve)
	return st
}

func (st *replStack) mount(t testing.TB, opt nfsclient.Options) *nfsclient.FileSystem {
	t.Helper()
	dial := func() (net.Conn, error) { return net.Dial("tcp", st.clientAddr) }
	fs, err := nfsclient.Mount(context.Background(), dial, "/GFS/alice", opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

// backendFile reads path (one level deep allowed via "/") from a
// backend MemFS directly.
func backendFile(fs *vfs.MemFS, name string) ([]byte, error) {
	h, attr, err := fs.Lookup(fs.Root(), name)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, attr.Size)
	n, _, err := fs.Read(h, 0, buf)
	if err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// cutBackend severs a backend's live connections and keeps its link
// down until healed.
func (st *replStack) cutBackend(i int) {
	st.faulters[i].FailNextDials(1 << 30)
	st.faulters[i].CutAll(netem.FaultReset)
}

func (st *replStack) healBackend(i int) {
	st.faulters[i].FailNextDials(0)
}

func fastRecovery() *RecoveryConfig {
	return &RecoveryConfig{
		MaxAttempts:    3,
		BaseDelay:      2 * time.Millisecond,
		MaxDelay:       20 * time.Millisecond,
		AttemptTimeout: 2 * time.Second,
		OpTimeout:      20 * time.Second,
	}
}

// TestHedgedFailoverErrorContext: when every read leg fails, the
// surfaced error must name the procedure and the backend that failed
// last (and wrap the underlying leg error), so operators can tell a
// dead pool from one bad replica.
func TestHedgedFailoverErrorContext(t *testing.T) {
	t.Parallel()
	stats := metrics.NewReplicaStats(2)
	place, err := placement.New([]placement.BackendInfo{
		{ID: 0, Addr: "10.0.0.1:2049"},
		{ID: 1, Addr: "10.0.0.2:2049"},
	}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rs := &replicaSet{
		cfg:   &ReplicationConfig{HedgeDelay: time.Millisecond},
		place: place,
		stats: stats,
	}
	for i, addr := range []string{"10.0.0.1:2049", "10.0.0.2:2049"} {
		rs.backs = append(rs.backs, &replicaBackend{id: i, addr: addr, set: rs, bs: stats.Backends[i]})
	}
	legErr := fmt.Errorf("dial tcp: connection refused")
	_, _, err = rs.hedged(context.Background(), nfs3.ProcRead, nfs3.FH3{Data: []byte("fh")}, 0,
		func(ctx context.Context, b *replicaBackend) (xdr.Unmarshaler, error) { return nil, legErr })
	if err == nil {
		t.Fatal("hedged returned nil though every leg failed")
	}
	if !errors.Is(err, legErr) {
		t.Errorf("err = %v, want it to wrap the leg error", err)
	}
	msg := err.Error()
	for _, want := range []string{"READ", "backend", ":2049", "2 read replica(s)"} {
		if !strings.Contains(msg, want) {
			t.Errorf("err = %q, missing %q", msg, want)
		}
	}
}

// TestReplicatedHedgedReads: with one backend on a slow emulated link
// and an aggressive hedge delay, reads must fire hedges and fast
// replicas must win them.
func TestReplicatedHedgedReads(t *testing.T) {
	t.Parallel()
	st := buildReplStack(t, replOpts{
		n: 3, quorum: 2,
		recovery:   fastRecovery(),
		hedgeDelay: 3 * time.Millisecond,
		rtts:       []time.Duration{0, 0, 60 * time.Millisecond},
	})
	fs := st.mount(t, nfsclient.Options{CacheBytes: 1})
	ctx := context.Background()

	// Many small files: placement rotates the primary, so the slow
	// backend leads some replica sets and hedges fire there.
	for i := 0; i < 12; i++ {
		f, err := fs.Create(ctx, fmt.Sprintf("h-%d", i), 0644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(ctx, chaosPayload(i, 8*1024), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// Reads steer clear of a replica with mutation legs outstanding, so
	// let the slow backend's stragglers land first: the hedge under test
	// is against a replica that is slow, not one that is behind.
	waitFor(t, 10*time.Second, "the slow backend to catch up", func() bool {
		return st.cp.up.(*replicaSet).backs[2].behind.Load() == 0
	})
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 12; i++ {
			fh, _, err := fs.Proto().Lookup(ctx, fs.Root(), fmt.Sprintf("h-%d", i))
			if err != nil {
				t.Fatal(err)
			}
			data, _, err := fs.Proto().Read(ctx, fh, 0, 8*1024)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, chaosPayload(i, 8*1024)) {
				t.Fatalf("h-%d corrupted", i)
			}
		}
	}
	if st.stats.HedgedReads.Load() == 0 {
		t.Fatalf("no hedged reads with a 60ms-slow replica: %+v", st.stats.Snapshot())
	}
	if st.stats.HedgeWins.Load() == 0 {
		t.Fatalf("no hedge wins: %+v", st.stats.Snapshot())
	}
}

// cutOnWrite is a backend that runs cut, once, on the first WRITE it
// receives.
type cutOnWrite struct {
	*vfs.MemFS
	once sync.Once
	cut  func()
}

func (b *cutOnWrite) Write(h vfs.Handle, off uint64, data []byte) error {
	b.once.Do(b.cut)
	return b.MemFS.Write(h, off, data)
}

// TestChaosReplicatedBackendKillMidFlush is the tentpole acceptance
// scenario: 3 backends, quorum 2, and each backend in turn is killed
// in the middle of a parallel FlushAll. The flush must succeed with
// zero errors surfaced (quorum holds on the two survivors), the
// survivors must hold every acked byte, and after the dead backend
// heals, ejection/probe/reintegration plus background repair must
// converge it to the same bytes.
func TestChaosReplicatedBackendKillMidFlush(t *testing.T) {
	for victim := 0; victim < 3; victim++ {
		victim := victim
		t.Run(fmt.Sprintf("victim-%d", victim), func(t *testing.T) {
			t.Parallel()
			dc := newDiskCache(t)
			var st *replStack
			st = buildReplStack(t, replOpts{
				n: 3, quorum: 2,
				diskCache:  dc,
				recovery:   fastRecovery(),
				ejectAfter: 2,
				probe:      20 * time.Millisecond,
				rtts:       []time.Duration{2 * time.Millisecond, 2 * time.Millisecond, 2 * time.Millisecond},
				// The victim's link is cut by the first WRITE to reach
				// it, which only the flush sends (the cache holds the
				// files' data until then): the cut lands while the rest
				// of the flush's WRITE fan-outs are in flight, however
				// fast one WAN window of them drains.
				wrapBackend: func(i int, mem *vfs.MemFS) vfs.FS {
					if i != victim {
						return mem
					}
					return &cutOnWrite{MemFS: mem, cut: func() { st.cutBackend(victim) }}
				},
			})
			fs := st.mount(t, nfsclient.Options{})
			ctx := context.Background()

			const nFiles = 6
			const fileSize = 128 * 1024
			for i := 0; i < nFiles; i++ {
				f, err := fs.Create(ctx, fmt.Sprintf("c-%d", i), 0644)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt(ctx, chaosPayload(i, fileSize), 0); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(ctx); err != nil {
					t.Fatal(err)
				}
			}

			// The victim dies mid-flush; no error surfaces while quorum
			// holds.
			if err := st.cp.FlushAll(ctx); err != nil {
				t.Fatalf("FlushAll with one backend killed: %v", err)
			}

			// Every acked byte is on both survivors.
			for i := 0; i < nFiles; i++ {
				name := fmt.Sprintf("c-%d", i)
				want := chaosPayload(i, fileSize)
				for b := 0; b < 3; b++ {
					if b == victim {
						continue
					}
					b := b
					waitFor(t, 15*time.Second, fmt.Sprintf("%s on backend %d", name, b), func() bool {
						got, err := backendFile(st.backends[b], name)
						return err == nil && bytes.Equal(got, want)
					})
				}
			}

			// Reads still work with the victim down (failover path), and
			// read traffic observes the failures until ejection trips.
			vb := st.stats.Backend(victim)
			waitFor(t, 15*time.Second, "victim ejection", func() bool {
				for i := 0; i < nFiles; i++ {
					fh, _, err := fs.Proto().Lookup(ctx, fs.Root(), fmt.Sprintf("c-%d", i))
					if err != nil {
						t.Fatalf("lookup with backend down: %v", err)
					}
					if _, _, err := fs.Proto().Read(ctx, fh, 0, 32*1024); err != nil {
						t.Fatalf("read with backend down: %v", err)
					}
				}
				return vb.Ejections.Load() > 0
			})

			// While the victim stays dark, the probe loop must keep
			// knocking (failed probes still count).
			waitFor(t, 15*time.Second, "probes against dead victim", func() bool {
				return vb.Probes.Load() > 0
			})

			// The victim heals: probes (or resumed traffic) reintegrate
			// it, and repair converges its data.
			st.healBackend(victim)
			waitFor(t, 15*time.Second, "victim reintegration", func() bool {
				return metrics.BackendHealth(vb.Health.Load()) == metrics.BackendHealthy
			})
			if vb.Reintegrations.Load() == 0 {
				t.Fatal("reintegration not recorded")
			}
			for i := 0; i < nFiles; i++ {
				name := fmt.Sprintf("c-%d", i)
				want := chaosPayload(i, fileSize)
				waitFor(t, 20*time.Second, fmt.Sprintf("repair of %s on victim", name), func() bool {
					got, err := backendFile(st.backends[victim], name)
					return err == nil && bytes.Equal(got, want)
				})
			}
			if st.stats.RepairsQueued.Load() == 0 {
				t.Fatalf("no repair queued: %+v", st.stats.Snapshot())
			}
			// A leg whose WRITE landed but whose reply the cut lost is
			// queued too, so the victim can hold every byte before the
			// repairs, backing off while it was ejected, have run.
			waitFor(t, 20*time.Second, "queued repairs to run", func() bool {
				return st.stats.RepairedBlocks.Load() > 0
			})
		})
	}
}

// TestChaosReplicatedQuorumLossDegradesReadOnly: when two of three
// backends die, the mount must not fail — reads keep being served from
// the disk cache and the survivor, writes are absorbed by the
// write-back cache (staying dirty), and the proxy reports degraded
// operation until quorum returns.
func TestChaosReplicatedQuorumLossDegradesReadOnly(t *testing.T) {
	t.Parallel()
	dc := newDiskCache(t)
	st := buildReplStack(t, replOpts{
		n: 3, quorum: 2,
		diskCache:  dc,
		recovery:   fastRecovery(),
		ejectAfter: 1,
		probe:      20 * time.Millisecond,
	})
	fs := st.mount(t, nfsclient.Options{CacheBytes: 1})
	ctx := context.Background()

	payload := chaosPayload(3, 64*1024)
	f, err := fs.Create(ctx, "survivor.dat", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(ctx, payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st.cp.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	fh, _, err := fs.Proto().Lookup(ctx, fs.Root(), "survivor.dat")
	if err != nil {
		t.Fatal(err)
	}
	// Prime the block cache so degraded reads have a local copy.
	if _, _, err := fs.Proto().Read(ctx, fh, 0, 64*1024); err != nil {
		t.Fatal(err)
	}

	// Kill two backends: quorum (2) is lost. Namespace fan-outs observe
	// the dead links and trip ejection; the mount must survive.
	st.cutBackend(1)
	st.cutBackend(2)
	junk := 0
	waitFor(t, 15*time.Second, "degraded mode after quorum loss", func() bool {
		// Mutations may fail once quorum is gone — that is the point —
		// but they must fail as clean errors, not hangs.
		f, err := fs.Create(ctx, fmt.Sprintf("junk-%d", junk), 0644)
		if err == nil {
			f.Close(ctx)
		}
		junk++
		return st.cp.degraded()
	})
	if st.stats.QuorumLost.Load() == 0 {
		t.Fatalf("quorum loss not counted: %+v", st.stats.Snapshot())
	}

	// Reads still answer (cache + surviving replica), with no error to
	// the VFS layer.
	if _, err := fs.Proto().GetAttr(ctx, fh); err != nil {
		t.Fatalf("GETATTR degraded: %v", err)
	}
	data, _, err := fs.Proto().Read(ctx, fh, 0, 32*1024)
	if err != nil {
		t.Fatalf("READ degraded: %v", err)
	}
	if !bytes.Equal(data, payload[:32*1024]) {
		t.Fatal("degraded read corrupted")
	}

	// Writes to existing files are absorbed by the write-back cache
	// (read-only toward the backends, not toward the application); they
	// stay dirty until quorum returns.
	rev := chaosPayload(8, 64*1024)
	g, err := fs.Open(ctx, "survivor.dat")
	if err != nil {
		t.Fatalf("open while degraded: %v", err)
	}
	if _, err := g.WriteAt(ctx, rev, 0); err != nil {
		t.Fatalf("write while degraded: %v", err)
	}
	if err := g.Close(ctx); err != nil {
		t.Fatalf("close while degraded: %v", err)
	}

	// Quorum returns: degradation ends and the held-back data flushes.
	st.healBackend(1)
	st.healBackend(2)
	waitFor(t, 15*time.Second, "quorum recovery", func() bool { return !st.cp.degraded() })
	if err := st.cp.FlushAll(ctx); err != nil {
		t.Fatalf("FlushAll after recovery: %v", err)
	}
	// Each block is acked at quorum, not necessarily by the same pair
	// of backends, so whole-file convergence can trail the flush by a
	// straggler leg.
	waitFor(t, 10*time.Second, "the degraded-period write to reach a quorum of backends", func() bool {
		converged := 0
		for i := range st.backends {
			if got, err := backendFile(st.backends[i], "survivor.dat"); err == nil && bytes.Equal(got, rev) {
				converged++
			}
		}
		return converged >= 2
	})
}

// TestChaosReplicatedKillMidReadahead cuts a backend in the middle of
// a sequential readahead stream: the stream must complete
// byte-identical via failover, with no error surfaced.
func TestChaosReplicatedKillMidReadahead(t *testing.T) {
	t.Parallel()
	dc := newDiskCache(t)
	st := buildReplStack(t, replOpts{
		n: 3, quorum: 2,
		diskCache:  dc,
		recovery:   fastRecovery(),
		ejectAfter: 2,
		probe:      20 * time.Millisecond,
	})
	// Plant the dataset on every backend directly (pre-replicated
	// state), so the read path is exercised without a flush first.
	const fileSize = 512 * 1024
	payload := chaosPayload(9, fileSize)
	for _, be := range st.backends {
		h, _, err := be.Create(be.Root(), "stream.dat", vfs.SetAttr{}, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := be.Write(h, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	fs := st.mount(t, nfsclient.Options{CacheBytes: 1})
	ctx := context.Background()
	fh, _, err := fs.Proto().Lookup(ctx, fs.Root(), "stream.dat")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 0, fileSize)
	cutAt := fileSize / 2
	cut := false
	for len(got) < fileSize {
		if !cut && len(got) >= cutAt {
			st.cutBackend(0)
			cut = true
		}
		data, eof, err := fs.Proto().Read(ctx, fh, uint64(len(got)), 32*1024)
		if err != nil {
			t.Fatalf("read @%d mid-cut: %v", len(got), err)
		}
		got = append(got, data...)
		if eof {
			break
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("streamed data corrupted: %d bytes", len(got))
	}
	st.healBackend(0)
}

// TestChaosReplicatedKillDuringReintegration ejects a backend, lets it
// heal, then cuts it again while probes and repair are converging it —
// the second ejection must be as clean as the first and the cluster
// must still converge once it finally stays up.
func TestChaosReplicatedKillDuringReintegration(t *testing.T) {
	t.Parallel()
	dc := newDiskCache(t)
	st := buildReplStack(t, replOpts{
		n: 3, quorum: 2,
		diskCache:  dc,
		recovery:   fastRecovery(),
		ejectAfter: 1,
		probe:      10 * time.Millisecond,
	})
	fs := st.mount(t, nfsclient.Options{})
	ctx := context.Background()

	write := func(name string, seed int) {
		f, err := fs.Create(ctx, name, 0644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(ctx, chaosPayload(seed, 64*1024), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(ctx); err != nil {
			t.Fatal(err)
		}
		if err := st.cp.FlushAll(ctx); err != nil {
			t.Fatalf("FlushAll: %v", err)
		}
	}

	write("gen-1.dat", 1)
	st.cutBackend(2)
	write("gen-2.dat", 2) // quorum of the two survivors
	vb := st.stats.Backend(2)
	waitFor(t, 10*time.Second, "first ejection", func() bool {
		return metrics.BackendHealth(vb.Health.Load()) != metrics.BackendHealthy
	})

	// Heal, and cut again as soon as reintegration lands (repair may be
	// mid-flight).
	st.healBackend(2)
	waitFor(t, 10*time.Second, "reintegration", func() bool {
		return metrics.BackendHealth(vb.Health.Load()) == metrics.BackendHealthy
	})
	st.cutBackend(2)
	write("gen-3.dat", 3)
	waitFor(t, 10*time.Second, "second ejection", func() bool {
		return metrics.BackendHealth(vb.Health.Load()) != metrics.BackendHealthy
	})

	// Final heal: everything converges.
	st.healBackend(2)
	waitFor(t, 10*time.Second, "final reintegration", func() bool {
		return metrics.BackendHealth(vb.Health.Load()) == metrics.BackendHealthy
	})
	for _, name := range []string{"gen-1.dat", "gen-2.dat", "gen-3.dat"} {
		seed := int(name[4] - '0')
		want := chaosPayload(seed, 64*1024)
		waitFor(t, 20*time.Second, "convergence of "+name, func() bool {
			got, err := backendFile(st.backends[2], name)
			return err == nil && bytes.Equal(got, want)
		})
	}
	if vb.Ejections.Load() < 2 {
		t.Fatalf("expected two ejections, saw %d", vb.Ejections.Load())
	}
	if vb.Reintegrations.Load() < 2 {
		t.Fatalf("expected two reintegrations, saw %d", vb.Reintegrations.Load())
	}
}

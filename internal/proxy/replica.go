package proxy

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/placement"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// Replicated upstream. The paper's client proxy speaks to exactly one
// server proxy, so that server is a single point of failure for the
// whole mount. replicaSet replaces the single upstream with k-way
// block replication across N server proxies behind the same upstream
// interface the rest of the proxy already uses: the write-back cache,
// the flush worker pool and the readahead path all fan out through it
// unchanged.
//
//   - Mutations fan out concurrently and are acknowledged at quorum;
//     stragglers keep running on detached deadlines and failed write
//     legs are queued for background repair.
//   - Reads go to the fastest replica, with a hedged second request
//     after HedgeDelay and failover to the remaining replicas.
//   - Each backend has its own ReconnectClient and health state:
//     consecutive transport failures eject it, jittered probes
//     reintegrate it, and while fewer than quorum backends are healthy
//     the proxy degrades to read-only service from the disk cache and
//     the surviving replicas (writes stay dirty in the cache instead
//     of surfacing errors to the VFS layer).
//
// Backends are independent file systems with independent file handles,
// so the replica layer runs its own canonical handle namespace: the
// handles it returns to the VFS layer are deterministic hashes of
// (parent handle, name), identical no matter which backend answered,
// and are translated per backend through lazy LOOKUP walks. WRITEs are
// issued FILE_SYNC on every backend — cross-backend COMMIT verifiers
// do not compose, and a stable write is the only durability statement
// that survives a backend restart mid-flush.

// ErrQuorumLost is returned (wrapped) when a mutation cannot reach a
// write quorum of replica backends.
var ErrQuorumLost = errors.New("proxy: replica write quorum lost")

// ReplicaBackendDef names one replica backend endpoint.
type ReplicaBackendDef struct {
	// Addr is informational (logs, placement identity).
	Addr string
	// Dial connects to this backend's server proxy.
	Dial Dialer
}

// ReplicationConfig enables the replicated multi-backend upstream.
type ReplicationConfig struct {
	// Backends lists the replica pool; backend IDs are indices into
	// this slice.
	Backends []ReplicaBackendDef
	// Replicas (k) and Quorum follow placement defaults when zero:
	// k = min(3, len(Backends)), quorum = k/2+1.
	Replicas int
	Quorum   int
	// HedgeDelay is how long a read waits on the primary replica
	// before launching a hedged second request (default 30ms).
	HedgeDelay time.Duration
	// EjectAfter is the consecutive transport-failure count that
	// ejects a backend (default 3).
	EjectAfter int
	// ProbeInterval paces (with jitter) the reintegration probes of an
	// ejected backend (default 500ms).
	ProbeInterval time.Duration
	// RepairQueue bounds the background repair queue (default 256);
	// overflow is shed and counted, never blocked on.
	RepairQueue int
	// Stats accumulates replication counters; one is created when nil.
	Stats *metrics.ReplicaStats
}

func (c *ReplicationConfig) hedgeDelay() time.Duration {
	if c.HedgeDelay > 0 {
		return c.HedgeDelay
	}
	return 30 * time.Millisecond
}

func (c *ReplicationConfig) ejectAfter() int {
	if c.EjectAfter > 0 {
		return c.EjectAfter
	}
	return 3
}

func (c *ReplicationConfig) probeInterval() time.Duration {
	if c.ProbeInterval > 0 {
		return c.ProbeInterval
	}
	return 500 * time.Millisecond
}

func (c *ReplicationConfig) repairQueue() int {
	if c.RepairQueue > 0 {
		return c.RepairQueue
	}
	return 256
}

// repairMaxAttempts bounds how often one repair job is retried before
// it is shed (a later flush round or read failover covers the block).
const repairMaxAttempts = 10

// nameEntry records how a canonical handle was minted, so any backend
// can re-derive its local handle by walking LOOKUPs.
type nameEntry struct {
	parent string // canonical key of the parent directory
	name   string
}

// canonNS is the canonical handle namespace shared by all backends.
type canonNS struct {
	root nfs3.FH3

	mu      sync.Mutex
	entries map[string]nameEntry
}

func newCanonNS() *canonNS {
	sum := sha256.Sum256([]byte("sgfs/replica/root"))
	return &canonNS{
		root:    nfs3.FH3{Data: sum[:16]},
		entries: make(map[string]nameEntry),
	}
}

func (ns *canonNS) isRoot(fh nfs3.FH3) bool { return bytes.Equal(fh.Data, ns.root.Data) }

// key derives the canonical key for a directory entry without
// recording it.
func (ns *canonNS) key(dir nfs3.FH3, name string) string {
	h := sha256.New()
	h.Write(dir.Data)
	h.Write([]byte{0})
	h.Write([]byte(name))
	return string(h.Sum(nil)[:16])
}

// child mints (and records) the canonical handle of dir/name. "." and
// ".." never mint: they resolve structurally.
func (ns *canonNS) child(dir nfs3.FH3, name string) nfs3.FH3 {
	if name == "." {
		return dir
	}
	if name == ".." {
		ns.mu.Lock()
		e, ok := ns.entries[string(dir.Data)]
		ns.mu.Unlock()
		if ok {
			return nfs3.FH3{Data: []byte(e.parent)}
		}
		return ns.root
	}
	key := ns.key(dir, name)
	ns.mu.Lock()
	ns.entries[key] = nameEntry{parent: string(dir.Data), name: name}
	ns.mu.Unlock()
	return nfs3.FH3{Data: []byte(key)}
}

func (ns *canonNS) entry(key string) (nameEntry, bool) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	e, ok := ns.entries[key]
	return e, ok
}

func (ns *canonNS) forget(key string) {
	ns.mu.Lock()
	delete(ns.entries, key)
	ns.mu.Unlock()
}

// rebind repoints an existing canonical handle at a new (parent, name)
// pair: RENAME keeps the canonical identity (NFS handles survive
// renames) and only the resolution path changes.
func (ns *canonNS) rebind(key string, parent nfs3.FH3, name string) {
	ns.mu.Lock()
	ns.entries[key] = nameEntry{parent: string(parent.Data), name: name}
	ns.mu.Unlock()
}

// fileidOf derives a stable fileid from a canonical handle, so the
// local NFS client sees one inode number for a file no matter which
// backend answered.
func fileidOf(fh nfs3.FH3) uint64 {
	if len(fh.Data) >= 8 {
		return binary.BigEndian.Uint64(fh.Data[:8])
	}
	return 0
}

// replicaFSID is the synthetic fsid presented for replicated mounts;
// backends report their own fsids, which must not leak (they differ).
const replicaFSID = 0x5247 // "RG"

func canonFattr(a *nfs3.Fattr3, fh nfs3.FH3) {
	a.FileID = fileidOf(fh)
	a.FSID = replicaFSID
}

func canonPostOp(a *nfs3.PostOpAttr, fh nfs3.FH3) {
	if a.Present {
		canonFattr(&a.Attr, fh)
	}
}

func canonWcc(w *nfs3.WccData, fh nfs3.FH3) {
	canonPostOp(&w.After, fh)
}

// replicaBackend is one backend: its reconnecting session, its
// per-backend handle translations, and its health state machine.
type replicaBackend struct {
	id     int
	addr   string
	dialFn Dialer
	set    *replicaSet
	up     *oncrpc.ReconnectClient
	bs     *metrics.BackendStats

	mu       sync.Mutex
	root     nfs3.FH3
	haveRoot bool
	fhs      map[string]nfs3.FH3 // canonical key -> this backend's handle

	fails   atomic.Int32
	probing atomic.Bool

	// behind counts mutation legs issued to this backend that have not
	// finished. A quorum ack returns while stragglers still run, so a
	// backend with behind > 0 may not have applied a mutation its
	// caller already saw acknowledged; reads prefer the others.
	behind atomic.Int32
	// legs is held shared by every running mutation leg. A leg that
	// finds a name missing takes it exclusively for a moment, which
	// waits out the legs then in flight (see runLeg).
	legs sync.RWMutex
}

// dial is this backend's session factory: it runs on every reconnect,
// so it only issues the idempotent session-establishment steps
// (handshake + MOUNT).
func (b *replicaBackend) dial(ctx context.Context) (*oncrpc.Client, error) {
	cl, root, _, err := b.set.p.sessionVia(ctx, b.dialFn)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	if b.haveRoot && !bytes.Equal(root.Data, b.root.Data) {
		b.mu.Unlock()
		cl.Close()
		return nil, fmt.Errorf("proxy: backend %d: export root changed across reconnect", b.id)
	}
	b.root = root
	b.haveRoot = true
	b.mu.Unlock()
	return cl, nil
}

func (b *replicaBackend) health() metrics.BackendHealth {
	return metrics.BackendHealth(b.bs.Health.Load())
}

func (b *replicaBackend) healthy() bool { return b.health() == metrics.BackendHealthy }

// call issues one RPC on this backend and feeds the outcome to the
// health state machine.
func (b *replicaBackend) call(ctx context.Context, proc uint32, args xdr.Marshaler, reply xdr.Unmarshaler) error {
	b.bs.Calls.Add(1)
	err := b.up.Call(ctx, proc, args, reply)
	b.observe(ctx, err)
	return err
}

// observe updates health: any failure that is not our own cancellation
// counts toward ejection (hedge losers are cancelled, not failed), any
// success heals.
func (b *replicaBackend) observe(ctx context.Context, err error) {
	if err == nil {
		b.fails.Store(0)
		if !b.healthy() {
			b.reintegrate()
		}
		return
	}
	if errors.Is(ctx.Err(), context.Canceled) {
		return
	}
	b.bs.Failures.Add(1)
	if int(b.fails.Add(1)) >= b.set.cfg.ejectAfter() {
		b.eject()
	}
}

// eject moves Healthy -> Ejected and starts the reintegration probe
// loop. Crossing below quorum is the transition into degraded
// read-only service.
func (b *replicaBackend) eject() {
	if !b.bs.Health.CompareAndSwap(int32(metrics.BackendHealthy), int32(metrics.BackendEjected)) {
		return
	}
	b.bs.Ejections.Add(1)
	if b.set.healthyCount() < b.set.place.Quorum {
		b.set.stats.QuorumLost.Add(1)
	}
	b.startProbe()
}

func (b *replicaBackend) startProbe() {
	if !b.probing.CompareAndSwap(false, true) {
		return
	}
	b.set.wg.Add(1)
	go b.probeLoop()
}

// probeLoop runs jittered reintegration probes against an ejected
// backend until one succeeds (Ejected -> Probing -> Healthy) or the
// replica set shuts down. The probe is a GETATTR of the backend's
// export root: issuing it forces the reconnect layer to re-establish
// the whole session (dial, handshake, MOUNT) first.
func (b *replicaBackend) probeLoop() {
	defer b.set.wg.Done()
	defer b.probing.Store(false)
	b.bs.Health.CompareAndSwap(int32(metrics.BackendEjected), int32(metrics.BackendProbing))
	interval := b.set.cfg.probeInterval()
	for {
		select {
		case <-b.set.done:
			return
		case <-time.After(jitterDuration(interval)):
		}
		if b.healthy() { // healed by regular traffic
			return
		}
		b.bs.Probes.Add(1)
		ctx, cancel := context.WithTimeout(context.Background(), 4*interval)
		var res nfs3.GetAttrRes
		err := b.up.Call(ctx, nfs3.ProcGetAttr, &nfs3.GetAttrArgs{Obj: b.rootFH()}, &res)
		cancel()
		if err == nil {
			b.reintegrate()
			return
		}
	}
}

// jitterDuration returns a uniformly random duration in [d/2, d), so
// probes from many backends (and many proxies) do not synchronize.
func jitterDuration(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)))
}

func (b *replicaBackend) reintegrate() {
	for {
		s := b.bs.Health.Load()
		if s == int32(metrics.BackendHealthy) {
			return
		}
		if b.bs.Health.CompareAndSwap(s, int32(metrics.BackendHealthy)) {
			b.fails.Store(0)
			b.bs.Reintegrations.Add(1)
			return
		}
	}
}

// rootFH returns the backend's export root as last established; the
// zero handle before the first session, which still round-trips as a
// valid (refused in-band) probe argument.
func (b *replicaBackend) rootFH() nfs3.FH3 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.root
}

func (b *replicaBackend) cacheFH(key string, fh nfs3.FH3) {
	b.mu.Lock()
	b.fhs[key] = fh
	b.mu.Unlock()
}

func (b *replicaBackend) dropFH(key string) {
	b.mu.Lock()
	delete(b.fhs, key)
	b.mu.Unlock()
}

// resolveMode selects how resolve treats missing path components.
type resolveMode int

const (
	// resolveOnly fails on a missing component (read paths: a miss
	// means this backend diverged; fail over to another replica).
	resolveOnly resolveMode = iota
	// resolveCreateDirs materializes missing ancestors as directories
	// (write fan-out and repair heal namespace divergence lazily).
	resolveCreateDirs
	// resolveCreateFile additionally materializes a missing leaf as a
	// file via CREATE UNCHECKED (open-or-create: effectively
	// idempotent, so safe to re-issue).
	resolveCreateFile
)

// resolve translates a canonical handle into this backend's handle,
// walking LOOKUPs from the nearest cached ancestor and optionally
// creating missing components.
func (b *replicaBackend) resolve(ctx context.Context, fh nfs3.FH3, mode resolveMode) (nfs3.FH3, error) {
	ns := b.set.ns
	if ns.isRoot(fh) {
		b.mu.Lock()
		have, root := b.haveRoot, b.root
		b.mu.Unlock()
		if have {
			return root, nil
		}
		// No session yet: any call forces the reconnect layer to dial,
		// and the session factory records the root as a side effect.
		var res nfs3.GetAttrRes
		if err := b.call(ctx, nfs3.ProcGetAttr, &nfs3.GetAttrArgs{Obj: nfs3.FH3{}}, &res); err != nil {
			return nfs3.FH3{}, err
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		if !b.haveRoot {
			return nfs3.FH3{}, fmt.Errorf("proxy: backend %d: no export root after session establishment", b.id)
		}
		return b.root, nil
	}
	key := string(fh.Data)
	b.mu.Lock()
	cached, ok := b.fhs[key]
	b.mu.Unlock()
	if ok {
		return cached, nil
	}
	ent, ok := ns.entry(key)
	if !ok {
		return nfs3.FH3{}, fmt.Errorf("proxy: backend %d: unknown canonical handle", b.id)
	}
	parentMode := resolveOnly
	if mode != resolveOnly {
		parentMode = resolveCreateDirs
	}
	parent, err := b.resolve(ctx, nfs3.FH3{Data: []byte(ent.parent)}, parentMode)
	if err != nil {
		return nfs3.FH3{}, err
	}
	lookup := func() (nfs3.FH3, nfs3.Status, error) {
		var res nfs3.LookupRes
		args := &nfs3.LookupArgs{What: nfs3.DirOpArgs{Dir: parent, Name: ent.name}}
		if err := b.call(ctx, nfs3.ProcLookup, args, &res); err != nil {
			return nfs3.FH3{}, 0, err
		}
		return res.Obj, res.Status, nil
	}
	got, status, err := lookup()
	if err != nil {
		return nfs3.FH3{}, err
	}
	if status == nfs3.OK {
		b.cacheFH(key, got)
		return got, nil
	}
	if status != nfs3.Status(vfs.ErrNoEnt) || mode == resolveOnly {
		return nfs3.FH3{}, fmt.Errorf("proxy: backend %d: resolve %q: %w", b.id, ent.name, vfs.Errno(status))
	}
	// Missing on this backend: materialize it (lazy divergence heal).
	var res nfs3.CreateRes
	where := nfs3.DirOpArgs{Dir: parent, Name: ent.name}
	if mode == resolveCreateDirs {
		args := &nfs3.MkdirArgs{Where: where, Attr: nfs3.Sattr3{SetMode: true, Mode: 0o755}}
		err = b.call(ctx, nfs3.ProcMkdir, args, &res)
	} else {
		args := &nfs3.CreateArgs{Where: where, Mode: nfs3.CreateUnchecked, Attr: nfs3.Sattr3{SetMode: true, Mode: 0o644}}
		err = b.call(ctx, nfs3.ProcCreate, args, &res)
	}
	if err != nil {
		return nfs3.FH3{}, err
	}
	if res.Status == nfs3.OK && res.Obj.Present {
		b.cacheFH(key, res.Obj.FH)
		return res.Obj.FH, nil
	}
	// Lost a creation race (or EXIST): the entry is there now.
	got, status, err = lookup()
	if err != nil {
		return nfs3.FH3{}, err
	}
	if status != nfs3.OK {
		return nfs3.FH3{}, fmt.Errorf("proxy: backend %d: materialize %q: %w", b.id, ent.name, vfs.Errno(status))
	}
	b.cacheFH(key, got)
	return got, nil
}

// callWrite issues one replicated WRITE leg. Replica writes are always
// FILE_SYNC, identical bytes at an absolute offset, so when the
// reconnect layer refuses to replay a WRITE that was in flight during
// a transport failure (oncrpc.ErrNonIdempotentReplay), re-executing it
// on the fresh session is harmless and the leg retries once.
func (b *replicaBackend) callWrite(ctx context.Context, a *nfs3.WriteArgs, res *nfs3.WriteRes) error {
	err := b.call(ctx, nfs3.ProcWrite, a, res)
	if errors.Is(err, oncrpc.ErrNonIdempotentReplay) {
		*res = nfs3.WriteRes{}
		err = b.call(ctx, nfs3.ProcWrite, a, res)
	}
	return err
}

// repairJob is one failed write leg queued for background repair: the
// canonical-form FILE_SYNC write to re-apply to one backend.
type repairJob struct {
	backend int
	args    *nfs3.WriteArgs // canonical handle, FILE_SYNC
	version uint64          // write-version of the block when queued
	attempt int
}

// replicaSet is the replicated upstream; it implements the same
// upstream interface as a single RPC client, so the whole proxy data
// path runs over it unchanged.
type replicaSet struct {
	p     *ClientProxy
	cfg   *ReplicationConfig
	place *placement.Placement
	stats *metrics.ReplicaStats
	ns    *canonNS
	backs []*replicaBackend

	blockSize uint64

	// versions orders writes per (file, block) so a delayed repair can
	// never clobber a newer quorum-acked write with stale bytes.
	verMu    sync.Mutex
	versions map[string]uint64

	repairq   chan repairJob
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// newReplicaSet dials the backend pool (tolerating dead backends as
// long as a quorum comes up; the dead ones start ejected and are
// probed back in) and starts the repair worker.
func newReplicaSet(ctx context.Context, p *ClientProxy, cfg *ReplicationConfig) (*replicaSet, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("proxy: replication needs at least one backend")
	}
	infos := make([]placement.BackendInfo, len(cfg.Backends))
	for i, bd := range cfg.Backends {
		infos[i] = placement.BackendInfo{ID: i, Addr: bd.Addr}
	}
	place, err := placement.New(infos, cfg.Replicas, cfg.Quorum)
	if err != nil {
		return nil, err
	}
	stats := cfg.Stats
	if stats == nil {
		stats = metrics.NewReplicaStats(len(cfg.Backends))
	}
	if len(stats.Backends) != len(cfg.Backends) {
		return nil, fmt.Errorf("proxy: replica stats sized for %d backends, have %d", len(stats.Backends), len(cfg.Backends))
	}
	bs := uint64(32 * 1024)
	if p.cfg.DiskCache != nil {
		bs = uint64(p.cfg.DiskCache.BlockSize())
	}
	rs := &replicaSet{
		p:         p,
		cfg:       cfg,
		place:     place,
		stats:     stats,
		ns:        newCanonNS(),
		blockSize: bs,
		versions:  make(map[string]uint64),
		repairq:   make(chan repairJob, cfg.repairQueue()),
		done:      make(chan struct{}),
	}
	rec := p.cfg.Recovery
	if rec == nil {
		rec = &RecoveryConfig{}
	}
	var dialWG sync.WaitGroup
	firsts := make([]*oncrpc.Client, len(cfg.Backends))
	errs := make([]error, len(cfg.Backends))
	for i, bd := range cfg.Backends {
		b := &replicaBackend{
			id:     i,
			addr:   bd.Addr,
			dialFn: bd.Dial,
			set:    rs,
			bs:     stats.Backend(i),
			fhs:    make(map[string]nfs3.FH3),
		}
		rs.backs = append(rs.backs, b)
		dialWG.Add(1)
		go func(i int, b *replicaBackend) {
			defer dialWG.Done()
			firsts[i], errs[i] = b.dial(ctx)
		}(i, b)
	}
	dialWG.Wait()
	up := 0
	for i, b := range rs.backs {
		b.up = oncrpc.NewReconnectClient(firsts[i], b.dial, oncrpc.ReconnectOpts{
			MaxAttempts:    rec.MaxAttempts,
			BaseDelay:      rec.BaseDelay,
			MaxDelay:       rec.MaxDelay,
			AttemptTimeout: rec.attemptTimeout(),
			Idempotent:     nfs3Idempotent,
			ProcName:       nfs3.ProcName,
			Stats:          rec.Stats,
		})
		if errs[i] == nil {
			up++
		} else {
			// Start life ejected; the probe loop brings it back.
			b.bs.Health.Store(int32(metrics.BackendEjected))
			b.bs.Ejections.Add(1)
			b.startProbe()
		}
	}
	if up < place.Quorum {
		for _, b := range rs.backs {
			b.up.Close()
		}
		rs.closeOnce.Do(func() { close(rs.done) })
		rs.wg.Wait()
		return nil, fmt.Errorf("proxy: only %d of %d replica backends reachable, quorum is %d", up, len(cfg.Backends), place.Quorum)
	}
	rs.wg.Add(1)
	go rs.repairLoop()
	return rs, nil
}

// Close shuts every backend session down and stops the probe and
// repair workers.
func (rs *replicaSet) Close() error {
	rs.closeOnce.Do(func() { close(rs.done) })
	for _, b := range rs.backs {
		b.up.Close()
	}
	rs.wg.Wait()
	return nil
}

func (rs *replicaSet) healthyCount() int {
	n := 0
	for _, b := range rs.backs {
		if b.healthy() {
			n++
		}
	}
	return n
}

// writable reports whether a write quorum of backends is healthy;
// below it the proxy serves degraded read-only from cache + survivors.
func (rs *replicaSet) writable() bool { return rs.healthyCount() >= rs.place.Quorum }

// Root is the canonical export root handed to the local NFS client.
func (rs *replicaSet) Root() nfs3.FH3 { return rs.ns.root }

// bumpVersion orders a write to (fh, block); repairs carry the version
// they were queued under and yield to anything newer.
func (rs *replicaSet) bumpVersion(fh nfs3.FH3, block uint64) uint64 {
	key := rs.versionKey(fh, block)
	rs.verMu.Lock()
	rs.versions[key]++
	v := rs.versions[key]
	rs.verMu.Unlock()
	return v
}

func (rs *replicaSet) currentVersion(fh nfs3.FH3, block uint64) uint64 {
	rs.verMu.Lock()
	defer rs.verMu.Unlock()
	return rs.versions[rs.versionKey(fh, block)]
}

func (rs *replicaSet) versionKey(fh nfs3.FH3, block uint64) string {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], block)
	return string(fh.Data) + string(buf[:])
}

// readTargets orders the replica set for a read: placement order
// (deterministic primary), healthy backends first, and among those the
// ones with no mutation leg outstanding first — a read issued after a
// quorum ack must not be answered by the straggler that has yet to
// apply the mutation (it would report NOENT for a fresh MKDIR, or list
// a name a RENAME already moved).
func (rs *replicaSet) readTargets(fh nfs3.FH3, block uint64) []*replicaBackend {
	ids := rs.place.ReplicasFor(fh.Data, block)
	current := make([]*replicaBackend, 0, len(ids))
	var behind, rest []*replicaBackend
	for _, id := range ids {
		b := rs.backs[id]
		switch {
		case !b.healthy():
			rest = append(rest, b)
		case b.behind.Load() > 0:
			behind = append(behind, b)
		default:
			current = append(current, b)
		}
	}
	return append(append(current, behind...), rest...)
}

// writeTargets is the placement replica set for a block, healthy
// members only: an ejected backend fails fast into the repair queue
// instead of stalling a flush worker behind its reconnect backoff.
func (rs *replicaSet) writeTargets(fh nfs3.FH3, block uint64) (targets []*replicaBackend, skipped []*replicaBackend) {
	for _, id := range rs.place.ReplicasFor(fh.Data, block) {
		b := rs.backs[id]
		if b.healthy() {
			targets = append(targets, b)
		} else {
			skipped = append(skipped, b)
		}
	}
	return targets, skipped
}

// nsTargets is every healthy backend: the namespace is fully
// replicated, so namespace mutations fan out to the whole pool.
func (rs *replicaSet) nsTargets() []*replicaBackend {
	var out []*replicaBackend
	for _, b := range rs.backs {
		if b.healthy() {
			out = append(out, b)
		}
	}
	return out
}

type legResult struct {
	idx int
	b   *replicaBackend
	rep xdr.Unmarshaler
	err error
}

// hedged serves a read from the fastest replica: the primary is asked
// first, a hedge fires after HedgeDelay, and failures fail over to the
// remaining replicas. accept runs exactly once, on the winning reply.
// When every leg fails the error names the procedure and the backend
// that failed last, so an operator can tell a dead pool from one bad
// replica without re-running with tracing on.
func (rs *replicaSet) hedged(ctx context.Context, proc uint32, fh nfs3.FH3, block uint64,
	leg func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error),
	accept func(b *replicaBackend, rep xdr.Unmarshaler)) error {

	targets := rs.readTargets(fh, block)
	if len(targets) == 0 {
		return fmt.Errorf("proxy: %s: no replica backends", nfs3.ProcName(proc))
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	resc := make(chan legResult, len(targets))
	launch := func(i int) {
		b := targets[i]
		go func() {
			rep, err := leg(b, ctx)
			resc <- legResult{idx: i, b: b, rep: rep, err: err}
		}()
	}
	launch(0)
	launched := 1
	var hedgeC <-chan time.Time
	if len(targets) > 1 {
		t := time.NewTimer(rs.cfg.hedgeDelay())
		defer t.Stop()
		hedgeC = t.C
	}
	hedged := false
	primaryFailed := false
	failures := 0
	var lastErr error
	var lastBackend *replicaBackend
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-hedgeC:
			hedgeC = nil
			if launched < len(targets) {
				rs.stats.HedgedReads.Add(1)
				hedged = true
				launch(launched)
				launched++
			}
		case r := <-resc:
			if r.err == nil {
				if r.idx > 0 {
					if primaryFailed {
						rs.stats.ReadFailovers.Add(1)
					} else if hedged {
						rs.stats.HedgeWins.Add(1)
					}
				}
				accept(r.b, r.rep)
				return nil
			}
			if r.idx == 0 {
				primaryFailed = true
			}
			failures++
			lastErr = r.err
			lastBackend = r.b
			if launched < len(targets) {
				launch(launched)
				launched++
			}
			if failures == len(targets) {
				return fmt.Errorf("proxy: %s: all %d read replica(s) failed, last backend %d (%s): %w",
					nfs3.ProcName(proc), len(targets), lastBackend.id, lastBackend.addr, lastErr)
			}
		}
	}
}

// errStatusVote marks a leg whose RPC succeeded but whose in-band
// status disqualifies it from the quorum vote.
type errStatusVote struct{ status nfs3.Status }

func (e errStatusVote) Error() string {
	return fmt.Sprintf("proxy: replica leg refused: %v", vfs.Errno(e.status))
}

// quorum fans a mutation out to targets concurrently and returns as
// soon as `need` legs succeed; stragglers keep running on detached
// deadlines and each ultimately-failed leg is handed to fail (which
// queues repair for writes). accept runs exactly once, on the first
// successful reply.
func (rs *replicaSet) quorum(ctx context.Context, targets []*replicaBackend, need int,
	leg func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error),
	vote func(rep xdr.Unmarshaler) bool,
	accept func(b *replicaBackend, rep xdr.Unmarshaler),
	fail func(b *replicaBackend)) error {

	if len(targets) < need {
		// Not enough live targets to ever reach quorum: degrade
		// immediately (the disk cache keeps absorbing writes).
		if fail != nil {
			for _, b := range targets {
				fail(b)
			}
		}
		rs.stats.QuorumFailures.Add(1)
		return fmt.Errorf("%w: %d healthy targets, need %d", ErrQuorumLost, len(targets), need)
	}
	resc := make(chan legResult, len(targets))
	for _, b := range targets {
		b := b
		b.behind.Add(1)
		rs.wg.Add(1)
		go func() {
			defer rs.wg.Done()
			// Detached deadline: a quorum ack must not cancel the
			// stragglers whose completion keeps replicas converged.
			lctx, cancel := context.WithTimeout(context.Background(), rs.p.opTimeout())
			defer cancel()
			rep, err := runLeg(b, lctx, leg, vote)
			// Before the result is published: once the caller sees the
			// ack, the backends that produced it no longer count as behind.
			b.behind.Add(-1)
			resc <- legResult{b: b, rep: rep, err: err}
		}()
	}
	successes, failures := 0, 0
	var winner *legResult
	var firstErr error
	for successes < need && failures <= len(targets)-need {
		r := <-resc
		if r.err == nil {
			successes++
			if winner == nil {
				w := r
				winner = &w
			}
		} else {
			failures++
			if firstErr == nil {
				firstErr = r.err
			}
			if fail != nil {
				fail(r.b)
			}
		}
	}
	remaining := len(targets) - successes - failures
	if remaining > 0 {
		rs.wg.Add(1)
		go func() {
			defer rs.wg.Done()
			for i := 0; i < remaining; i++ {
				if r := <-resc; r.err != nil && fail != nil {
					fail(r.b)
				}
			}
		}()
	}
	if successes >= need {
		rs.stats.QuorumWrites.Add(1)
		accept(winner.b, winner.rep)
		return nil
	}
	rs.stats.QuorumFailures.Add(1)
	return fmt.Errorf("%w: %d/%d acks: %v", ErrQuorumLost, successes, need, firstErr)
}

// runLeg runs one mutation leg on b and applies the vote. Legs on one
// backend run concurrently, so a leg can overtake an earlier one it
// depends on: a RENAME into a directory reaches the backend ahead of
// the straggling MKDIR that creates it and is refused with NOENT.
// Left at that, the backend never applies the RENAME and stays
// diverged (namespace legs have no repair). So a leg that misses a
// name while others are in flight on b waits for those to finish and
// runs once more; a refused leg changed nothing, so the rerun is safe
// even for non-idempotent procedures.
func runLeg(b *replicaBackend, ctx context.Context,
	leg func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error),
	vote func(rep xdr.Unmarshaler) bool) (xdr.Unmarshaler, error) {

	run := func() (xdr.Unmarshaler, error) {
		b.legs.RLock()
		defer b.legs.RUnlock()
		rep, err := leg(b, ctx)
		if err == nil && vote != nil && !vote(rep) {
			err = errStatusVote{status: statusOf(rep)}
		}
		return rep, err
	}
	rep, err := run()
	if missedName(err) && b.behind.Load() > 1 {
		// The exclusive lock is granted once the legs now in flight
		// have released their shared holds.
		b.legs.Lock()
		b.legs.Unlock()
		rep, err = run()
	}
	return rep, err
}

// missedName reports whether a leg failed because a name or handle did
// not exist on its backend, at resolve time or in the reply status.
func missedName(err error) bool {
	if sv, ok := err.(errStatusVote); ok { // set by runLeg itself, never wrapped
		err = vfs.Errno(sv.status)
	}
	return errors.Is(err, vfs.ErrNoEnt) || errors.Is(err, vfs.ErrStale)
}

// statusOf extracts the in-band NFS status of any reply type used on a
// quorum path.
func statusOf(rep xdr.Unmarshaler) nfs3.Status {
	switch r := rep.(type) {
	case *nfs3.WriteRes:
		return r.Status
	case *nfs3.WccRes:
		return r.Status
	case *nfs3.CreateRes:
		return r.Status
	case *nfs3.RenameRes:
		return r.Status
	case *nfs3.LinkRes:
		return r.Status
	case *nfs3.CommitRes:
		return r.Status
	default:
		return nfs3.Status(vfs.ErrIO)
	}
}

// enqueueRepair queues a failed write leg for background repair,
// shedding (and counting) on overflow rather than blocking the data
// path.
func (rs *replicaSet) enqueueRepair(j repairJob) {
	if j.attempt >= repairMaxAttempts {
		rs.stats.RepairDrops.Add(1)
		return
	}
	select {
	case rs.repairq <- j:
		if j.attempt == 0 {
			rs.stats.RepairsQueued.Add(1)
		}
	default:
		rs.stats.RepairDrops.Add(1)
	}
}

func (rs *replicaSet) repairLoop() {
	defer rs.wg.Done()
	for {
		select {
		case <-rs.done:
			return
		case j := <-rs.repairq:
			rs.runRepair(j)
		}
	}
}

// runRepair re-applies one failed write leg to its backend: resolve
// (or materialize) the file there and re-issue the FILE_SYNC write.
// The write is identical bytes at an absolute offset and the leaf is
// created UNCHECKED (open-or-create), so re-execution is safe however
// many times the job is retried.
//
//sgfsvet:retry-path
func (rs *replicaSet) runRepair(j repairJob) {
	if rs.currentVersion(j.args.Obj, j.args.Offset/rs.blockSize) > j.version {
		// A newer write to this block has been quorum-acked since the
		// job was queued; repairing would roll the backend backwards.
		return
	}
	b := rs.backs[j.backend]
	if !b.healthy() {
		rs.requeueLater(j)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), rs.p.opTimeout())
	defer cancel()
	bfh, err := b.resolve(ctx, j.args.Obj, resolveCreateFile)
	if err != nil {
		rs.requeueLater(j)
		return
	}
	a := *j.args
	a.Obj = bfh
	var res nfs3.WriteRes
	if err := b.callWrite(ctx, &a, &res); err != nil || res.Status != nfs3.OK {
		rs.requeueLater(j)
		return
	}
	rs.stats.RepairedBlocks.Add(1)
}

// requeueLater re-queues a repair job after a backoff proportional to
// its attempt count (the target is usually ejected; give the probe
// loop time to bring it back).
func (rs *replicaSet) requeueLater(j repairJob) {
	j.attempt++
	if j.attempt >= repairMaxAttempts {
		rs.stats.RepairDrops.Add(1)
		return
	}
	delay := jitterDuration(time.Duration(j.attempt) * rs.cfg.probeInterval())
	time.AfterFunc(delay, func() {
		select {
		case <-rs.done:
		default:
			select {
			case rs.repairq <- j:
			default:
				rs.stats.RepairDrops.Add(1)
			}
		}
	})
}

// purgeName forgets a canonical name binding everywhere (REMOVE,
// RMDIR, RENAME target overwrite).
func (rs *replicaSet) purgeName(key string) {
	rs.ns.forget(key)
	for _, b := range rs.backs {
		b.dropFH(key)
	}
}

// Call dispatches one upstream RPC across the replica pool: reads are
// hedged, mutations are quorum fan-outs, and every handle crossing the
// boundary is translated between the canonical namespace and the
// answering backend's namespace.
func (rs *replicaSet) Call(ctx context.Context, proc uint32, args xdr.Marshaler, reply xdr.Unmarshaler) error {
	switch proc {
	case nfs3.ProcNull:
		return rs.hedged(ctx, proc, rs.ns.root, 0,
			func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error) {
				return nil, b.call(ctx, nfs3.ProcNull, nil, nil)
			},
			func(*replicaBackend, xdr.Unmarshaler) {})

	case nfs3.ProcGetAttr:
		a := args.(*nfs3.GetAttrArgs)
		out := reply.(*nfs3.GetAttrRes)
		return rs.hedged(ctx, proc, a.Obj, 0,
			func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error) {
				bfh, err := b.resolve(ctx, a.Obj, resolveOnly)
				if err != nil {
					return nil, err
				}
				var res nfs3.GetAttrRes
				return &res, b.call(ctx, proc, &nfs3.GetAttrArgs{Obj: bfh}, &res)
			},
			func(_ *replicaBackend, rep xdr.Unmarshaler) {
				r := rep.(*nfs3.GetAttrRes)
				if r.Status == nfs3.OK {
					canonFattr(&r.Attr, a.Obj)
				}
				*out = *r
			})

	case nfs3.ProcLookup:
		a := args.(*nfs3.LookupArgs)
		out := reply.(*nfs3.LookupRes)
		return rs.hedged(ctx, proc, a.What.Dir, 0,
			func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error) {
				bdir, err := b.resolve(ctx, a.What.Dir, resolveOnly)
				if err != nil {
					return nil, err
				}
				var res nfs3.LookupRes
				largs := &nfs3.LookupArgs{What: nfs3.DirOpArgs{Dir: bdir, Name: a.What.Name}}
				return &res, b.call(ctx, proc, largs, &res)
			},
			func(b *replicaBackend, rep xdr.Unmarshaler) {
				r := rep.(*nfs3.LookupRes)
				if r.Status == nfs3.OK {
					c := rs.ns.child(a.What.Dir, a.What.Name)
					b.cacheFH(string(c.Data), r.Obj)
					r.Obj = c
					canonPostOp(&r.Attr, c)
				}
				canonPostOp(&r.DirAttr, a.What.Dir)
				*out = *r
			})

	case nfs3.ProcAccess:
		a := args.(*nfs3.AccessArgs)
		out := reply.(*nfs3.AccessRes)
		return rs.hedged(ctx, proc, a.Obj, 0,
			func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error) {
				bfh, err := b.resolve(ctx, a.Obj, resolveOnly)
				if err != nil {
					return nil, err
				}
				var res nfs3.AccessRes
				return &res, b.call(ctx, proc, &nfs3.AccessArgs{Obj: bfh, Access: a.Access}, &res)
			},
			func(_ *replicaBackend, rep xdr.Unmarshaler) {
				r := rep.(*nfs3.AccessRes)
				canonPostOp(&r.Attr, a.Obj)
				*out = *r
			})

	case nfs3.ProcReadLink:
		a := args.(*nfs3.ReadLinkArgs)
		out := reply.(*nfs3.ReadLinkRes)
		return rs.hedged(ctx, proc, a.Obj, 0,
			func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error) {
				bfh, err := b.resolve(ctx, a.Obj, resolveOnly)
				if err != nil {
					return nil, err
				}
				var res nfs3.ReadLinkRes
				return &res, b.call(ctx, proc, &nfs3.ReadLinkArgs{Obj: bfh}, &res)
			},
			func(_ *replicaBackend, rep xdr.Unmarshaler) {
				r := rep.(*nfs3.ReadLinkRes)
				canonPostOp(&r.Attr, a.Obj)
				*out = *r
			})

	case nfs3.ProcRead:
		a := args.(*nfs3.ReadArgs)
		out := reply.(*nfs3.ReadRes)
		return rs.hedged(ctx, proc, a.Obj, a.Offset/rs.blockSize,
			func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error) {
				bfh, err := b.resolve(ctx, a.Obj, resolveOnly)
				if err != nil {
					return nil, err
				}
				var res nfs3.ReadRes
				rargs := &nfs3.ReadArgs{Obj: bfh, Offset: a.Offset, Count: a.Count}
				return &res, b.call(ctx, proc, rargs, &res)
			},
			func(_ *replicaBackend, rep xdr.Unmarshaler) {
				r := rep.(*nfs3.ReadRes)
				canonPostOp(&r.Attr, a.Obj)
				*out = *r
			})

	case nfs3.ProcReadDir:
		a := args.(*nfs3.ReadDirArgs)
		out := reply.(*nfs3.ReadDirRes)
		return rs.hedged(ctx, proc, a.Dir, 0,
			func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error) {
				bdir, err := b.resolve(ctx, a.Dir, resolveOnly)
				if err != nil {
					return nil, err
				}
				var res nfs3.ReadDirRes
				rargs := &nfs3.ReadDirArgs{Dir: bdir, Cookie: a.Cookie, CookieVerf: a.CookieVerf, Count: a.Count}
				return &res, b.call(ctx, proc, rargs, &res)
			},
			func(_ *replicaBackend, rep xdr.Unmarshaler) {
				r := rep.(*nfs3.ReadDirRes)
				canonPostOp(&r.DirAttr, a.Dir)
				for i := range r.Entries {
					r.Entries[i].FileID = fileidOf(rs.ns.child(a.Dir, r.Entries[i].Name))
				}
				*out = *r
			})

	case nfs3.ProcReadDirPlus:
		a := args.(*nfs3.ReadDirPlusArgs)
		out := reply.(*nfs3.ReadDirPlusRes)
		return rs.hedged(ctx, proc, a.Dir, 0,
			func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error) {
				bdir, err := b.resolve(ctx, a.Dir, resolveOnly)
				if err != nil {
					return nil, err
				}
				var res nfs3.ReadDirPlusRes
				rargs := &nfs3.ReadDirPlusArgs{Dir: bdir, Cookie: a.Cookie, CookieVerf: a.CookieVerf, DirCount: a.DirCount, MaxCount: a.MaxCount}
				return &res, b.call(ctx, proc, rargs, &res)
			},
			func(b *replicaBackend, rep xdr.Unmarshaler) {
				r := rep.(*nfs3.ReadDirPlusRes)
				canonPostOp(&r.DirAttr, a.Dir)
				for i := range r.Entries {
					e := &r.Entries[i]
					c := rs.ns.child(a.Dir, e.Name)
					e.FileID = fileidOf(c)
					if e.FH.Present {
						b.cacheFH(string(c.Data), e.FH.FH)
						e.FH.FH = c
					}
					canonPostOp(&e.Attr, c)
				}
				*out = *r
			})

	case nfs3.ProcFSStat:
		a := args.(*nfs3.FSStatArgs)
		out := reply.(*nfs3.FSStatRes)
		return rs.hedged(ctx, proc, a.Obj, 0,
			func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error) {
				bfh, err := b.resolve(ctx, a.Obj, resolveOnly)
				if err != nil {
					return nil, err
				}
				var res nfs3.FSStatRes
				return &res, b.call(ctx, proc, &nfs3.FSStatArgs{Obj: bfh}, &res)
			},
			func(_ *replicaBackend, rep xdr.Unmarshaler) {
				r := rep.(*nfs3.FSStatRes)
				canonPostOp(&r.Attr, a.Obj)
				*out = *r
			})

	case nfs3.ProcFSInfo:
		a := args.(*nfs3.FSStatArgs)
		out := reply.(*nfs3.FSInfoRes)
		return rs.hedged(ctx, proc, a.Obj, 0,
			func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error) {
				bfh, err := b.resolve(ctx, a.Obj, resolveOnly)
				if err != nil {
					return nil, err
				}
				var res nfs3.FSInfoRes
				return &res, b.call(ctx, proc, &nfs3.FSStatArgs{Obj: bfh}, &res)
			},
			func(_ *replicaBackend, rep xdr.Unmarshaler) {
				r := rep.(*nfs3.FSInfoRes)
				canonPostOp(&r.Attr, a.Obj)
				*out = *r
			})

	case nfs3.ProcPathConf:
		a := args.(*nfs3.FSStatArgs)
		out := reply.(*nfs3.PathConfRes)
		return rs.hedged(ctx, proc, a.Obj, 0,
			func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error) {
				bfh, err := b.resolve(ctx, a.Obj, resolveOnly)
				if err != nil {
					return nil, err
				}
				var res nfs3.PathConfRes
				return &res, b.call(ctx, proc, &nfs3.FSStatArgs{Obj: bfh}, &res)
			},
			func(_ *replicaBackend, rep xdr.Unmarshaler) {
				r := rep.(*nfs3.PathConfRes)
				canonPostOp(&r.Attr, a.Obj)
				*out = *r
			})

	case nfs3.ProcWrite:
		return rs.callWriteFanout(ctx, args.(*nfs3.WriteArgs), reply.(*nfs3.WriteRes))

	case nfs3.ProcCommit:
		a := args.(*nfs3.CommitArgs)
		out := reply.(*nfs3.CommitRes)
		targets, _ := rs.writeTargets(a.Obj, a.Offset/rs.blockSize)
		return rs.quorum(ctx, targets, rs.place.Quorum,
			func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error) {
				bfh, err := b.resolve(ctx, a.Obj, resolveOnly)
				if err != nil {
					return nil, err
				}
				var res nfs3.CommitRes
				cargs := &nfs3.CommitArgs{Obj: bfh, Offset: a.Offset, Count: a.Count}
				return &res, b.call(ctx, proc, cargs, &res)
			},
			func(rep xdr.Unmarshaler) bool { return rep.(*nfs3.CommitRes).Status == nfs3.OK },
			func(_ *replicaBackend, rep xdr.Unmarshaler) {
				r := rep.(*nfs3.CommitRes)
				// Replicated writes are FILE_SYNC everywhere; the
				// verifier is meaningless across backends, so present a
				// constant one.
				r.Verf = [nfs3.WriteVerfSize]byte{}
				canonWcc(&r.Wcc, a.Obj)
				*out = *r
			},
			nil)

	case nfs3.ProcSetAttr:
		a := args.(*nfs3.SetAttrArgs)
		out := reply.(*nfs3.WccRes)
		return rs.quorum(ctx, rs.nsTargets(), rs.place.Quorum,
			func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error) {
				bfh, err := b.resolve(ctx, a.Obj, resolveOnly)
				if err != nil {
					return nil, err
				}
				var res nfs3.WccRes
				sargs := &nfs3.SetAttrArgs{Obj: bfh, Attr: a.Attr, GuardCheck: a.GuardCheck, GuardCtime: a.GuardCtime}
				return &res, b.call(ctx, proc, sargs, &res)
			},
			func(rep xdr.Unmarshaler) bool { return rep.(*nfs3.WccRes).Status == nfs3.OK },
			func(_ *replicaBackend, rep xdr.Unmarshaler) {
				r := rep.(*nfs3.WccRes)
				canonWcc(&r.Wcc, a.Obj)
				*out = *r
			},
			nil)

	case nfs3.ProcCreate:
		a := args.(*nfs3.CreateArgs)
		out := reply.(*nfs3.CreateRes)
		return rs.quorum(ctx, rs.nsTargets(), rs.place.Quorum,
			func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error) {
				bdir, err := b.resolve(ctx, a.Where.Dir, resolveCreateDirs)
				if err != nil {
					return nil, err
				}
				var res nfs3.CreateRes
				cargs := &nfs3.CreateArgs{Where: nfs3.DirOpArgs{Dir: bdir, Name: a.Where.Name}, Mode: a.Mode, Attr: a.Attr, Verf: a.Verf}
				return &res, b.call(ctx, proc, cargs, &res)
			},
			func(rep xdr.Unmarshaler) bool { return rep.(*nfs3.CreateRes).Status == nfs3.OK },
			rs.acceptCreate(a.Where, out),
			nil)

	case nfs3.ProcMkdir:
		a := args.(*nfs3.MkdirArgs)
		out := reply.(*nfs3.CreateRes)
		return rs.quorum(ctx, rs.nsTargets(), rs.place.Quorum,
			func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error) {
				bdir, err := b.resolve(ctx, a.Where.Dir, resolveCreateDirs)
				if err != nil {
					return nil, err
				}
				var res nfs3.CreateRes
				margs := &nfs3.MkdirArgs{Where: nfs3.DirOpArgs{Dir: bdir, Name: a.Where.Name}, Attr: a.Attr}
				return &res, b.call(ctx, proc, margs, &res)
			},
			func(rep xdr.Unmarshaler) bool { return rep.(*nfs3.CreateRes).Status == nfs3.OK },
			rs.acceptCreate(a.Where, out),
			nil)

	case nfs3.ProcSymlink:
		a := args.(*nfs3.SymlinkArgs)
		out := reply.(*nfs3.CreateRes)
		return rs.quorum(ctx, rs.nsTargets(), rs.place.Quorum,
			func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error) {
				bdir, err := b.resolve(ctx, a.Where.Dir, resolveCreateDirs)
				if err != nil {
					return nil, err
				}
				var res nfs3.CreateRes
				sargs := &nfs3.SymlinkArgs{Where: nfs3.DirOpArgs{Dir: bdir, Name: a.Where.Name}, Attr: a.Attr, Target: a.Target}
				return &res, b.call(ctx, proc, sargs, &res)
			},
			func(rep xdr.Unmarshaler) bool { return rep.(*nfs3.CreateRes).Status == nfs3.OK },
			rs.acceptCreate(a.Where, out),
			nil)

	case nfs3.ProcRemove, nfs3.ProcRmdir:
		a := args.(*nfs3.RemoveArgs)
		out := reply.(*nfs3.WccRes)
		return rs.quorum(ctx, rs.nsTargets(), rs.place.Quorum,
			func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error) {
				bdir, err := b.resolve(ctx, a.Obj.Dir, resolveOnly)
				if err != nil {
					return nil, err
				}
				var res nfs3.WccRes
				rargs := &nfs3.RemoveArgs{Obj: nfs3.DirOpArgs{Dir: bdir, Name: a.Obj.Name}}
				return &res, b.call(ctx, proc, rargs, &res)
			},
			func(rep xdr.Unmarshaler) bool { return rep.(*nfs3.WccRes).Status == nfs3.OK },
			func(_ *replicaBackend, rep xdr.Unmarshaler) {
				r := rep.(*nfs3.WccRes)
				rs.purgeName(rs.ns.key(a.Obj.Dir, a.Obj.Name))
				canonWcc(&r.Wcc, a.Obj.Dir)
				*out = *r
			},
			nil)

	case nfs3.ProcRename:
		a := args.(*nfs3.RenameArgs)
		out := reply.(*nfs3.RenameRes)
		return rs.quorum(ctx, rs.nsTargets(), rs.place.Quorum,
			func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error) {
				bfrom, err := b.resolve(ctx, a.From.Dir, resolveOnly)
				if err != nil {
					return nil, err
				}
				bto, err := b.resolve(ctx, a.To.Dir, resolveOnly)
				if err != nil {
					return nil, err
				}
				var res nfs3.RenameRes
				rargs := &nfs3.RenameArgs{
					From: nfs3.DirOpArgs{Dir: bfrom, Name: a.From.Name},
					To:   nfs3.DirOpArgs{Dir: bto, Name: a.To.Name},
				}
				return &res, b.call(ctx, proc, rargs, &res)
			},
			func(rep xdr.Unmarshaler) bool { return rep.(*nfs3.RenameRes).Status == nfs3.OK },
			func(_ *replicaBackend, rep xdr.Unmarshaler) {
				r := rep.(*nfs3.RenameRes)
				oldKey := rs.ns.key(a.From.Dir, a.From.Name)
				// An overwritten target loses its identity; the moved
				// file keeps its canonical handle, now resolving via the
				// new path.
				rs.purgeName(rs.ns.key(a.To.Dir, a.To.Name))
				rs.ns.rebind(oldKey, a.To.Dir, a.To.Name)
				canonWcc(&r.FromWcc, a.From.Dir)
				canonWcc(&r.ToWcc, a.To.Dir)
				*out = *r
			},
			nil)

	case nfs3.ProcLink:
		a := args.(*nfs3.LinkArgs)
		out := reply.(*nfs3.LinkRes)
		return rs.quorum(ctx, rs.nsTargets(), rs.place.Quorum,
			func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error) {
				bobj, err := b.resolve(ctx, a.Obj, resolveOnly)
				if err != nil {
					return nil, err
				}
				bdir, err := b.resolve(ctx, a.Link.Dir, resolveOnly)
				if err != nil {
					return nil, err
				}
				var res nfs3.LinkRes
				largs := &nfs3.LinkArgs{Obj: bobj, Link: nfs3.DirOpArgs{Dir: bdir, Name: a.Link.Name}}
				return &res, b.call(ctx, proc, largs, &res)
			},
			func(rep xdr.Unmarshaler) bool { return rep.(*nfs3.LinkRes).Status == nfs3.OK },
			func(_ *replicaBackend, rep xdr.Unmarshaler) {
				r := rep.(*nfs3.LinkRes)
				rs.ns.child(a.Link.Dir, a.Link.Name)
				canonPostOp(&r.Attr, a.Obj)
				canonWcc(&r.LinkWcc, a.Link.Dir)
				*out = *r
			},
			nil)

	default:
		return fmt.Errorf("proxy: replica layer: unsupported procedure %d", proc)
	}
}

// acceptCreate canonicalizes a CREATE/MKDIR/SYMLINK winner reply: the
// new object gets its canonical handle and fileid.
func (rs *replicaSet) acceptCreate(where nfs3.DirOpArgs, out *nfs3.CreateRes) func(*replicaBackend, xdr.Unmarshaler) {
	return func(b *replicaBackend, rep xdr.Unmarshaler) {
		r := rep.(*nfs3.CreateRes)
		if r.Status == nfs3.OK {
			c := rs.ns.child(where.Dir, where.Name)
			if r.Obj.Present {
				b.cacheFH(string(c.Data), r.Obj.FH)
			}
			r.Obj = nfs3.PostOpFH3{Present: true, FH: c}
			canonPostOp(&r.Attr, c)
		}
		canonWcc(&r.DirWcc, where.Dir)
		*out = *r
	}
}

// callWriteFanout fans one WRITE out to the block's replica set as
// FILE_SYNC, acknowledges at quorum, and queues repair for every leg
// that fails (including backends skipped because they are ejected).
// Forcing FILE_SYNC keeps the durability statement per backend —
// cross-backend COMMIT verifiers do not compose — and the reply is
// normalized so the flush path never tries to settle with COMMIT.
//
//sgfsvet:retry-path
//sgfsvet:hot-path
func (rs *replicaSet) callWriteFanout(ctx context.Context, a *nfs3.WriteArgs, out *nfs3.WriteRes) error {
	block := a.Offset / rs.blockSize
	version := rs.bumpVersion(a.Obj, block)
	canon := &nfs3.WriteArgs{Obj: a.Obj, Offset: a.Offset, Count: a.Count, Stable: nfs3.FileSync, Data: a.Data}
	targets, skipped := rs.writeTargets(a.Obj, block)
	for _, b := range skipped {
		rs.enqueueRepair(repairJob{backend: b.id, args: canon, version: version})
	}
	return rs.quorum(ctx, targets, rs.place.Quorum,
		func(b *replicaBackend, ctx context.Context) (xdr.Unmarshaler, error) {
			bfh, err := b.resolve(ctx, a.Obj, resolveCreateFile)
			if err != nil {
				return nil, err
			}
			wargs := &nfs3.WriteArgs{Obj: bfh, Offset: a.Offset, Count: a.Count, Stable: nfs3.FileSync, Data: a.Data}
			var res nfs3.WriteRes
			return &res, b.callWrite(ctx, wargs, &res)
		},
		func(rep xdr.Unmarshaler) bool { return rep.(*nfs3.WriteRes).Status == nfs3.OK },
		func(_ *replicaBackend, rep xdr.Unmarshaler) {
			r := rep.(*nfs3.WriteRes)
			r.Committed = nfs3.FileSync
			r.Verf = [nfs3.WriteVerfSize]byte{}
			canonWcc(&r.Wcc, a.Obj)
			*out = *r
		},
		func(b *replicaBackend) {
			rs.enqueueRepair(repairJob{backend: b.id, args: canon, version: version})
		})
}

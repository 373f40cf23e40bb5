package proxy

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/nfs3"
	"repro/internal/singleflight"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// Replicated upstream. The paper's client proxy speaks to exactly one
// server proxy, a single point of failure for the mount. replicaSet
// replaces it with N server proxies that each hold every file, behind
// the same upstream interface, so the write-back cache, its flush and
// readahead run over it unchanged. Mutations go through one ordered
// log that every backend applies from its own cursor (replica_log.go);
// reads go to the fastest current replica, hedged after HedgeDelay;
// each backend has a health state machine (replica_health.go); and
// handles crossing the layer are canonical (replica_ns.go).

// ErrQuorumLost is returned (wrapped) when a mutation cannot reach a
// write quorum of replica backends.
var ErrQuorumLost = errors.New("proxy: replica write quorum lost")

// ReplicaBackendDef names one replica backend endpoint.
type ReplicaBackendDef struct {
	// Addr is informational (logs, error messages).
	Addr string
	// Dial connects to this backend's server proxy.
	Dial Dialer
}

// ReplicationConfig enables the replicated multi-backend upstream.
type ReplicationConfig struct {
	// Backends lists the replica pool; backend IDs are indices into
	// this slice.
	Backends []ReplicaBackendDef
	// Quorum is how many backend acks a mutation needs before it is
	// acknowledged, in [1, len(Backends)]; 0 means a majority.
	Quorum int
	// HedgeDelay is how long a read waits on the primary replica
	// before launching a hedged second request (default 30ms).
	HedgeDelay time.Duration
	// EjectAfter is the consecutive transport-failure count that
	// ejects a backend (default 3).
	EjectAfter int
	// ProbeInterval paces (with jitter) the reintegration probes of an
	// ejected backend (default 500ms).
	ProbeInterval time.Duration
	// Stats accumulates replication counters; one is created when nil.
	Stats *metrics.ReplicaStats
}

// replicaSet is the replicated upstream.
type replicaSet struct {
	cfg   *ReplicationConfig
	stats *metrics.ReplicaStats
	ns    *canonNS
	backs []*replicaBackend
	// need is the write quorum: the acks a mutation waits for.
	need int

	blockSize uint64

	log *replicaLog
	// nsMu orders appends around namespace mutations (mutate).
	nsMu sync.RWMutex

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// newReplicaSet dials the backend pool (tolerating dead backends as
// long as a quorum comes up; the dead ones start ejected, are probed
// back in and replay the log) and starts every backend's applier.
func newReplicaSet(ctx context.Context, p *ClientProxy, cfg *ReplicationConfig) (*replicaSet, error) {
	n := len(cfg.Backends)
	if n == 0 {
		return nil, errors.New("proxy: replication needs at least one backend")
	}
	need := cfg.Quorum
	if need == 0 {
		need = n/2 + 1
	}
	if need < 1 || need > n {
		return nil, fmt.Errorf("proxy: quorum %d out of range [1,%d]", need, n)
	}
	if n > 64 {
		return nil, fmt.Errorf("proxy: %d replica backends, at most 64", n)
	}
	stats := cfg.Stats
	if stats == nil {
		stats = metrics.NewReplicaStats(n)
	}
	if len(stats.Backends) != n {
		return nil, fmt.Errorf("proxy: replica stats sized for %d backends, have %d", len(stats.Backends), n)
	}
	bs := uint64(32 * 1024)
	if p.cfg.DiskCache != nil {
		bs = uint64(p.cfg.DiskCache.BlockSize())
	}
	rs := &replicaSet{
		cfg:       cfg,
		stats:     stats,
		need:      need,
		ns:        newCanonNS(),
		blockSize: bs,
		done:      make(chan struct{}),
	}
	rs.log = newReplicaLog(rs)
	for i, bd := range cfg.Backends {
		rs.backs = append(rs.backs, &replicaBackend{id: i, addr: bd.Addr, set: rs, bs: stats.Backend(i), fhs: make(map[string]nfs3.FH3)})
	}
	singleflight.Each(len(rs.backs), len(rs.backs), func(i int) {
		b := rs.backs[i]
		var err error
		if b.sess, err = p.newSession(ctx, cfg.Backends[i].Dial); err != nil {
			// Start life ejected; the probe loop brings it back.
			b.bs.Health.Store(int32(metrics.BackendEjected))
			b.bs.Ejections.Add(1)
			b.startProbe()
		}
	})
	if rs.degraded() {
		rs.Close()
		return nil, fmt.Errorf("proxy: fewer than %d of %d replica backends reachable, quorum is %d", need, n, need)
	}
	for _, b := range rs.backs {
		rs.wg.Add(1)
		go b.applyLoop()
	}
	return rs, nil
}

// Close shuts every backend session down and stops the probes and
// appliers.
func (rs *replicaSet) Close() error {
	rs.closeOnce.Do(func() { close(rs.done) })
	rs.log.close()
	for _, b := range rs.backs {
		b.sess.Close()
	}
	rs.wg.Wait()
	return nil
}

// exportRoot is the canonical root: synthetic, it exists before any
// backend session does and never changes across reconnects.
func (rs *replicaSet) exportRoot() nfs3.FH3 { return rs.ns.root }

// Call dispatches one upstream RPC across the replica pool, one row per
// procedure: reads are hedged, mutations go through the log. Each row
// builds a backend's arguments from the handles resolved there (x.fh)
// and canonicalises the winning reply.
func (rs *replicaSet) Call(ctx context.Context, proc uint32, args xdr.Marshaler, reply xdr.Unmarshaler) error {
	switch proc {
	case nfs3.ProcNull:
		_, _, err := rs.hedged(ctx, proc, rs.ns.root, 0, func(ctx context.Context, b *replicaBackend) (xdr.Unmarshaler, error) {
			return nil, b.call(ctx, proc, nil, nil)
		})
		return err

	case nfs3.ProcGetAttr:
		a := args.(*nfs3.GetAttrArgs)
		return hedgedRow(rs, ctx, proc, a.Obj, 0, reply.(*nfs3.GetAttrRes),
			func(x *xlate) xdr.Marshaler { return &nfs3.GetAttrArgs{Obj: x.fh(a.Obj)} },
			func(r *nfs3.GetAttrRes, _ *replicaBackend) {
				if r.Status == nfs3.OK {
					canonFattr(&r.Attr, a.Obj)
				}
			})

	case nfs3.ProcLookup:
		a := args.(*nfs3.LookupArgs)
		return hedgedRow(rs, ctx, proc, a.What.Dir, 0, reply.(*nfs3.LookupRes),
			func(x *xlate) xdr.Marshaler {
				return &nfs3.LookupArgs{What: nfs3.DirOpArgs{Dir: x.fh(a.What.Dir), Name: a.What.Name}}
			},
			func(r *nfs3.LookupRes, b *replicaBackend) {
				if r.Status == nfs3.OK {
					c := rs.ns.child(a.What.Dir, a.What.Name, 0)
					b.cacheFH(string(c.Data), r.Obj)
					r.Obj = c
					canonPostOp(&r.Attr, c)
				}
				canonPostOp(&r.DirAttr, a.What.Dir)
			})

	case nfs3.ProcAccess:
		a := args.(*nfs3.AccessArgs)
		return hedgedRow(rs, ctx, proc, a.Obj, 0, reply.(*nfs3.AccessRes),
			func(x *xlate) xdr.Marshaler { return &nfs3.AccessArgs{Obj: x.fh(a.Obj), Access: a.Access} },
			func(r *nfs3.AccessRes, _ *replicaBackend) { canonPostOp(&r.Attr, a.Obj) })

	case nfs3.ProcReadLink:
		a := args.(*nfs3.ReadLinkArgs)
		return hedgedRow(rs, ctx, proc, a.Obj, 0, reply.(*nfs3.ReadLinkRes),
			func(x *xlate) xdr.Marshaler { return &nfs3.ReadLinkArgs{Obj: x.fh(a.Obj)} },
			func(r *nfs3.ReadLinkRes, _ *replicaBackend) { canonPostOp(&r.Attr, a.Obj) })

	case nfs3.ProcRead:
		a := args.(*nfs3.ReadArgs)
		return hedgedRow(rs, ctx, proc, a.Obj, a.Offset/rs.blockSize, reply.(*nfs3.ReadRes),
			func(x *xlate) xdr.Marshaler {
				return &nfs3.ReadArgs{Obj: x.fh(a.Obj), Offset: a.Offset, Count: a.Count}
			},
			func(r *nfs3.ReadRes, _ *replicaBackend) { canonPostOp(&r.Attr, a.Obj) })

	case nfs3.ProcReadDir:
		a := args.(*nfs3.ReadDirArgs)
		return hedgedRow(rs, ctx, proc, a.Dir, 0, reply.(*nfs3.ReadDirRes),
			func(x *xlate) xdr.Marshaler { c := *a; c.Dir = x.fh(a.Dir); return &c },
			func(r *nfs3.ReadDirRes, _ *replicaBackend) {
				canonPostOp(&r.DirAttr, a.Dir)
				for i := range r.Entries {
					r.Entries[i].FileID = fileidOf(rs.ns.child(a.Dir, r.Entries[i].Name, 0))
				}
			})

	case nfs3.ProcReadDirPlus:
		a := args.(*nfs3.ReadDirPlusArgs)
		return hedgedRow(rs, ctx, proc, a.Dir, 0, reply.(*nfs3.ReadDirPlusRes),
			func(x *xlate) xdr.Marshaler { c := *a; c.Dir = x.fh(a.Dir); return &c },
			func(r *nfs3.ReadDirPlusRes, b *replicaBackend) {
				canonPostOp(&r.DirAttr, a.Dir)
				for i := range r.Entries {
					e := &r.Entries[i]
					c := rs.ns.child(a.Dir, e.Name, 0)
					e.FileID = fileidOf(c)
					if e.FH.Present {
						b.cacheFH(string(c.Data), e.FH.FH)
						e.FH.FH = c
					}
					canonPostOp(&e.Attr, c)
				}
			})

	case nfs3.ProcFSStat:
		a := args.(*nfs3.FSStatArgs)
		return hedgedRow(rs, ctx, proc, a.Obj, 0, reply.(*nfs3.FSStatRes),
			func(x *xlate) xdr.Marshaler { return &nfs3.FSStatArgs{Obj: x.fh(a.Obj)} },
			func(r *nfs3.FSStatRes, _ *replicaBackend) { canonPostOp(&r.Attr, a.Obj) })

	case nfs3.ProcFSInfo:
		a := args.(*nfs3.FSStatArgs)
		return hedgedRow(rs, ctx, proc, a.Obj, 0, reply.(*nfs3.FSInfoRes),
			func(x *xlate) xdr.Marshaler { return &nfs3.FSStatArgs{Obj: x.fh(a.Obj)} },
			func(r *nfs3.FSInfoRes, _ *replicaBackend) {
				canonPostOp(&r.Attr, a.Obj)
				r.Properties &^= nfs3.FSFLink // see ProcLink
			})

	case nfs3.ProcPathConf:
		a := args.(*nfs3.FSStatArgs)
		return hedgedRow(rs, ctx, proc, a.Obj, 0, reply.(*nfs3.PathConfRes),
			func(x *xlate) xdr.Marshaler { return &nfs3.FSStatArgs{Obj: x.fh(a.Obj)} },
			func(r *nfs3.PathConfRes, _ *replicaBackend) { canonPostOp(&r.Attr, a.Obj) })

	case nfs3.ProcWrite:
		return rs.callWrite(args.(*nfs3.WriteArgs), reply.(*nfs3.WriteRes))

	case nfs3.ProcCommit:
		// Replicated writes are FILE_SYNC on every backend: a COMMIT has
		// nothing left to settle, and its verifier is a constant one.
		reply.(*nfs3.CommitRes).Status = nfs3.OK
		return nil

	case nfs3.ProcSetAttr:
		a := args.(*nfs3.SetAttrArgs)
		return nsRow(rs, proc, reply.(*nfs3.WccRes),
			func(x *xlate) xdr.Marshaler { c := *a; c.Obj = x.fh(a.Obj); return &c },
			func(r *nfs3.WccRes, _ uint64) { canonWcc(&r.Wcc, a.Obj) })

	case nfs3.ProcCreate:
		a := args.(*nfs3.CreateArgs)
		return rs.create(proc, a.Where, reply.(*nfs3.CreateRes),
			func(x *xlate) xdr.Marshaler { c := *a; c.Where.Dir = x.fh(a.Where.Dir); return &c })

	case nfs3.ProcMkdir:
		a := args.(*nfs3.MkdirArgs)
		return rs.create(proc, a.Where, reply.(*nfs3.CreateRes),
			func(x *xlate) xdr.Marshaler { c := *a; c.Where.Dir = x.fh(a.Where.Dir); return &c })

	case nfs3.ProcSymlink:
		a := args.(*nfs3.SymlinkArgs)
		return rs.create(proc, a.Where, reply.(*nfs3.CreateRes),
			func(x *xlate) xdr.Marshaler { c := *a; c.Where.Dir = x.fh(a.Where.Dir); return &c })

	case nfs3.ProcRemove, nfs3.ProcRmdir:
		a := args.(*nfs3.RemoveArgs)
		return nsRow(rs, proc, reply.(*nfs3.WccRes),
			func(x *xlate) xdr.Marshaler {
				return &nfs3.RemoveArgs{Obj: nfs3.DirOpArgs{Dir: x.fh(a.Obj.Dir), Name: a.Obj.Name}}
			},
			func(r *nfs3.WccRes, seq uint64) {
				if r.Status == nfs3.OK {
					rs.ns.remove(a.Obj.Dir, a.Obj.Name, seq)
				}
				canonWcc(&r.Wcc, a.Obj.Dir)
			})

	case nfs3.ProcRename:
		a := args.(*nfs3.RenameArgs)
		return nsRow(rs, proc, reply.(*nfs3.RenameRes),
			func(x *xlate) xdr.Marshaler {
				return &nfs3.RenameArgs{
					From: nfs3.DirOpArgs{Dir: x.fh(a.From.Dir), Name: a.From.Name},
					To:   nfs3.DirOpArgs{Dir: x.fh(a.To.Dir), Name: a.To.Name},
				}
			},
			func(r *nfs3.RenameRes, seq uint64) {
				if r.Status == nfs3.OK {
					rs.ns.rename(a.From, a.To, seq)
				}
				canonWcc(&r.FromWcc, a.From.Dir)
				canonWcc(&r.ToWcc, a.To.Dir)
			})

	case nfs3.ProcLink:
		// The canonical namespace gives every name a handle of its own,
		// so two names of one file would be two files to the disk cache
		// above: a write through one would not be read through the
		// other. LINK is refused, as RFC 1813 allows.
		reply.(*nfs3.LinkRes).Status = nfs3.Status(vfs.ErrNotSupp)
		return nil

	default:
		return fmt.Errorf("proxy: replica layer: unsupported procedure %d", proc)
	}
}

// create appends CREATE, MKDIR or SYMLINK at where. The new name's
// handle is bound first, at the entry's place in the log, so that
// every backend's leg records its own translation.
func (rs *replicaSet) create(proc uint32, where nfs3.DirOpArgs, out *nfs3.CreateRes, build func(*xlate) xdr.Marshaler) error {
	rs.nsMu.Lock()
	defer rs.nsMu.Unlock()
	var next uint64
	rs.log.locked(func() { next = rs.log.tail() + 1 })
	c := rs.ns.child(where.Dir, where.Name, next)
	leg := rowLeg[nfs3.CreateRes](proc, build)
	_, win, err := rs.mutate(func(ctx context.Context, b *replicaBackend, at uint64) (xdr.Unmarshaler, error) {
		rep, err := leg(ctx, b, at)
		if r, ok := rep.(*nfs3.CreateRes); ok && err == nil && r.Status == nfs3.OK && r.Obj.Present {
			b.cacheFH(string(c.Data), r.Obj.FH)
		}
		return rep, err
	})
	if err != nil {
		return err
	}
	*out = *win.rep.(*nfs3.CreateRes)
	if out.Status == nfs3.OK {
		out.Obj = nfs3.PostOpFH3{Present: true, FH: c}
		canonPostOp(&out.Attr, c)
	}
	canonWcc(&out.DirWcc, where.Dir)
	return nil
}

// legFunc runs one read on one backend.
type legFunc func(ctx context.Context, b *replicaBackend) (xdr.Unmarshaler, error)

// rowLeg runs proc on one backend with the arguments build makes from
// the backend's handles as of log position at, into a fresh R.
func rowLeg[R any](proc uint32, build func(*xlate) xdr.Marshaler) applyFunc {
	return func(ctx context.Context, b *replicaBackend, at uint64) (xdr.Unmarshaler, error) {
		x := xlate{ctx: ctx, b: b, at: at}
		args := build(&x)
		if x.err != nil {
			return nil, x.err
		}
		res := any(new(R)).(xdr.Unmarshaler)
		return res, b.call(ctx, proc, args, res)
	}
}

// hedgedRow serves a read row from the fastest current replica of (on,
// block).
func hedgedRow[R any](rs *replicaSet, ctx context.Context, proc uint32, on nfs3.FH3, block uint64, out *R,
	build func(*xlate) xdr.Marshaler, canon func(*R, *replicaBackend)) error {
	leg := rowLeg[R](proc, build)
	rep, b, err := rs.hedged(ctx, proc, on, block, func(ctx context.Context, b *replicaBackend) (xdr.Unmarshaler, error) {
		return leg(ctx, b, readAt)
	})
	if err != nil {
		return err
	}
	r := any(rep).(*R)
	canon(r, b)
	*out = *r
	return nil
}

// nsRow runs a namespace mutation row through the log and answers with
// the reply a quorum of backends agrees on; canon applies it to the
// canonical namespace at the entry's sequence number.
func nsRow[R any](rs *replicaSet, proc uint32, out *R,
	build func(*xlate) xdr.Marshaler, canon func(r *R, seq uint64)) error {
	rs.nsMu.Lock()
	defer rs.nsMu.Unlock()
	seq, win, err := rs.mutate(rowLeg[R](proc, build))
	if err != nil {
		return err
	}
	r := any(win.rep).(*R)
	canon(r, seq)
	*out = *r
	return nil
}

type legResult struct {
	idx int
	b   *replicaBackend
	rep xdr.Unmarshaler
	err error
}

// hedged serves a read from the fastest replica: the primary first, a
// hedge after HedgeDelay, failover to the rest. It returns the winning
// reply and its backend; when every leg fails, the error names the
// procedure and the backend that failed last.
func (rs *replicaSet) hedged(ctx context.Context, proc uint32, fh nfs3.FH3, block uint64, leg legFunc) (xdr.Unmarshaler, *replicaBackend, error) {
	targets := rs.readTargets(fh, block)
	if len(targets) == 0 {
		return nil, nil, fmt.Errorf("proxy: %s: no replica backends", nfs3.ProcName(proc))
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	resc := make(chan legResult, len(targets))
	launched := 0
	launch := func() bool {
		if launched == len(targets) {
			return false
		}
		i, b := launched, targets[launched]
		launched++
		go func() {
			rep, err := leg(ctx, b)
			resc <- legResult{idx: i, b: b, rep: rep, err: err}
		}()
		return true
	}
	launch()
	hedge := time.NewTimer(positiveOr(rs.cfg.HedgeDelay, 30*time.Millisecond))
	defer hedge.Stop()
	hedged, primaryFailed := false, false
	for failures := 0; ; {
		select {
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		case <-hedge.C:
			if launch() {
				rs.stats.HedgedReads.Add(1)
				hedged = true
			}
		case r := <-resc:
			switch {
			case r.err != nil:
				primaryFailed = primaryFailed || r.idx == 0
				failures++
				launch()
			case r.idx > 0 && primaryFailed:
				rs.stats.ReadFailovers.Add(1)
			case r.idx > 0 && hedged:
				rs.stats.HedgeWins.Add(1)
			}
			if r.err == nil {
				return r.rep, r.b, nil
			}
			if failures == len(targets) {
				return nil, nil, fmt.Errorf("proxy: %s: all %d read replica(s) failed, last backend %d (%s): %w",
					nfs3.ProcName(proc), len(targets), r.b.id, r.b.addr, r.err)
			}
		}
	}
}

// statusOf is the in-band NFS status of a mutation's reply.
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
	}
	panic(fmt.Sprintf("proxy: replica layer: no status in %T", rep))
}

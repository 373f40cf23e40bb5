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
// server proxy, so that server is a single point of failure for the
// whole mount. replicaSet replaces the single upstream with N server
// proxies that each hold every file, behind the same upstream
// interface the rest of the proxy already uses: the write-back cache,
// its flush and the readahead path all fan out through it unchanged.
//
//   - Mutations fan out concurrently to every healthy backend and are
//     acknowledged at quorum; stragglers keep running on detached
//     deadlines and failed write legs are queued for background
//     repair (replica_fanout.go).
//   - Reads go to the fastest replica, with a hedged second request
//     after HedgeDelay and failover to the remaining replicas.
//   - Each backend is an upstream session with its own health state:
//     consecutive transport failures eject it, jittered probes
//     reintegrate it, and while fewer than quorum backends are healthy
//     the proxy degrades to read-only service from the disk cache and
//     the surviving replicas (replica_health.go).
//
// Handles crossing the layer are canonical (replica_ns.go). WRITEs are
// issued FILE_SYNC on every backend — cross-backend COMMIT verifiers
// do not compose, and a stable write is the only durability statement
// that survives a backend restart mid-flush.

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

func (c *ReplicationConfig) hedgeDelay() time.Duration {
	return positiveOr(c.HedgeDelay, 30*time.Millisecond)
}

func (c *ReplicationConfig) ejectAfter() int { return positiveOr(c.EjectAfter, 3) }

func (c *ReplicationConfig) probeInterval() time.Duration {
	return positiveOr(c.ProbeInterval, 500*time.Millisecond)
}

// replicaSet is the replicated upstream.
type replicaSet struct {
	p     *ClientProxy
	cfg   *ReplicationConfig
	stats *metrics.ReplicaStats
	ns    *canonNS
	backs []*replicaBackend
	// need is the write quorum: the acks a mutation waits for.
	need int

	blockSize uint64

	// versions orders writes per (file, block) so a delayed repair can
	// never clobber a newer quorum-acked write with stale bytes.
	verMu    sync.Mutex
	versions map[blockKey]uint64

	// issueMu makes the legs of one mutation take their place in every
	// backend's legOrder at once.
	issueMu sync.Mutex

	repairq   chan repairJob
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// blockKey names one block of one file.
type blockKey struct {
	fh    string
	block uint64
}

// newReplicaSet dials the backend pool (tolerating dead backends as
// long as a quorum comes up; the dead ones start ejected and are
// probed back in) and starts the repair worker.
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
		p:         p,
		cfg:       cfg,
		stats:     stats,
		need:      need,
		ns:        newCanonNS(),
		blockSize: bs,
		versions:  make(map[blockKey]uint64),
		repairq:   make(chan repairJob, repairQueueLen),
		done:      make(chan struct{}),
	}
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
	if up, _ := rs.targets(); len(up) < need {
		rs.Close()
		return nil, fmt.Errorf("proxy: only %d of %d replica backends reachable, quorum is %d", len(up), n, need)
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
		b.sess.Close()
	}
	rs.wg.Wait()
	return nil
}

// exportRoot is the canonical root: synthetic, it exists before any
// backend session does and never changes across reconnects.
func (rs *replicaSet) exportRoot() nfs3.FH3 { return rs.ns.root }

// Call dispatches one upstream RPC across the replica pool, one row per
// procedure: reads are hedged, mutations are quorum fan-outs. Each row
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
					c := rs.ns.child(a.What.Dir, a.What.Name)
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
					r.Entries[i].FileID = fileidOf(rs.ns.child(a.Dir, r.Entries[i].Name))
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
					c := rs.ns.child(a.Dir, e.Name)
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
		return rs.callWriteFanout(ctx, args.(*nfs3.WriteArgs), reply.(*nfs3.WriteRes))

	case nfs3.ProcCommit:
		a := args.(*nfs3.CommitArgs)
		return quorumRow(rs, proc, resolveOnly, reply.(*nfs3.CommitRes),
			func(x *xlate) xdr.Marshaler {
				return &nfs3.CommitArgs{Obj: x.fh(a.Obj), Offset: a.Offset, Count: a.Count}
			},
			func(r *nfs3.CommitRes, _ *replicaBackend) {
				// Replicated writes are FILE_SYNC everywhere; the verifier
				// is meaningless across backends, so present a constant one.
				r.Verf = [nfs3.WriteVerfSize]byte{}
				canonWcc(&r.Wcc, a.Obj)
			})

	case nfs3.ProcSetAttr:
		a := args.(*nfs3.SetAttrArgs)
		return quorumRow(rs, proc, resolveOnly, reply.(*nfs3.WccRes),
			func(x *xlate) xdr.Marshaler { c := *a; c.Obj = x.fh(a.Obj); return &c },
			func(r *nfs3.WccRes, _ *replicaBackend) { canonWcc(&r.Wcc, a.Obj) })

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
		return quorumRow(rs, proc, resolveOnly, reply.(*nfs3.WccRes),
			func(x *xlate) xdr.Marshaler {
				return &nfs3.RemoveArgs{Obj: nfs3.DirOpArgs{Dir: x.fh(a.Obj.Dir), Name: a.Obj.Name}}
			},
			func(r *nfs3.WccRes, _ *replicaBackend) {
				if r.Status == nfs3.OK {
					rs.forget(rs.ns.remove(a.Obj.Dir, a.Obj.Name))
				}
				canonWcc(&r.Wcc, a.Obj.Dir)
			})

	case nfs3.ProcRename:
		a := args.(*nfs3.RenameArgs)
		return quorumRow(rs, proc, resolveOnly, reply.(*nfs3.RenameRes),
			func(x *xlate) xdr.Marshaler {
				return &nfs3.RenameArgs{
					From: nfs3.DirOpArgs{Dir: x.fh(a.From.Dir), Name: a.From.Name},
					To:   nfs3.DirOpArgs{Dir: x.fh(a.To.Dir), Name: a.To.Name},
				}
			},
			func(r *nfs3.RenameRes, _ *replicaBackend) {
				if r.Status == nfs3.OK {
					rs.forget(rs.ns.rename(a.From, a.To))
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

// create fans out CREATE, MKDIR or SYMLINK at where. The new name's
// handle is minted first so that every backend's leg records its own
// translation: a LOOKUP walk could find another file there, on a
// backend where a leg before it is still due.
func (rs *replicaSet) create(proc uint32, where nfs3.DirOpArgs, out *nfs3.CreateRes, build func(*xlate) xdr.Marshaler) error {
	c := rs.ns.child(where.Dir, where.Name)
	leg := rowLeg[nfs3.CreateRes](rs, proc, resolveCreateDirs, build)
	rep, _, err := rs.quorum(func(ctx context.Context, b *replicaBackend) (xdr.Unmarshaler, error) {
		rep, err := leg(ctx, b)
		if r, ok := rep.(*nfs3.CreateRes); ok && err == nil && r.Status == nfs3.OK && r.Obj.Present {
			b.cacheFH(string(c.Data), r.Obj.FH)
		}
		return rep, err
	}, nil)
	if err != nil {
		return err
	}
	*out = *rep.(*nfs3.CreateRes)
	if out.Status == nfs3.OK {
		out.Obj = nfs3.PostOpFH3{Present: true, FH: c}
		canonPostOp(&out.Attr, c)
	}
	canonWcc(&out.DirWcc, where.Dir)
	return nil
}

// legFunc runs one leg of a replicated call on one backend.
type legFunc func(ctx context.Context, b *replicaBackend) (xdr.Unmarshaler, error)

// rowLeg is the legFunc of a row: proc with the arguments build makes
// from the backend's handles, into a fresh R.
func rowLeg[R any](rs *replicaSet, proc uint32, mode resolveMode, build func(*xlate) xdr.Marshaler) legFunc {
	return func(ctx context.Context, b *replicaBackend) (xdr.Unmarshaler, error) {
		x := xlate{ctx: ctx, b: b, mode: mode}
		args := build(&x)
		if x.err != nil {
			return nil, x.err
		}
		res := any(new(R)).(xdr.Unmarshaler)
		return res, b.call(ctx, proc, args, res)
	}
}

// hedgedRow serves a read row from the fastest replica of (on, block).
func hedgedRow[R any](rs *replicaSet, ctx context.Context, proc uint32, on nfs3.FH3, block uint64, out *R,
	build func(*xlate) xdr.Marshaler, canon func(*R, *replicaBackend)) error {
	leg := rowLeg[R](rs, proc, resolveOnly, build)
	rep, b, err := rs.hedged(ctx, proc, on, block, func(ctx context.Context, b *replicaBackend) (xdr.Unmarshaler, error) {
		b.order.settle()
		return leg(ctx, b)
	})
	return answer(rep, b, err, out, canon)
}

// quorumRow fans a mutation row out to every healthy backend and
// answers with the reply a quorum of them agrees on.
func quorumRow[R any](rs *replicaSet, proc uint32, mode resolveMode, out *R,
	build func(*xlate) xdr.Marshaler, canon func(*R, *replicaBackend)) error {
	rep, b, err := rs.quorum(rowLeg[R](rs, proc, mode, build), nil)
	return answer(rep, b, err, out, canon)
}

// answer canonicalises the reply rep that backend b won with into out.
func answer[R any](rep xdr.Unmarshaler, b *replicaBackend, err error, out *R, canon func(*R, *replicaBackend)) error {
	if err != nil {
		return err
	}
	r := any(rep).(*R)
	canon(r, b)
	*out = *r
	return nil
}

type legResult struct {
	idx int
	b   *replicaBackend
	rep xdr.Unmarshaler
	err error
}

// hedged serves a read from the fastest replica: the primary is asked
// first, a hedge fires after HedgeDelay, and failures fail over to the
// remaining replicas. It returns the winning reply and its backend.
// When every leg fails the error names the procedure and the backend
// that failed last, so an operator can tell a dead pool from one bad
// replica without re-running with tracing on.
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
	hedge := time.NewTimer(rs.cfg.hedgeDelay())
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
	case *nfs3.CommitRes:
		return r.Status
	}
	panic(fmt.Sprintf("proxy: replica layer: no status in %T", rep))
}

package proxy

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// Write fan-out and repair. Every mutation fans out to its backends and
// is acknowledged at quorum, and every backend applies its legs in the
// order they were issued. Every WRITE goes to its block's replica set
// as FILE_SYNC; a leg that fails, and a backend skipped because it is
// ejected, becomes a background repair job that re-applies the same
// write later.

// repairMaxAttempts bounds how often one repair job is retried before
// it is shed (a later flush round or read failover covers the block).
const repairMaxAttempts = 10

// repairJob is one failed write leg queued for background repair: the
// canonical-form FILE_SYNC write to re-apply to one backend.
type repairJob struct {
	backend int
	args    *nfs3.WriteArgs // canonical handle, FILE_SYNC
	version uint64          // write-version of the block when queued
	attempt int
}

// quorum fans a mutation out to targets and returns the reply a write
// quorum of legs agrees on, by status, as soon as it does: success, or
// one refusal — a refused mutation changed nothing, so the status is
// the answer. Each backend runs the legs in issue order (legOrder);
// stragglers keep running on detached deadlines. repair is set for
// data writes only, and every write leg whose outcome is not the answer
// (not success, when there is none) is handed to it.
func (rs *replicaSet) quorum(targets []*replicaBackend, leg legFunc, repair func(*replicaBackend)) (xdr.Unmarshaler, *replicaBackend, error) {
	need := rs.place.Quorum
	if len(targets) < need {
		// Not enough live targets to ever reach quorum: degrade
		// immediately (the disk cache keeps absorbing writes).
		if repair != nil {
			for _, b := range targets {
				repair(b)
			}
		}
		rs.stats.QuorumFailures.Add(1)
		return nil, nil, fmt.Errorf("%w: %d healthy targets, need %d", ErrQuorumLost, len(targets), need)
	}
	resc := make(chan legResult, len(targets))
	tickets := make([]uint64, len(targets))
	rs.issueMu.Lock()
	for i, b := range targets {
		tickets[i] = b.order.issue(repair == nil)
		b.behind.Add(1)
	}
	rs.issueMu.Unlock()
	for i, b := range targets {
		b, t := b, tickets[i]
		rs.wg.Add(1)
		go func() {
			defer rs.wg.Done()
			b.order.wait(t)
			// Detached deadline: a quorum ack must not cancel the
			// stragglers whose completion keeps replicas converged.
			lctx, cancel := context.WithTimeout(context.Background(), rs.p.opTimeout())
			defer cancel()
			rep, err := leg(lctx, b)
			b.order.done(t)
			// Before the result is published: once the caller sees the
			// ack, the backends that produced it no longer count as behind.
			b.behind.Add(-1)
			resc <- legResult{b: b, rep: rep, err: err}
		}()
	}
	got := make([]legResult, 0, len(targets))
	var win *legResult
	for win == nil && len(got) < len(targets) {
		got = append(got, <-resc)
		best := 0
		for i := range got {
			if got[i].err != nil {
				continue
			}
			if n := votes(got, statusOf(got[i].rep)); n >= need {
				win = &got[i]
				break
			} else if n > best {
				best = n
			}
		}
		if win == nil && best+len(targets)-len(got) < need {
			break // no outcome can reach quorum any more
		}
	}
	answer := nfs3.OK // when no reply won, every leg but a success failed
	if win != nil {
		answer = statusOf(win.rep)
	}
	for _, r := range got {
		if repair != nil && !agrees(r, answer) {
			repair(r.b)
		}
	}
	if remaining := len(targets) - len(got); remaining > 0 {
		rs.wg.Add(1)
		go func() {
			defer rs.wg.Done()
			for i := 0; i < remaining; i++ {
				if r := <-resc; repair != nil && !agrees(r, answer) {
					repair(r.b)
				}
			}
		}()
	}
	if win == nil {
		rs.stats.QuorumFailures.Add(1)
		return nil, nil, fmt.Errorf("%w: %d/%d acks: %v", ErrQuorumLost, votes(got, nfs3.OK), need, legErr(got))
	}
	if answer == nfs3.OK {
		rs.stats.QuorumWrites.Add(1)
	}
	return win.rep, win.b, nil
}

// agrees reports whether leg r answered with status s.
func agrees(r legResult, s nfs3.Status) bool { return r.err == nil && statusOf(r.rep) == s }

// votes counts the legs in got that answered with status s.
func votes(got []legResult, s nfs3.Status) int {
	n := 0
	for _, r := range got {
		if agrees(r, s) {
			n++
		}
	}
	return n
}

// legErr is the first failure among legs: an error, or a refusal.
func legErr(got []legResult) error {
	for _, r := range got {
		if r.err != nil {
			return r.err
		}
		if err := statusOf(r.rep).Error(); err != nil {
			return err
		}
	}
	return nil
}

// legOrder admits one backend's mutation legs in the order they were
// issued, which is the same order on every backend: a namespace leg
// runs alone, after every leg issued before it, and a WRITE leg runs
// alongside other WRITEs, after every namespace leg issued before it.
// Without it a leg could overtake one it depends on — a RENAME into a
// directory reaching a backend ahead of the MKDIR that creates it, or a
// CREATE ahead of the REMOVE of the name it reuses — and that backend
// would diverge for good (namespace legs have no repair).
type legOrder struct {
	mu      sync.Mutex
	cond    sync.Cond
	next    uint64
	pending map[uint64]bool // issued, not finished: ticket -> runs alone
}

// issue hands out the next ticket; rs.issueMu orders issue across
// backends.
func (o *legOrder) issue(alone bool) uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.pending == nil {
		o.pending = make(map[uint64]bool)
		o.cond.L = &o.mu
	}
	o.next++
	o.pending[o.next] = alone
	return o.next
}

// wait blocks until ticket t may run.
func (o *legOrder) wait(t uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for !o.admits(t, o.pending[t]) {
		o.cond.Wait()
	}
}

// settle blocks until every namespace leg issued so far has finished,
// so that a LOOKUP walk sees the names the proxy has acknowledged.
func (o *legOrder) settle() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for t := o.next + 1; !o.admits(t, false); {
		o.cond.Wait()
	}
}

// admits reports whether no leg issued before t holds up a leg that
// runs alone (or not) from ticket t.
func (o *legOrder) admits(t uint64, alone bool) bool {
	for u, a := range o.pending {
		if u < t && (a || alone) {
			return false
		}
	}
	return true
}

// done retires ticket t.
func (o *legOrder) done(t uint64) {
	o.mu.Lock()
	delete(o.pending, t)
	o.mu.Unlock()
	o.cond.Broadcast()
}

// callWriteFanout fans one WRITE out to the block's replica set as
// FILE_SYNC, acknowledges at quorum, and queues repair for every leg
// that fails (including backends skipped because they are ejected).
// Forcing FILE_SYNC keeps the durability statement per backend —
// cross-backend COMMIT verifiers do not compose — and the reply is
// normalized so the flush path never tries to settle with COMMIT. A
// WRITE to a handle the namespace forgot is answered NFS3ERR_STALE: its
// file is gone.
//
//sgfsvet:retry-path
func (rs *replicaSet) callWriteFanout(ctx context.Context, a *nfs3.WriteArgs, out *nfs3.WriteRes) error {
	if !rs.ns.known(a.Obj) {
		out.Status = nfs3.Status(vfs.ErrStale)
		return nil
	}
	block := a.Offset / rs.blockSize
	version := rs.bumpVersion(a.Obj, block)
	canon := &nfs3.WriteArgs{Obj: a.Obj, Offset: a.Offset, Count: a.Count, Stable: nfs3.FileSync, Data: a.Data}
	targets, skipped := rs.writeTargets(a.Obj, block)
	for _, b := range skipped {
		rs.enqueueRepair(repairJob{backend: b.id, args: canon, version: version})
	}
	rep, _, err := rs.quorum(targets,
		func(ctx context.Context, b *replicaBackend) (xdr.Unmarshaler, error) {
			bfh, err := b.resolve(ctx, a.Obj, resolveCreateFile)
			if err != nil {
				return nil, err
			}
			wargs := &nfs3.WriteArgs{Obj: bfh, Offset: a.Offset, Count: a.Count, Stable: nfs3.FileSync, Data: a.Data}
			var res nfs3.WriteRes
			return &res, b.callWrite(ctx, wargs, &res)
		},
		func(b *replicaBackend) {
			rs.enqueueRepair(repairJob{backend: b.id, args: canon, version: version})
		})
	if err != nil {
		return err
	}
	*out = *rep.(*nfs3.WriteRes)
	out.Committed = nfs3.FileSync
	out.Verf = [nfs3.WriteVerfSize]byte{}
	canonWcc(&out.Wcc, a.Obj)
	return nil
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

// bumpVersion orders a write to (fh, block); repairs carry the version
// they were queued under and yield to anything newer.
func (rs *replicaSet) bumpVersion(fh nfs3.FH3, block uint64) uint64 {
	rs.verMu.Lock()
	defer rs.verMu.Unlock()
	key := blockKey{string(fh.Data), block}
	rs.versions[key]++
	return rs.versions[key]
}

func (rs *replicaSet) currentVersion(fh nfs3.FH3, block uint64) uint64 {
	rs.verMu.Lock()
	defer rs.verMu.Unlock()
	return rs.versions[blockKey{string(fh.Data), block}]
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
	if rs.currentVersion(j.args.Obj, j.args.Offset/rs.blockSize) > j.version || !rs.ns.known(j.args.Obj) {
		// A newer write to this block has been quorum-acked since the
		// job was queued, and repairing would roll the backend
		// backwards; or the file is gone.
		return
	}
	b := rs.backs[j.backend]
	if !b.healthy() {
		rs.requeueLater(j)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), rs.p.opTimeout())
	defer cancel()
	b.order.settle()
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
	delay := jitterDuration(time.Duration(j.attempt) * rs.cfg.probeInterval())
	time.AfterFunc(delay, func() {
		select {
		case <-rs.done:
		default:
			rs.enqueueRepair(j)
		}
	})
}

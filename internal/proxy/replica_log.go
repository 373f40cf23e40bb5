package proxy

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/metrics"
	"repro/internal/nfs3"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// The mutation log. Every WRITE and namespace procedure is appended
// once, in canonical form; every backend applies the log in order from
// its own cursor, a namespace entry alone and the WRITEs between two
// of them concurrently. The caller is answered once a quorum of
// backends applied the entry alike. An ejected backend's cursor stops
// until it replays on reintegration; one that disagrees with the
// quorum, or owes more than logMaxBacklog, is retired.

const (
	logMaxBacklog = 64 << 20 // bytes of entries a backend may owe
	logWindow     = 64       // WRITE entries one backend runs at once
	logEntryCost  = 128      // what an entry counts besides WRITE data
	readAt        = ^uint64(0)
)

// errUnresolvable is a leg's failure to translate a canonical handle
// on its backend, which then cannot apply the entry and is retired.
var errUnresolvable = errors.New("proxy: replica backend cannot resolve handle")

// applyFunc runs one entry, or one read (at readAt), on one backend;
// at is the entry's sequence number.
type applyFunc func(ctx context.Context, b *replicaBackend, at uint64) (xdr.Unmarshaler, error)

// logEntry is one mutation in the log.
type logEntry struct {
	seq   uint64
	ns    bool // a namespace entry: it runs alone on each backend
	size  int  // what it counts toward a backlog
	cum   int  // bytes appended before it
	apply applyFunc

	// Under replicaLog.mu.
	owed    uint64 // backends expected to answer, one bit per ID
	votes   []vote // the backends that answered, by status
	decided bool
	settled bool
	win     legResult     // the first leg with the decided status
	done    chan struct{} // closed once settled: decided, or no quorum can form
}

type vote struct {
	status nfs3.Status
	backs  uint64 // one bit per backend ID
}

// replicaLog is the set's mutation log and every backend's cursor.
type replicaLog struct {
	rs *replicaSet

	mu     sync.Mutex
	cond   sync.Cond
	ents   []*logEntry // from seq base on
	base   uint64
	bytes  int    // appended so far
	acked  uint64 // highest decided entry: reads want a backend past it
	closed bool
}

// cursor is one backend's place in the log, under replicaLog.mu.
type cursor struct {
	taken    uint64   // the last entry its applier took
	inflight []uint64 // entries being applied, ascending
	retry    uint64   // lowest entry whose leg failed; 0 when none
}

// applied is the backend's contiguous prefix: every entry up to it has
// been applied. The caller holds the log's mutex, as for every method
// below that does not take it.
func (c *cursor) applied() uint64 {
	a := c.taken
	if len(c.inflight) > 0 {
		a = c.inflight[0] - 1
	}
	if c.retry != 0 {
		a = min(a, c.retry-1)
	}
	return a
}

func newReplicaLog(rs *replicaSet) *replicaLog {
	l := &replicaLog{rs: rs, base: 1}
	l.cond.L = &l.mu
	return l
}

// tail is the last entry appended; the caller holds l.mu.
func (l *replicaLog) tail() uint64 { return l.base + uint64(len(l.ents)) - 1 }

func (l *replicaLog) at(seq uint64) *logEntry { return l.ents[seq-l.base] }

// locked runs f under the log's mutex, then wakes every waiter.
func (l *replicaLog) locked(f func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f()
	l.cond.Broadcast()
}

// run appends e, owed to every healthy backend, and waits for its
// outcome. A mutation that finds fewer than a quorum healthy is refused
// unappended. appended runs once e has its place.
func (l *replicaLog) run(e *logEntry, appended func()) (legResult, error) {
	rs := l.rs
	l.mu.Lock()
	for _, b := range rs.backs {
		if b.healthy() {
			e.owed |= 1 << b.id
		}
	}
	if n := bits.OnesCount64(e.owed); n < rs.need || l.closed {
		l.mu.Unlock()
		appended()
		rs.stats.QuorumFailures.Add(1)
		return legResult{}, fmt.Errorf("%w: %d healthy targets, need %d", ErrQuorumLost, n, rs.need)
	}
	e.seq, e.cum, e.done = l.tail()+1, l.bytes, make(chan struct{})
	l.ents = append(l.ents, e)
	l.bytes += e.size
	for _, b := range rs.backs {
		if !b.retired() && l.bytes-l.at(b.cur.applied()+1).cum > logMaxBacklog {
			l.retire(b)
		}
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	appended()
	<-e.done
	l.mu.Lock()
	defer l.mu.Unlock()
	if !e.decided {
		rs.stats.QuorumFailures.Add(1)
		return legResult{}, fmt.Errorf("%w: entry %d: fewer than %d backends agree", ErrQuorumLost, e.seq, rs.need)
	}
	if statusOf(e.win.rep) == nfs3.OK {
		rs.stats.QuorumWrites.Add(1)
	}
	return e.win, nil
}

// take hands b's applier its next entry, or nil once the set or b is
// done, waiting while b is out of service, its window is full, or a
// namespace entry waits for b's WRITEs to drain.
func (l *replicaLog) take(b *replicaBackend) *logEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := &b.cur
	for !l.closed && !b.retired() {
		if c.retry != 0 && len(c.inflight) == 0 {
			c.taken, c.retry = c.retry-1, 0
		}
		if c.retry == 0 && b.healthy() && c.taken < l.tail() {
			e := l.at(c.taken + 1)
			if len(c.inflight) == 0 || !e.ns && len(c.inflight) < logWindow {
				c.taken++
				c.inflight = append(c.inflight, e.seq)
				return e
			}
		}
		l.cond.Wait()
	}
	return nil
}

// finish records b's leg of e: a vote, a failure to retry from, or a
// handle b cannot resolve. A vote that disagrees with the decided
// status retires its backend.
func (l *replicaLog) finish(b *replicaBackend, e *logEntry, rep xdr.Unmarshaler, err error) {
	l.locked(func() {
		c := &b.cur
		c.inflight = slices.DeleteFunc(c.inflight, func(s uint64) bool { return s == e.seq })
		defer l.trim()
		switch {
		case b.retired():
			return
		case errors.Is(err, errUnresolvable):
			l.retire(b)
			return
		case err != nil:
			if c.retry == 0 || e.seq < c.retry {
				c.retry = e.seq
			}
			return
		}
		if e.owed&(1<<b.id) == 0 {
			l.rs.stats.Replays.Add(1)
		}
		s := statusOf(rep)
		i := slices.IndexFunc(e.votes, func(v vote) bool { return v.status == s })
		if i < 0 {
			i = len(e.votes)
			e.votes = append(e.votes, vote{status: s})
		}
		e.votes[i].backs |= 1 << b.id
		if !e.decided && bits.OnesCount64(e.votes[i].backs) >= l.rs.need {
			e.decided, e.win = true, legResult{b: b, rep: rep}
			l.acked = max(l.acked, e.seq)
		}
		for _, v := range e.votes {
			for _, o := range l.rs.backs {
				if e.decided && v.status != statusOf(e.win.rep) && v.backs&(1<<o.id) != 0 {
					l.retire(o)
				}
			}
		}
		l.settle(e)
	})
}

// settle closes e's done once it is decided, or once the backends
// still owing it cannot bring any status to a quorum. The caller holds
// l.mu.
func (l *replicaLog) settle(e *logEntry) {
	best, answered := 0, uint64(0)
	for _, v := range e.votes {
		best = max(best, bits.OnesCount64(v.backs))
		answered |= v.backs
	}
	if !e.settled && (e.decided || l.closed || best+bits.OnesCount64(e.owed&^answered) < l.rs.need) {
		e.settled = true
		close(e.done)
	}
}

// leave takes b out of every entry it owes, as it is ejected or
// retired: no caller waits for it. The caller holds l.mu.
func (l *replicaLog) leave(b *replicaBackend) {
	for _, e := range l.ents {
		e.owed &^= 1 << b.id
		l.settle(e)
	}
}

// retire takes b out of the set for the session; the caller holds l.mu.
func (l *replicaLog) retire(b *replicaBackend) {
	if b.bs.Health.Swap(int32(metrics.BackendRetired)) == int32(metrics.BackendRetired) {
		return
	}
	l.rs.stats.Retirements.Add(1)
	if l.rs.degraded() {
		l.rs.stats.QuorumLost.Add(1)
	}
	b.mu.Lock()
	clear(b.fhs)
	b.mu.Unlock()
	l.leave(b)
	l.cond.Broadcast()
}

// trim drops the entries every backend still in the set has applied,
// and the handles freed before them. The caller holds l.mu.
func (l *replicaLog) trim() {
	keep := l.tail() + 1
	for _, b := range l.rs.backs {
		if !b.retired() {
			keep = min(keep, b.cur.applied()+1)
		}
	}
	if keep <= l.base {
		return
	}
	l.ents = slices.Delete(l.ents, 0, int(keep-l.base))
	l.base = keep
	for _, key := range l.rs.ns.dropFreed(keep) {
		for _, b := range l.rs.backs {
			b.mu.Lock()
			delete(b.fhs, key)
			b.mu.Unlock()
		}
	}
}

// close wakes every applier and every caller.
func (l *replicaLog) close() {
	l.locked(func() {
		l.closed = true
		for _, e := range l.ents {
			l.settle(e)
		}
	})
}

// applyLoop is b's applier for the life of the set. Each leg is
// detached from every caller; the session bounds each of its calls.
func (b *replicaBackend) applyLoop() {
	defer b.set.wg.Done()
	l := b.set.log
	for e := l.take(b); e != nil; e = l.take(b) {
		run := func() {
			rep, err := e.apply(context.Background(), b, e.seq)
			l.finish(b, e, rep, err)
		}
		if e.ns {
			run()
			continue
		}
		b.set.wg.Add(1)
		go func() {
			defer b.set.wg.Done()
			run()
		}()
	}
}

// mutate runs one namespace mutation through the log. The caller holds
// nsMu for writing from before it reads a canonical handle until it has
// applied the outcome to the namespace, so no entry is appended in
// between: every entry resolves its handles against the namespace as
// of its place in the log.
func (rs *replicaSet) mutate(apply applyFunc) (uint64, legResult, error) {
	e := &logEntry{ns: true, size: logEntryCost, apply: apply}
	win, err := rs.log.run(e, func() {})
	return e.seq, win, err
}

// callWrite runs one WRITE through the log, FILE_SYNC on every backend
// (cross-backend COMMIT verifiers do not compose), so the flush path
// never settles with COMMIT. A WRITE to a handle the namespace forgot
// is answered NFS3ERR_STALE: its file is gone.
func (rs *replicaSet) callWrite(a *nfs3.WriteArgs, out *nfs3.WriteRes) error {
	obj, off, count, data := a.Obj, a.Offset, a.Count, slices.Clone(a.Data)
	e := &logEntry{size: len(data) + logEntryCost, apply: func(ctx context.Context, b *replicaBackend, at uint64) (xdr.Unmarshaler, error) {
		bfh, err := b.resolve(ctx, obj, at)
		if err != nil {
			return nil, err
		}
		var res nfs3.WriteRes
		return &res, b.call(ctx, nfs3.ProcWrite, &nfs3.WriteArgs{Obj: bfh, Offset: off, Count: count, Stable: nfs3.FileSync, Data: data}, &res)
	}}
	rs.nsMu.RLock()
	if !rs.ns.known(obj) {
		rs.nsMu.RUnlock()
		out.Status = nfs3.Status(vfs.ErrStale)
		return nil
	}
	win, err := rs.log.run(e, rs.nsMu.RUnlock)
	if err != nil {
		return err
	}
	*out = *win.rep.(*nfs3.WriteRes)
	out.Committed = nfs3.FileSync
	out.Verf = [nfs3.WriteVerfSize]byte{}
	canonWcc(&out.Wcc, obj)
	return nil
}

package proxy

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/nfs3"
	"repro/internal/xdr"
)

// Backend health. Each replica backend is an upstream session plus a
// health state machine: consecutive transport failures eject it,
// jittered probes reintegrate it, disagreement or overflow retires it,
// and reads and the log pick their backends by it.

// replicaBackend is one backend: its upstream session, its handle
// translations, its cursor in the log, and its health.
type replicaBackend struct {
	id   int
	addr string
	set  *replicaSet
	sess *upSession
	bs   *metrics.BackendStats

	mu  sync.Mutex
	fhs map[string]nfs3.FH3 // canonical key -> this backend's handle

	fails   atomic.Int32
	probing atomic.Bool

	cur cursor // under set.log.mu
}

func (b *replicaBackend) healthy() bool { return b.bs.Health.Load() == int32(metrics.BackendHealthy) }

func (b *replicaBackend) retired() bool { return b.bs.Health.Load() == int32(metrics.BackendRetired) }

// call issues one RPC on this backend and feeds the outcome to the
// health state machine.
func (b *replicaBackend) call(ctx context.Context, proc uint32, args xdr.Marshaler, reply xdr.Unmarshaler) error {
	b.bs.Calls.Add(1)
	err := b.sess.Call(ctx, proc, args, reply)
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
	if int(b.fails.Add(1)) >= positiveOr(b.set.cfg.EjectAfter, 3) {
		b.eject()
	}
}

// eject moves Healthy -> Ejected, which stops its cursor, and starts
// the reintegration probe loop. Crossing below quorum is the
// transition into degraded read-only service.
func (b *replicaBackend) eject() {
	if !b.bs.Health.CompareAndSwap(int32(metrics.BackendHealthy), int32(metrics.BackendEjected)) {
		return
	}
	b.bs.Ejections.Add(1)
	b.set.log.locked(func() { b.set.log.leave(b) })
	if b.set.degraded() {
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
// export root: issuing it makes the session re-establish itself (dial,
// handshake, MOUNT) first.
func (b *replicaBackend) probeLoop() {
	defer b.set.wg.Done()
	defer b.probing.Store(false)
	b.bs.Health.CompareAndSwap(int32(metrics.BackendEjected), int32(metrics.BackendProbing))
	interval := positiveOr(b.set.cfg.ProbeInterval, 500*time.Millisecond)
	for {
		select {
		case <-b.set.done:
			return
		case <-time.After(jitterDuration(interval)):
		}
		if b.healthy() || b.retired() { // healed by regular traffic, or gone
			return
		}
		b.bs.Probes.Add(1)
		ctx, cancel := context.WithTimeout(context.Background(), 4*interval)
		var res nfs3.GetAttrRes
		err := b.sess.Call(ctx, nfs3.ProcGetAttr, &nfs3.GetAttrArgs{Obj: b.sess.exportRoot()}, &res)
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

// reintegrate returns an ejected backend to service: its applier
// replays the log from its cursor, and reads count it once it has
// caught up. A retired backend stays retired.
func (b *replicaBackend) reintegrate() {
	for _, from := range []metrics.BackendHealth{metrics.BackendProbing, metrics.BackendEjected} {
		if b.bs.Health.CompareAndSwap(int32(from), int32(metrics.BackendHealthy)) {
			b.fails.Store(0)
			b.bs.Reintegrations.Add(1)
			b.set.log.locked(func() {})
			return
		}
	}
}

// degraded reports whether fewer than a write quorum of backends is
// healthy: the proxy then serves degraded read-only from cache and the
// survivors.
func (rs *replicaSet) degraded() bool {
	n := 0
	for _, b := range rs.backs {
		if b.healthy() {
			n++
		}
	}
	return n < rs.need
}

// readTargets orders the pool for a read of block of fh: round from the
// leader of the block's group of 64 (2 MiB at 32 KiB blocks), FNV-1a of
// fh xor the group index, mod N, so files and groups lead on different
// backends while a sequential scan stays on one. The healthy backends
// that have applied every decided entry come first — a read issued
// after an acknowledged mutation must not be answered by a backend yet
// to apply it (it would report NOENT for a fresh MKDIR, or list a name
// a RENAME moved) — and it waits for one while a healthy backend is
// catching up. Then the rest, in case those fail; a retired backend
// serves no read.
func (rs *replicaSet) readTargets(fh nfs3.FH3, block uint64) []*replicaBackend {
	h := uint64(14695981039346656037)
	for _, c := range fh.Data {
		h = (h ^ uint64(c)) * 1099511628211
	}
	n := len(rs.backs)
	lead := int((h ^ block/64) % uint64(n))
	l := rs.log
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		current := make([]*replicaBackend, 0, n)
		var rest []*replicaBackend
		catching := false
		for i := range n {
			b := rs.backs[(lead+i)%n]
			switch {
			case b.retired():
			case b.healthy() && b.cur.applied() >= l.acked:
				current = append(current, b)
			default:
				catching = catching || b.healthy()
				rest = append(rest, b)
			}
		}
		if len(current) > 0 || !catching || l.closed {
			return append(current, rest...)
		}
		l.cond.Wait()
	}
}

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
// jittered probes reintegrate it, and reads and writes pick their
// targets by it.

// replicaBackend is one backend: its upstream session, its per-backend
// handle translations, and its health state machine.
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

	// behind counts mutation legs issued to this backend that have not
	// finished. A quorum ack returns while stragglers still run, so a
	// backend with behind > 0 may not have applied a mutation its
	// caller already saw acknowledged; reads prefer the others.
	behind atomic.Int32
	// order admits this backend's mutation legs in issue order.
	order legOrder
}

func (b *replicaBackend) healthy() bool { return b.bs.Health.Load() == int32(metrics.BackendHealthy) }

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

func (b *replicaBackend) reintegrate() {
	if b.bs.Health.Swap(int32(metrics.BackendHealthy)) != int32(metrics.BackendHealthy) {
		b.fails.Store(0)
		b.bs.Reintegrations.Add(1)
	}
}

// degraded reports whether fewer than a write quorum of backends is
// healthy: the proxy then serves degraded read-only from cache and the
// survivors.
func (rs *replicaSet) degraded() bool { return len(rs.nsTargets()) < rs.place.Quorum }

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

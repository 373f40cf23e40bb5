// Package atomicmisuse holds the cases of the retired atomic-misuse
// analyzer — plain writes and reads mixed with sync/atomic access to
// the same location, and lost updates — as input to the rule that
// replaced it (atomicRule). The rule flags the sync/atomic functions
// themselves, so each mixed-access case is rejected where its location
// is accessed atomically; the lost updates are flagged where they are.
// The clean disciplines (constructor initialization, CAS loops,
// cross-location copies) must stay silent.
package atomicmisuse

import "sync/atomic"

// hot is an old-style atomic counter block: the discipline is
// sync/atomic package functions over plain uint64 fields.
type hot struct {
	n    uint64
	gen  uint64
	cold uint64 // never touched atomically
}

func (h *hot) inc() { atomic.AddUint64(&h.n, 1) } // want "function AddUint64"

func (h *hot) bump() { atomic.StoreUint64(&h.gen, 42) } // want "function StoreUint64"

// snapshot reads everything atomically: clean.
func (h *hot) snapshot() (uint64, uint64) {
	return atomic.LoadUint64(&h.n), atomic.LoadUint64(&h.gen) // want "function LoadUint64" want "function LoadUint64"
}

// ---- true positives ----

// badReset writes a counter other code updates atomically: rejected
// at inc and snapshot.
func (h *hot) badReset() {
	h.n = 0
}

// badIncrement mixes a plain increment with the atomic adds: rejected
// at inc and snapshot.
func (h *hot) badIncrement() {
	h.n++
}

// badRead reads the atomically-written generation plainly: rejected at
// bump and snapshot.
func (h *hot) badRead() uint64 {
	return h.gen
}

// lostUpdate re-stores its own load: concurrent Adds between the Load
// and the Store are silently dropped.
type gauge struct {
	cur  atomic.Int64
	peak atomic.Int64
}

func (g *gauge) lostUpdate(n int64) {
	g.cur.Store(g.cur.Load() + n) // want "g.cur.Store re-stores its own Load"
}

// lostUpdateOldStyle is the same bug in the package-function style.
func (h *hot) lostUpdateOldStyle() {
	atomic.StoreUint64(&h.n, atomic.LoadUint64(&h.n)+1) // want "function StoreUint64" want "function LoadUint64"
}

// ---- false-positive avoidance ----

// newHot initializes fields through a constructor-fresh base before
// anything can share them: exempt.
func newHot() *hot {
	h := &hot{}
	h.n = 0
	h.gen = 1
	return h
}

// coldUse touches a field with no atomic accesses anywhere: plain
// access is the discipline, not a violation.
func (h *hot) coldUse() uint64 {
	h.cold++
	return h.cold
}

// casLoop is the sanctioned read-modify-write: the CompareAndSwap
// detects and retries racing updates.
func (g *gauge) casLoop(n int64) {
	for {
		old := g.peak.Load()
		if n <= old || g.peak.CompareAndSwap(old, n) {
			return
		}
	}
}

// transfer stores one location's load into another: not a
// read-modify-write of the same location.
func transfer(dst, src *gauge) {
	dst.cur.Store(src.cur.Load())
}

// localCopy works on a by-value local copy: its fields are private to
// this frame.
func localCopy(h *hot) uint64 {
	c := *h
	_ = c
	var own hot
	own.n = 7
	return own.n
}

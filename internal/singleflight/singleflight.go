// Package singleflight provides the concurrency primitives behind the
// pipelined WAN paths: the single-flight Group guarantees that
// concurrent NFS clients and the readahead machinery never issue the
// same upstream READ twice, the Pool bounds (and sheds) background
// prefetches, and Each is the bounded fan-out that overlaps blocking
// RPCs on one connection for flushes and metadata gathers.
//
// The Group is modelled on golang.org/x/sync/singleflight but is
// generic over the result type and deliberately smaller: no Forget, no
// DoChan, no shared-result copying — callers must treat the returned
// value as read-only when shared is true.
package singleflight

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// call is an in-flight or completed Do invocation.
type call[V any] struct {
	done chan struct{} // closed when val/err are set
	val  V
	err  error
}

// Group suppresses duplicate function calls by key. The zero value is
// ready to use.
type Group[V any] struct {
	mu sync.Mutex
	m  map[string]*call[V]
}

// Do executes fn exactly once for all concurrent callers presenting the
// same key, returning the shared result to each. shared reports whether
// this caller received a result produced by another caller's fn (and so
// must not mutate it). The key is forgotten once fn returns: later Do
// calls run fn again.
func (g *Group[V]) Do(key string, fn func() (V, error)) (v V, err error, shared bool) {
	g.mu.Lock()
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, c.err, true
	}
	if g.m == nil {
		g.m = make(map[string]*call[V])
	}
	c := &call[V]{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	// Complete the call even if fn panics, so waiters are never
	// stranded on c.done; the panic propagates to this caller.
	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	return c.val, c.err, false
}

// Key builds a Group key for a (file handle, block index) pair. File
// handles are opaque bytes and may embed NULs, so the separator cannot
// collide with a handle prefix in practice: index digits are base-36
// and never NUL.
func Key(fh []byte, idx uint64) string {
	return string(fh) + "\x00" + strconv.FormatUint(idx, 36)
}

// Each calls fn(i) for every i in [0, n), at most limit calls at a
// time, and returns when all have finished. Indices are handed out in
// order; a limit of 1 or less runs them on the caller's goroutine.
// Unlike Pool it never sheds: every index runs exactly once.
func Each(n, limit int, fn func(i int)) {
	if limit > n {
		limit = n
	}
	if limit <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(limit)
	for w := 0; w < limit; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Pool is a fixed-size worker pool for background tasks that must be
// bounded and may be dropped (readahead). Unlike `go fn()`, a Pool never
// lets bursty callers pile up goroutines: TryGo drops work when every
// worker is busy and the submission buffer is full, which is the right
// policy for prefetch (the foreground read path will fetch the block
// itself if the hint is dropped).
type Pool struct {
	jobs chan func()
	wg   sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// NewPool starts n workers (minimum 1). The submission buffer is n
// deep, so up to n tasks can queue behind the running ones before
// TryGo starts shedding.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{jobs: make(chan func(), n)}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.wg.Done()
			for fn := range p.jobs {
				fn()
			}
		}()
	}
	return p
}

// TryGo submits fn for asynchronous execution, returning false if the
// pool is saturated or closed. It never blocks.
func (p *Pool) TryGo(fn func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	select {
	case p.jobs <- fn:
		return true
	default:
		return false
	}
}

// Close stops accepting work and waits for the workers to finish the
// tasks already queued. It is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.jobs)
	p.mu.Unlock()
	p.wg.Wait()
}

package blockio

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/nfs3"
	"repro/internal/singleflight"
)

// Source is what a Reader's caller supplies: its block store (a Cache
// or a disk cache has the first two methods) and its way to the server.
// An interface rather than stored functions, so that sgfs-vet, which
// resolves interface dispatch but not function values, still sees each
// caller's upstream call path from the Reader's entry points.
type Source interface {
	// Contains reports whether the block is held locally, without
	// reading it: the prefetcher skips such blocks.
	Contains(fh nfs3.FH3, idx uint64) bool
	// GetBlock returns the block if it is held locally.
	GetBlock(fh nfs3.FH3, idx uint64) ([]byte, bool)
	// FetchBlock reads the block from the server, inserts it into the
	// local store and returns it. prefetch marks a background fetch no
	// foreground read is waiting on.
	FetchBlock(ctx context.Context, fh nfs3.FH3, idx uint64, prefetch bool) ([]byte, error)
}

// Reader is the read side of the block data path: a single-flight fetch
// keyed by (file handle, block), so a demand reader and a prefetcher —
// or any number of concurrent readers — share one server READ per
// block, and a per-file sequential-stream detector that prefetches the
// next depth blocks on a bounded pool.
type Reader struct {
	src     Source
	depth   int
	timeout time.Duration
	sf      singleflight.Group[[]byte]
	pool    *singleflight.Pool // nil when depth <= 0

	// next is, per file handle, the block a sequential stream would
	// touch next. A file with no entry expects block 0, so a stream is
	// recognised from its first read; the entry goes when the stream
	// reaches the last block or the caller forgets the file.
	mu   sync.Mutex
	next map[string]uint64

	issued, shed, shared atomic.Uint64
}

// NewReader returns a Reader over src that prefetches depth blocks
// ahead of a sequential stream (depth <= 0: none), each prefetch on its
// own deadline of timeout. Close releases the prefetch workers.
func NewReader(src Source, depth int, timeout time.Duration) *Reader {
	r := &Reader{src: src, depth: depth, timeout: timeout, next: make(map[string]uint64)}
	if depth > 0 {
		r.pool = singleflight.NewPool(depth)
	}
	return r
}

// Read returns block idx of fh from the local store, or else from the
// server through Fetch.
func (r *Reader) Read(ctx context.Context, fh nfs3.FH3, idx uint64) ([]byte, error) {
	if data, ok := r.src.GetBlock(fh, idx); ok {
		return data, nil
	}
	return r.Fetch(ctx, fh, idx, false)
}

// Fetch brings block idx of fh in from the server, going upstream at
// most once no matter how many demand readers and prefetchers ask
// concurrently. Callers must treat the returned slice as read-only.
//
//sgfsvet:hot-path
func (r *Reader) Fetch(ctx context.Context, fh nfs3.FH3, idx uint64, prefetch bool) ([]byte, error) {
	data, err, shared := r.sf.Do(singleflight.Key(fh.Data, idx), func() ([]byte, error) {
		// Re-check under the flight: the block may have landed between
		// the caller's miss and this flight winning the key.
		if data, ok := r.src.GetBlock(fh, idx); ok {
			return data, nil
		}
		return r.src.FetchBlock(ctx, fh, idx, prefetch)
	})
	if shared {
		r.shared.Add(1)
	}
	return data, err
}

// Advance records a read of block idx of fh, a file of that many
// blocks, and when it extends a sequential stream schedules background
// fetches of the next depth blocks that exist and are not held locally.
// Hints are shed — never queued without bound — when the pool is
// saturated: the foreground read fetches on demand anyway, through the
// same single-flight group, so a shed hint costs latency, not
// correctness.
//
//sgfsvet:hot-path
func (r *Reader) Advance(fh nfs3.FH3, idx, blocks uint64) {
	if r.pool == nil {
		return
	}
	key := string(fh.Data)
	r.mu.Lock()
	sequential := r.next[key] == idx
	if idx+1 < blocks {
		r.next[key] = idx + 1
	} else {
		delete(r.next, key)
	}
	r.mu.Unlock()
	if !sequential {
		return
	}
	for i := 1; i <= r.depth; i++ {
		next := idx + uint64(i)
		if next >= blocks {
			break
		}
		if r.src.Contains(fh, next) {
			continue
		}
		if r.pool.TryGo(func() { r.prefetch(fh, next) }) {
			r.issued.Add(1)
		} else {
			r.shed.Add(1)
		}
	}
}

// prefetch runs one background fetch on its own deadline, detached from
// whichever foreground read hinted it: that read may return (and cancel
// its context) long before the prefetched bytes arrive.
func (r *Reader) prefetch(fh nfs3.FH3, idx uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), r.timeout)
	defer cancel()
	if _, err := r.Fetch(ctx, fh, idx, true); err != nil {
		// Best effort: the foreground read retries on demand.
		return
	}
}

// Stats reports prefetches issued, hints shed by a saturated pool, and
// fetches that rode on another caller's in-flight fetch of their block
// instead of going upstream.
func (r *Reader) Stats() (issued, shed, shared uint64) {
	return r.issued.Load(), r.shed.Load(), r.shared.Load()
}

// Forget drops fh's stream state; callers call it where they drop the
// file's blocks.
func (r *Reader) Forget(fh nfs3.FH3) {
	r.mu.Lock()
	delete(r.next, string(fh.Data))
	r.mu.Unlock()
}

// Close waits for the prefetch workers to drain. Callers close their
// transport first, so that queued prefetches fail fast.
func (r *Reader) Close() {
	if r.pool != nil {
		r.pool.Close()
	}
}

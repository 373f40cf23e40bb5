package blockio

import (
	"context"
	"hash/maphash"
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
	// FetchBlock reads the block from the server, stores it locally
	// under fill's rule and returns it.
	FetchBlock(ctx context.Context, fh nfs3.FH3, idx uint64, fill Fill) ([]byte, error)
}

// A Fill is a block fetched from the server on its way into a local
// store. Its bytes are as old as the fetch, so the store keeps them
// only if nothing has changed the block since: it calls Stale under the
// lock that orders its puts, and stores nothing when the block is held
// already or Stale reports true. The zero Fill belongs to no fetch and
// is never stale.
type Fill struct {
	r   *Reader
	key uint64
	gen uint64
	// Prefetch marks a background fetch no foreground read waits on.
	Prefetch bool
}

// Stale reports whether the file was written, truncated or dropped
// since the fetch began, or is being written now.
func (f Fill) Stale() bool {
	if f.r == nil {
		return false
	}
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	g := f.r.gens[f.key]
	return g.gen != f.gen || g.writes > 0
}

// fileGen orders a file's fetches against its writes (see count); it
// exists while either is in flight.
type fileGen struct {
	gen             uint64
	fetches, writes int
}

// Reader is the block data path above the stores: a single-flight
// fetch keyed by (file handle, block), so a demand reader and a
// prefetcher — or any number of concurrent readers — share one server
// READ per block; a per-file sequential-stream detector whose readahead
// window ramps up to a cap of blocks on a pool of as many workers; and
// the mapping of byte ranges onto blocks for reads and writes.
type Reader struct {
	src       Source
	bs        uint64
	maxWindow uint64
	timeout   time.Duration
	sf        singleflight.Group[flight]
	pool      *singleflight.Pool // nil when the cap is 0

	// byFile holds, per file handle, the file's sequential stream. A
	// file with no entry expects block 0, so a stream is recognised
	// from its first read; the entry goes when the stream reaches the
	// last block or the caller forgets the file. gens holds the files
	// with a fetch or a write in flight, by a hash of the handle: files
	// that collide share one generation, which only makes more fills
	// stale.
	mu     sync.Mutex
	byFile map[string]stream
	gens   map[uint64]fileGen
	seed   maphash.Seed

	issued, shed, shared atomic.Uint64
}

// stream is one file's sequential read stream. next is the block a
// sequential reader touches next, ahead the first block not yet handed
// to the pool, and window how many blocks past the latest hit the
// stream keeps hinted; first is the block the stream began at.
type stream struct {
	first, next, ahead, window uint64
}

// initialWindow is the window of a new stream, before the cap.
const initialWindow = 4

// NewReader returns a Reader over src's blocks of blockSize bytes whose
// readahead window grows to capBlocks blocks ahead of a sequential
// stream (capBlocks <= 0: no readahead), each prefetch on its own
// deadline of timeout. The prefetch pool has capBlocks workers, so the
// cap also bounds the prefetches in flight. Close releases the
// workers.
func NewReader(src Source, blockSize, capBlocks int, timeout time.Duration) *Reader {
	r := &Reader{src: src, bs: uint64(blockSize), maxWindow: uint64(max(capBlocks, 0)), timeout: timeout,
		byFile: make(map[string]stream), gens: make(map[uint64]fileGen), seed: maphash.MakeSeed()}
	if capBlocks > 0 {
		r.pool = singleflight.NewPool(capBlocks)
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

// ReadAt fills p with fh's bytes at off, clipped to size, the file's
// length, and returns how many it filled. It reads block by block
// through Read, calling Advance before each block, so that a miss's
// prefetches travel with its demand fetch. A hole, or a block
// held at an earlier, shorter EOF, reads as zeros up to the block's
// end.
func (r *Reader) ReadAt(ctx context.Context, fh nfs3.FH3, p []byte, off, size uint64) (int, error) {
	p = p[:min(uint64(len(p)), max(size, off)-off)]
	blocks := (size + r.bs - 1) / r.bs
	n := 0
	for n < len(p) {
		pos := off + uint64(n)
		idx, inner := pos/r.bs, pos%r.bs
		r.Advance(fh, idx, blocks)
		data, err := r.Read(ctx, fh, idx)
		if err != nil {
			return n, err
		}
		zeroEnd := n + int(min(r.bs-inner, uint64(len(p)-n)))
		if inner < uint64(len(data)) {
			n += copy(p[n:zeroEnd], data[inner:])
		}
		clear(p[n:zeroEnd])
		n = zeroEnd
	}
	return n, nil
}

// WriteAt merges p into fh at off, block by block, and hands each
// merged block to put. size is the file's length before the write. A
// block is merged over the copy held locally; else, when p covers only
// part of it and it starts below size, over the server's copy, through
// Fetch; else over nothing. No fetch begun before WriteAt returns
// stores its block (Fill).
func (r *Reader) WriteAt(ctx context.Context, fh nfs3.FH3, p []byte, off, size uint64, put func(idx uint64, block []byte) error) (int, error) {
	key := maphash.Bytes(r.seed, fh.Data)
	r.count(key, 0, 1)
	defer r.count(key, 0, -1)
	n := 0
	for n < len(p) {
		pos := off + uint64(n)
		idx, inner := pos/r.bs, pos%r.bs
		chunk := p[n : n+int(min(r.bs-inner, uint64(len(p)-n)))]
		base, ok := r.src.GetBlock(fh, idx)
		if !ok && uint64(len(chunk)) < r.bs && idx*r.bs < size {
			var err error
			if base, err = r.Fetch(ctx, fh, idx, false); err != nil {
				return n, err
			}
		}
		need := max(uint64(len(base)), inner+uint64(len(chunk)))
		grown := make([]byte, need)
		copy(grown, base)
		copy(grown[inner:], chunk)
		if err := put(idx, grown); err != nil {
			return n, err
		}
		n += len(chunk)
	}
	return n, nil
}

// flight is a fetch's result and the generation it began at.
type flight struct {
	data []byte
	gen  uint64
}

// Fetch brings block idx of fh in from the server, going upstream at
// most once no matter how many demand readers and prefetchers ask
// concurrently. It does not take the bytes of a fetch that began before
// a write or a Forget this call came after: it fetches again. Callers
// must treat the returned slice as read-only.
func (r *Reader) Fetch(ctx context.Context, fh nfs3.FH3, idx uint64, prefetch bool) ([]byte, error) {
	fill := Fill{r: r, key: maphash.Bytes(r.seed, fh.Data), Prefetch: prefetch}
	fill.gen = r.count(fill.key, 1, 0).gen
	defer r.count(fill.key, -1, 0)
	for {
		f, err, shared := r.sf.Do(singleflight.Key(fh.Data, idx), func() (flight, error) {
			// Re-check under the flight, once the fetch is counted: the
			// block may have landed between the caller's miss and this
			// flight winning the key.
			if data, ok := r.src.GetBlock(fh, idx); ok {
				return flight{data, fill.gen}, nil
			}
			data, err := r.src.FetchBlock(ctx, fh, idx, fill)
			return flight{data, fill.gen}, err
		})
		if shared {
			r.shared.Add(1)
		}
		if err != nil || f.gen >= fill.gen {
			return f.data, err
		}
	}
}

// Advance records a read of block idx of fh, a file of that many
// blocks, and when it extends a sequential stream ramps the stream's
// window and schedules background fetches of the blocks up to the
// window's end that exist, are not held locally and were not scheduled
// before, so each block of a stream is issued once. A read in
// [next, ahead) is a hit: the blocks before ahead are in flight, and
// their reads reach the caller in any order. Block 0 starts a fresh
// stream. A read a little behind next, inside the window, changes
// nothing; any other read is a seek, which restarts the stream behind
// it and prefetches nothing. Hints are shed — never queued without
// bound — when the pool is saturated, and a shed hint leaves ahead at
// its block, so the next hit retries it: the foreground read fetches
// on demand anyway, through the same single-flight group, so a shed
// hint costs latency, not correctness.
func (r *Reader) Advance(fh nfs3.FH3, idx, blocks uint64) {
	if r.pool == nil {
		return
	}
	from, to := r.step(fh, idx, blocks)
	// Contains and TryGo run outside r.mu: a store calls Fill.Stale,
	// which takes r.mu, under its own locks.
	for next := from; next < to; next++ {
		if r.src.Contains(fh, next) {
			continue
		}
		if !r.pool.TryGo(func() { r.prefetch(fh, next) }) {
			r.shed.Add(to - next)
			r.retry(fh, next)
			return
		}
		r.issued.Add(1)
	}
}

// step moves fh's stream past a read of block idx and claims the blocks
// [from, to) for prefetching.
func (r *Reader) step(fh nfs3.FH3, idx, blocks uint64) (from, to uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byFile[string(fh.Data)]
	switch {
	case ok && s.next <= idx && idx < max(s.ahead, s.next+1):
		// A hit.
	case ok && idx < s.next && s.next-idx <= s.window && (idx > 0 || s.first > 0):
		// A straggler. Block 0 is one only behind a stream that began
		// past it, as when the reads of a file's first blocks arrive
		// out of order; else it is a re-read of the file.
		return 0, 0
	case idx == 0:
		s = stream{}
	default:
		if idx+1 < blocks {
			r.byFile[string(fh.Data)] = stream{first: idx, next: idx + 1}
		} else {
			delete(r.byFile, string(fh.Data))
		}
		return 0, 0
	}
	if idx+1 >= blocks {
		delete(r.byFile, string(fh.Data))
		return 0, 0
	}
	s.window = min(max(2*s.window, initialWindow), r.maxWindow)
	s.next = idx + 1
	from = max(s.ahead, s.next)
	to = min(idx+s.window+1, blocks)
	s.ahead = max(from, to)
	r.byFile[string(fh.Data)] = s
	return from, to
}

// retry hands block idx of fh back to its stream, whose next hit
// issues it again, unless the stream has moved on.
func (r *Reader) retry(fh nfs3.FH3, idx uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.byFile[string(fh.Data)]; ok && idx < s.ahead {
		s.ahead = max(idx, s.next)
		r.byFile[string(fh.Data)] = s
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

// Forget drops fh's stream state and makes every fetch of it in flight
// stale; callers call it before they drop or cut the file's blocks.
func (r *Reader) Forget(fh nfs3.FH3) {
	key := maphash.Bytes(r.seed, fh.Data)
	r.mu.Lock()
	delete(r.byFile, string(fh.Data))
	if g, ok := r.gens[key]; ok {
		g.gen++
		r.gens[key] = g
	}
	r.mu.Unlock()
}

// count adds df fetches and dw writes in flight to key's counts; a
// write that ends (dw < 0) makes every earlier fetch stale.
func (r *Reader) count(key uint64, df, dw int) fileGen {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gens[key]
	g.fetches += df
	g.writes += dw
	if dw < 0 {
		g.gen++
	}
	if g.fetches == 0 && g.writes == 0 {
		delete(r.gens, key)
	} else {
		r.gens[key] = g
	}
	return g
}

// Close waits for the prefetch workers to drain. Callers close their
// transport first, so that queued prefetches fail fast.
func (r *Reader) Close() {
	if r.pool != nil {
		r.pool.Close()
	}
}

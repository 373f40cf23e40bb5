package proxy

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/singleflight"
)

// Parallel write-back. Pushing dirty blocks serially as FILE_SYNC
// writes costs (blocks × RTT) over a WAN; FlushAll instead keeps a
// bounded number of UNSTABLE writes in flight over the multiplexed RPC
// client (singleflight.Each), then settles each file with a single
// COMMIT, checking the server's write verifier to detect a restart that
// lost unstable data (RFC 1813 §3.3.7: a verifier change means
// everything unstable must be re-sent). Blocks whose writes fail are
// left dirty in the cache, so a later flush — or the next session —
// retries them; nothing is ever marked clean without a durable
// acknowledgement.

// defaultFlushWorkers is the write-back concurrency when the
// configuration does not choose one.
const defaultFlushWorkers = 8

func (c *ClientConfig) flushWorkers() int {
	if c.FlushWorkers > 0 {
		return c.FlushWorkers
	}
	return defaultFlushWorkers
}

// flushRun is the shared state of one FlushAll invocation.
type flushRun struct {
	p   *ClientProxy
	ctx context.Context

	errMu    sync.Mutex
	firstErr error
}

func (r *flushRun) setErr(err error) {
	r.errMu.Lock()
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.errMu.Unlock()
}

func (r *flushRun) err() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.firstErr
}

// flushFile tracks one file's progress through a flush round. fh, size
// and haveSize are fixed before the workers start; the rest is guarded
// by mu.
type flushFile struct {
	fh       nfs3.FH3
	size     uint64
	haveSize bool

	mu       sync.Mutex
	pending  int      // blocks not yet attempted
	failed   bool     // a write failed: skip COMMIT, leave blocks dirty
	written  []uint64 // blocks acknowledged UNSTABLE, awaiting COMMIT
	verf     [nfs3.WriteVerfSize]byte
	verfSet  bool
	mismatch bool // write verifiers disagreed mid-flush
}

func (f *flushFile) fail(r *flushRun, err error) {
	f.mu.Lock()
	f.failed = true
	f.mu.Unlock()
	r.setErr(err)
}

// recordWritten notes a successful UNSTABLE write and folds its
// verifier in: the server reports the same verifier for every write
// since it last restarted, so any disagreement inside one flush round
// means unstable data was dropped in between.
func (f *flushFile) recordWritten(idx uint64, verf [nfs3.WriteVerfSize]byte) {
	f.mu.Lock()
	if !f.verfSet {
		f.verf = verf
		f.verfSet = true
	} else if verf != f.verf {
		f.mismatch = true
	}
	f.written = append(f.written, idx)
	f.mu.Unlock()
}

// done retires one block attempt; the goroutine retiring the file's
// last block settles it with COMMIT.
func (f *flushFile) done(r *flushRun) {
	f.mu.Lock()
	f.pending--
	if f.pending > 0 {
		f.mu.Unlock()
		return
	}
	failed := f.failed
	written := f.written
	verf := f.verf
	mismatch := f.mismatch
	f.mu.Unlock()
	if failed || len(written) == 0 {
		// A failed file keeps its UNSTABLE-written blocks dirty too:
		// without a COMMIT they have no durability guarantee.
		return
	}
	if err := r.p.commitFile(r.ctx, f, written, verf, mismatch); err != nil {
		r.setErr(err)
	}
}

// flushJob is one dirty block to push.
type flushJob struct {
	f   *flushFile
	idx uint64
}

// FlushAll writes every dirty cached block back to the server with
// bounded concurrency. The time this takes is the paper's separately-
// reported "time needed to write back data at the end of execution".
func (p *ClientProxy) FlushAll(ctx context.Context) error {
	dc := p.cfg.DiskCache
	if dc == nil {
		return nil
	}
	var jobs []flushJob
	for _, fh := range dc.DirtyFiles() {
		idxs := dc.DirtyList(fh)
		if len(idxs) == 0 {
			continue
		}
		f := &flushFile{fh: fh, pending: len(idxs)}
		if attr, ok := dc.GetAttr(fh); ok {
			f.size, f.haveSize = attr.Size, true
		}
		for _, idx := range idxs {
			jobs = append(jobs, flushJob{f: f, idx: idx})
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	run := &flushRun{p: p, ctx: ctx}
	singleflight.Each(len(jobs), p.cfg.flushWorkers(), func(i int) {
		// No handler span covers a flush: each block nets its own
		// elapsed time against the waits its upstream calls credit back.
		defer p.relay.Charge(time.Now())
		p.flushBlock(run, jobs[i].f, jobs[i].idx)
	})
	return run.err()
}

// clipCrypt clips block data to the cached file size (so the flush does
// not extend the file with block padding) and applies at-rest
// encryption. ok=false means the block lies wholly past EOF and needs
// no write at all. Both run in the worker, off the cache shard locks.
func (p *ClientProxy) clipCrypt(f *flushFile, idx uint64, data []byte) ([]byte, bool) {
	bs := uint64(p.cfg.DiskCache.BlockSize())
	if f.haveSize {
		blockStart := idx * bs
		if blockStart >= f.size {
			return nil, false
		}
		if blockStart+uint64(len(data)) > f.size {
			data = data[:f.size-blockStart]
		}
	}
	if len(p.cfg.StorageKey) > 0 {
		data = atRestCrypt(p.cfg.StorageKey, f.fh, idx*bs, data)
	}
	return data, true
}

// flushBlock pushes one dirty block upstream as an UNSTABLE write.
//
//sgfsvet:hot-path
func (p *ClientProxy) flushBlock(r *flushRun, f *flushFile, idx uint64) {
	defer f.done(r)
	dc := p.cfg.DiskCache
	data, ok := dc.GetBlock(f.fh, idx)
	if !ok {
		// Dropped between listing and flushing (e.g. REMOVE).
		return
	}
	data, ok = p.clipCrypt(f, idx, data)
	if !ok {
		dc.FlushDone(f.fh, idx)
		return
	}
	p.dp.EnterFlush()
	defer p.dp.LeaveFlush()
	bs := uint64(dc.BlockSize())
	args := &nfs3.WriteArgs{Obj: f.fh, Offset: idx * bs, Count: uint32(len(data)), Stable: nfs3.Unstable, Data: data}
	var res nfs3.WriteRes
	err := p.relay.Call(r.ctx, nil, nfs3.ProcWrite, args, &res)
	stable := false
	if errors.Is(err, oncrpc.ErrNonIdempotentReplay) {
		// The generic channel refuses to replay WRITE, but a flush
		// write is identical bytes at an absolute offset: re-executing
		// it is harmless. Retry once on the re-established session,
		// FILE_SYNC this time — the old session's unstable state (and
		// its verifier) died with the connection, so only a stable
		// write proves durability here.
		p.dp.FlushRetries.Add(1)
		args.Stable = nfs3.FileSync
		res = nfs3.WriteRes{}
		err = p.relay.Call(r.ctx, nil, nfs3.ProcWrite, args, &res)
		stable = true
	}
	switch {
	case err != nil:
		f.fail(r, err)
	case res.Status != nfs3.OK:
		f.fail(r, res.Status.Error())
	default:
		p.dp.FlushedBlocks.Add(1)
		if stable || res.Committed == nfs3.FileSync {
			// Already durable upstream; no COMMIT needed for this block.
			dc.FlushDone(f.fh, idx)
		} else {
			f.recordWritten(idx, res.Verf)
		}
	}
}

// commitFile settles a file's UNSTABLE writes with one COMMIT. If the
// commit verifier disagrees with the write verifier (or the writes
// disagreed among themselves), the server restarted mid-flush and may
// have lost unstable data: every written block is re-sent FILE_SYNC
// before being marked clean.
func (p *ClientProxy) commitFile(ctx context.Context, f *flushFile, written []uint64, verf [nfs3.WriteVerfSize]byte, mismatch bool) error {
	var res nfs3.CommitRes
	if err := p.relay.Call(ctx, nil, nfs3.ProcCommit, &nfs3.CommitArgs{Obj: f.fh}, &res); err != nil {
		return err
	}
	if res.Status != nfs3.OK {
		return res.Status.Error()
	}
	if mismatch || res.Verf != verf {
		p.dp.CommitMismatches.Add(1)
		return p.resendStable(ctx, f, written)
	}
	dc := p.cfg.DiskCache
	for _, idx := range written {
		dc.FlushDone(f.fh, idx)
	}
	return nil
}

// resendStable re-sends blocks whose UNSTABLE copies the server may
// have lost, as FILE_SYNC writes, marking each clean only on success.
func (p *ClientProxy) resendStable(ctx context.Context, f *flushFile, written []uint64) error {
	dc := p.cfg.DiskCache
	bs := uint64(dc.BlockSize())
	var firstErr error
	for _, idx := range written {
		data, ok := dc.GetBlock(f.fh, idx)
		if !ok {
			continue
		}
		data, ok = p.clipCrypt(f, idx, data)
		if !ok {
			dc.FlushDone(f.fh, idx)
			continue
		}
		args := &nfs3.WriteArgs{Obj: f.fh, Offset: idx * bs, Count: uint32(len(data)), Stable: nfs3.FileSync, Data: data}
		var res nfs3.WriteRes
		err := p.relay.Call(ctx, nil, nfs3.ProcWrite, args, &res)
		if errors.Is(err, oncrpc.ErrNonIdempotentReplay) {
			err = p.relay.Call(ctx, nil, nfs3.ProcWrite, args, &res)
		}
		switch {
		case err != nil:
			if firstErr == nil {
				firstErr = err
			}
		case res.Status != nfs3.OK:
			if firstErr == nil {
				firstErr = res.Status.Error()
			}
		default:
			dc.FlushDone(f.fh, idx)
		}
	}
	return firstErr
}

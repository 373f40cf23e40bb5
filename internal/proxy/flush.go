package proxy

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/blockio"
	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/vfs"
)

// Parallel write-back. FlushAll hands the disk cache's dirty blocks to
// the flush engine (blockio.Flush): up to the proxy's WAN window of
// UNSTABLE writes in flight over the multiplexed RPC client (the
// wanWindowBytes that also caps readahead), one verifier-checked
// COMMIT per file, and a FILE_SYNC re-send when a verifier says the
// server restarted. This file is what the proxy supplies to it: which
// blocks are dirty, the bytes of one block as the server should hold
// them, and the one replay exception the WAN channel needs. Blocks the
// engine does not report durable are left dirty in the cache, so a
// later flush — or the next session — retries them; nothing is ever
// marked clean without a durable acknowledgement.

// FlushAll writes every dirty cached block back to the server, up to
// one WAN window of them in flight. The time this takes is the paper's
// separately-reported "time needed to write back data at the end of
// execution".
func (p *ClientProxy) FlushAll(ctx context.Context) error {
	dc := p.cfg.DiskCache
	if dc == nil {
		return nil
	}
	w := &flushWriter{p: p, sizes: make(map[string]uint64), vers: make(map[string]map[uint64]uint64)}
	var files []blockio.FileBlocks
	for _, fh := range dc.DirtyFiles() {
		blocks := dc.DirtyList(fh)
		files = append(files, blockio.FileBlocks{FH: fh, Blocks: blocks})
		w.vers[string(fh.Data)] = make(map[uint64]uint64, len(blocks))
		if attr, ok := dc.GetAttr(fh); ok {
			w.sizes[string(fh.Data)] = attr.Size
		}
	}
	mismatches, err := blockio.Flush(ctx, p.window, files, w)
	p.dp.CommitMismatches.Add(uint64(mismatches))
	return err
}

// flushWriter is one FlushAll round as the flush engine sees it. sizes
// holds the cached size of each dirty file that has one, fixed before
// the workers start; vers, per file, the cache version each block was
// last sent at, which Durable must match.
type flushWriter struct {
	p     *ClientProxy
	sizes map[string]uint64

	mu   sync.Mutex
	vers map[string]map[uint64]uint64
}

// clipCrypt clips block data to the cached file size (so the flush does
// not extend the file with block padding) and applies at-rest
// encryption. ok=false means the block lies wholly past EOF and needs
// no write at all. Both run in the worker, off the cache shard locks.
func (w *flushWriter) clipCrypt(fh nfs3.FH3, blockStart uint64, data []byte) ([]byte, bool) {
	if size, ok := w.sizes[string(fh.Data)]; ok {
		if blockStart >= size {
			return nil, false
		}
		if blockStart+uint64(len(data)) > size {
			data = data[:size-blockStart]
		}
	}
	if key := w.p.cfg.StorageKey; len(key) > 0 {
		data = atRestCrypt(key, fh, blockStart, data)
	}
	return data, true
}

// WriteBlock pushes one dirty block upstream. No handler span covers a
// flush: each block nets its own elapsed time against the waits its
// upstream calls credit back.
func (w *flushWriter) WriteBlock(ctx context.Context, fh nfs3.FH3, idx uint64, stable uint32) (uint32, blockio.Verifier, error) {
	p := w.p
	defer p.relay.Charge(time.Now())
	dc := p.cfg.DiskCache
	data, ver, ok := dc.ReadVersion(fh, idx)
	if !ok {
		// Dropped between listing and flushing (e.g. REMOVE).
		return 0, blockio.Verifier{}, blockio.ErrGone
	}
	w.mu.Lock()
	w.vers[string(fh.Data)][idx] = ver
	w.mu.Unlock()
	off := idx * uint64(dc.BlockSize())
	data, ok = w.clipCrypt(fh, off, data)
	if !ok {
		return nfs3.FileSync, blockio.Verifier{}, nil
	}
	return p.flushBlock(ctx, &nfs3.WriteArgs{Obj: fh, Offset: off, Count: uint32(len(data)), Stable: stable, Data: data})
}

// flushBlock sends one flush write upstream.
func (p *ClientProxy) flushBlock(ctx context.Context, args *nfs3.WriteArgs) (uint32, blockio.Verifier, error) {
	p.dp.EnterFlush()
	defer p.dp.LeaveFlush()
	var res nfs3.WriteRes
	err := p.relay.Call(ctx, nil, nfs3.ProcWrite, args, &res)
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
		err = p.relay.Call(ctx, nil, nfs3.ProcWrite, args, &res)
	}
	if err == nil {
		err = res.Status.Error()
	}
	if errors.Is(err, vfs.ErrStale) {
		// The file is gone upstream (removed, or renamed over) and its
		// data has nowhere to go: cancel its write-back.
		p.dropFile(args.Obj)
		return 0, res.Verf, blockio.ErrGone
	}
	if err != nil {
		return 0, res.Verf, err
	}
	p.dp.FlushedBlocks.Add(1)
	return res.Committed, res.Verf, nil
}

// Commit settles a file's UNSTABLE writes upstream.
func (w *flushWriter) Commit(ctx context.Context, fh nfs3.FH3) (blockio.Verifier, error) {
	defer w.p.relay.Charge(time.Now())
	var res nfs3.CommitRes
	if err := w.p.relay.Call(ctx, nil, nfs3.ProcCommit, &nfs3.CommitArgs{Obj: fh}, &res); err != nil {
		return res.Verf, err
	}
	return res.Verf, res.Status.Error()
}

// Durable marks a block clean after it reached the server, unless it
// changed since WriteBlock read it.
func (w *flushWriter) Durable(fh nfs3.FH3, idx uint64) {
	w.mu.Lock()
	ver := w.vers[string(fh.Data)][idx]
	w.mu.Unlock()
	w.p.cfg.DiskCache.FlushDone(fh, idx, ver)
}

package proxy

import (
	"context"
	"errors"
	"time"

	"repro/internal/blockio"
	"repro/internal/nfs3"
	"repro/internal/vfs"
)

// Parallel write-back. FlushAll hands the disk cache's dirty blocks to
// the flush engine (blockio.Flush): up to the proxy's WAN window of
// UNSTABLE writes in flight over the multiplexed RPC client (the
// wanWindowBytes that also caps readahead), one verifier-checked
// COMMIT per file, and a FILE_SYNC re-send when a verifier says the
// server restarted. The engine reads each block and its version from
// the disk cache and marks it clean only when that version is durable;
// this file supplies the bytes of one block as the server should hold
// them. Blocks the engine does not make durable are left dirty in the
// cache, so a later flush — or the next session — retries them.

// FlushAll writes every dirty cached block back to the server, up to
// one WAN window of them in flight. The time this takes is the paper's
// separately-reported "time needed to write back data at the end of
// execution".
func (p *ClientProxy) FlushAll(ctx context.Context) error {
	dc := p.cfg.DiskCache
	if dc == nil {
		return nil
	}
	files := dc.DirtyFiles()
	w := &flushWriter{p: p, sizes: make(map[string]uint64, len(files))}
	for _, fh := range files {
		if attr, ok := dc.GetAttr(fh); ok {
			w.sizes[string(fh.Data)] = attr.Size
		}
	}
	mismatches, err := blockio.Flush(ctx, p.window, dc, files, w)
	p.dp.CommitMismatches.Add(uint64(mismatches))
	return err
}

// flushWriter is one FlushAll round as the flush engine sees it. sizes
// holds the cached size of each dirty file that has one, fixed before
// the workers start.
type flushWriter struct {
	p     *ClientProxy
	sizes map[string]uint64
}

// clipCrypt clips block data to the cached file size (so the flush does
// not extend the file with block padding) and applies at-rest
// encryption. ok=false means the block lies wholly past EOF and needs
// no write at all. Both run in the worker, off the cache's lock.
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
func (w *flushWriter) WriteBlock(ctx context.Context, fh nfs3.FH3, idx uint64, data []byte, stable uint32) (uint32, blockio.Verifier, error) {
	p := w.p
	defer p.relay.Charge(time.Now())
	off := idx * uint64(p.cfg.DiskCache.BlockSize())
	data, ok := w.clipCrypt(fh, off, data)
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

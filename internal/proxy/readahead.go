package proxy

import (
	"context"
	"time"

	"repro/internal/blockio"
	"repro/internal/cache"
	"repro/internal/nfs3"
	"repro/internal/vfs"
)

// Proxy-side readahead. The proxy sits in front of many NFS client
// threads; when the block reader (internal/blockio) detects a
// sequential block stream on a file it prefetches the blocks ahead
// into the disk cache over the WAN, so the next foreground READ is a
// local hit, and it guarantees the prefetcher and any number of
// concurrent clients share one upstream READ per block. The stream's
// window starts at 4 blocks, doubles on each sequential read up to the
// proxy's WAN window (wanWindowBytes, the same byte budget FlushAll
// keeps in flight the other way), and issues each block once; a seek
// restarts it. Readahead is on exactly when the proxy has a disk cache.
// This file is what the proxy supplies to the reader: the disk cache as
// the block store, and one upstream READ with at-rest decryption as the
// fetch.

// cacheSource is the disk cache and the upstream as the block reader
// sees them.
type cacheSource struct {
	*cache.DiskCache
	p *ClientProxy
}

// FetchBlock reads one block upstream into the disk cache. A non-OK
// status comes back as its bare vfs.Errno (a protocol outcome every
// sharer of the fetch sees alike), a transport failure as any other
// error.
func (s cacheSource) FetchBlock(ctx context.Context, fh nfs3.FH3, idx uint64, fill blockio.Fill) ([]byte, error) {
	p := s.p
	if fill.Prefetch {
		// No handler span covers a prefetch: it nets its own elapsed
		// time against the wait its upstream call credits back.
		defer p.relay.Charge(time.Now())
	}
	dc := s.DiskCache
	bs := uint64(dc.BlockSize())
	var res nfs3.ReadRes
	args := &nfs3.ReadArgs{Obj: fh, Offset: idx * bs, Count: uint32(bs)}
	if err := p.relay.Call(ctx, nil, nfs3.ProcRead, args, &res); err != nil {
		return nil, err
	}
	if res.Status != nfs3.OK {
		return nil, res.Status.Error()
	}
	data := res.Data
	if len(p.cfg.StorageKey) > 0 {
		data = atRestCrypt(p.cfg.StorageKey, fh, idx*bs, data)
	}
	// A fill the cache cannot store only costs a later re-fetch; the
	// bytes are still returned to every sharer.
	dc.Fill(string(fh.Data), idx, data, fill)
	return data, nil
}

// blockStatus maps a block reader result back to an NFS status: the
// bare vfs.Errno FetchBlock returned, or EIO for a transport failure.
func blockStatus(err error) nfs3.Status {
	if err == nil {
		return nfs3.OK
	}
	if errno, ok := err.(vfs.Errno); ok {
		return nfs3.Status(errno)
	}
	return nfs3.Status(vfs.ErrIO)
}

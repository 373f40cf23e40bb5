package proxy

import (
	"context"
	"time"

	"repro/internal/nfs3"
	"repro/internal/singleflight"
	"repro/internal/vfs"
)

// Proxy-side readahead. The proxy sits in front of many NFS client
// threads; when it detects a sequential block stream on a file it
// prefetches the next blocks into the disk cache over the WAN, so the
// next foreground READ is a local hit. A single-flight group keyed by
// (file handle, block) guarantees the prefetcher and any number of
// concurrent clients share one upstream READ per block instead of
// duplicating it.

// defaultReadahead is the prefetch depth when the configuration does
// not choose one (Readahead == 0); negative disables.
const defaultReadahead = 4

func (c *ClientConfig) readahead() int {
	if c.Readahead < 0 {
		return 0
	}
	if c.Readahead == 0 {
		return defaultReadahead
	}
	return c.Readahead
}

// blockFetch is the single-flight result for one block READ. A non-OK
// status travels in-band (it is a protocol outcome, not a transport
// error) so every sharer sees the same verdict.
type blockFetch struct {
	data   []byte
	status nfs3.Status
}

// fetchBlock returns block idx of fh, going upstream at most once no
// matter how many demand readers and prefetchers ask concurrently.
// Callers must treat the returned slice as read-only.
//
//sgfsvet:hot-path
func (p *ClientProxy) fetchBlock(ctx context.Context, fh nfs3.FH3, idx uint64, prefetched bool) ([]byte, nfs3.Status) {
	dc := p.cfg.DiskCache
	v, err, shared := p.sf.Do(singleflight.Key(fh.Data, idx), func() (blockFetch, error) {
		// Re-check under the flight: the block may have landed between
		// the caller's miss and this flight winning the key.
		if data, ok := dc.GetBlock(fh, idx); ok {
			return blockFetch{data: data, status: nfs3.OK}, nil
		}
		bs := uint64(dc.BlockSize())
		var res nfs3.ReadRes
		args := &nfs3.ReadArgs{Obj: fh, Offset: idx * bs, Count: uint32(bs)}
		if err := p.relay.Call(ctx, nil, nfs3.ProcRead, args, &res); err != nil {
			return blockFetch{}, err
		}
		if res.Status != nfs3.OK {
			return blockFetch{status: res.Status}, nil
		}
		data := res.Data
		if len(p.cfg.StorageKey) > 0 {
			data = atRestCrypt(p.cfg.StorageKey, fh, idx*bs, data)
		}
		if prefetched {
			if err := dc.PutPrefetched(fh, idx, data); err != nil {
				// Cache insertion failure only costs a later re-fetch;
				// the bytes are still returned to any sharer.
				return blockFetch{data: data, status: nfs3.OK}, nil
			}
		} else if err := dc.PutBlock(fh, idx, data, false); err != nil {
			return blockFetch{data: data, status: nfs3.OK}, nil
		}
		return blockFetch{data: data, status: nfs3.OK}, nil
	})
	if err != nil {
		return nil, nfs3.Status(vfs.ErrIO)
	}
	if shared {
		p.dp.InflightDedup.Add(1)
	}
	return v.data, v.status
}

// maybeReadahead records the access at block idx and, when it extends a
// sequential run, schedules background prefetches of the following
// blocks. Hints are shed (never queued unboundedly) when the prefetch
// pool is saturated: the foreground read path fetches on demand anyway.
func (p *ClientProxy) maybeReadahead(fh nfs3.FH3, idx, size uint64) {
	ra := p.cfg.readahead()
	if ra <= 0 || p.prefetch == nil {
		return
	}
	key := string(fh.Data)
	p.raMu.Lock()
	sequential := p.raNext[key] == idx
	p.raNext[key] = idx + 1
	p.raMu.Unlock()
	if !sequential {
		return
	}
	dc := p.cfg.DiskCache
	bs := uint64(dc.BlockSize())
	maxBlock := (size + bs - 1) / bs
	for i := 1; i <= ra; i++ {
		next := idx + uint64(i)
		if next >= maxBlock {
			break
		}
		if dc.Contains(fh, next) {
			continue
		}
		if p.prefetch.TryGo(func() { p.prefetchBlock(fh, next) }) {
			p.dp.ReadaheadIssued.Add(1)
		} else {
			p.dp.ReadaheadDropped.Add(1)
		}
	}
}

// prefetchBlock runs one background readahead fetch on its own
// deadline, detached from whichever foreground read hinted it.
func (p *ClientProxy) prefetchBlock(fh nfs3.FH3, idx uint64) {
	defer p.relay.Charge(time.Now())
	ctx, cancel := context.WithTimeout(context.Background(), p.opTimeout())
	defer cancel()
	p.fetchBlock(ctx, fh, idx, true)
}

// Concurrent upstream metadata helpers: GETATTR gathers fanned out as
// blocking calls on the one WAN connection, used by the READDIRPLUS
// attribute fill and by parallel revalidation of the session attribute
// cache. An N-entry gather costs ~1 round trip instead of N.
package proxy

import (
	"context"
	"time"

	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/singleflight"
)

// attrFetch is one slot of a GETATTR gather.
type attrFetch struct {
	res nfs3.GetAttrRes
	err error
}

// gatherAttrs fetches attributes for every handle concurrently.
// Results are positional and carry per-slot errors. The slots overlap,
// so the gather's wall time is credited back to the meter once, not
// slot by slot through relay.Call.
func (p *ClientProxy) gatherAttrs(ctx context.Context, fhs []nfs3.FH3) []attrFetch {
	out := make([]attrFetch, len(fhs))
	if len(fhs) == 0 {
		return out
	}
	defer p.relay.Credit(time.Now())
	ctx, cancel := context.WithTimeout(ctx, p.opTimeout())
	defer cancel()
	singleflight.Each(len(out), oncrpc.GatherDepth, func(i int) {
		f := &out[i]
		f.err = p.up.Call(ctx, nfs3.ProcGetAttr, &nfs3.GetAttrArgs{Obj: fhs[i]}, &f.res)
		if f.err == nil && f.res.Status != nfs3.OK {
			f.err = f.res.Status.Error()
		}
	})
	return out
}

// fillEntryAttrs completes a READDIRPLUS page whose entries have
// handles but no attributes (and no cached ones): one concurrent
// GETATTR gather fetches them all, primes the session attribute
// cache, and patches the entries in place. Slots that fail stay
// attribute-less — NFSv3 post-op attributes are optional, so the
// listing itself still succeeds.
func (p *ClientProxy) fillEntryAttrs(ctx context.Context, entries []nfs3.DirEntryPlus) {
	dc := p.cfg.DiskCache
	if dc == nil {
		return
	}
	var fhs []nfs3.FH3
	var slots []int
	for i := range entries {
		e := &entries[i]
		if e.FH.Present && !e.Attr.Present {
			fhs = append(fhs, e.FH.FH)
			slots = append(slots, i)
		}
	}
	if len(fhs) == 0 {
		return
	}
	for i, f := range p.gatherAttrs(ctx, fhs) {
		if f.err != nil {
			continue
		}
		dc.PutAttr(fhs[i], f.res.Attr)
		entries[slots[i]].Attr = nfs3.PostOpAttr{Present: true, Attr: f.res.Attr}
	}
}

// RevalidateAttrs refreshes every attribute the session cache holds
// with one concurrent GETATTR sweep, and forgets every cached name, so
// the next LOOKUP of each asks the server again. Files whose (size,
// mtime) moved upstream have their cached blocks dropped so the next
// read refetches fresh data; files with dirty (unflushed) blocks, and
// the names bound to them, are skipped — their local state is
// authoritative until FlushAll pushes it. It returns how many handles
// were checked and how many had changed.
func (p *ClientProxy) RevalidateAttrs(ctx context.Context) (checked, changed int, err error) {
	dc := p.cfg.DiskCache
	if dc == nil {
		return 0, 0, nil
	}
	defer p.relay.Charge(time.Now())
	dirty := make(map[string]bool)
	for _, fh := range dc.DirtyFiles() {
		dirty[string(fh.Data)] = true
	}
	dc.ForgetNames(dirty)
	var fhs []nfs3.FH3
	for _, fh := range dc.AttrFiles() {
		if !dirty[string(fh.Data)] {
			fhs = append(fhs, fh)
		}
	}
	for i, f := range p.gatherAttrs(ctx, fhs) {
		if f.err != nil {
			if err == nil {
				err = f.err
			}
			continue
		}
		checked++
		fh := fhs[i]
		if prev, ok := dc.GetAttr(fh); ok && (prev.Size != f.res.Attr.Size || prev.Mtime != f.res.Attr.Mtime) {
			changed++
			p.dropFile(fh)
		}
		dc.PutAttr(fh, f.res.Attr)
	}
	return checked, changed, err
}

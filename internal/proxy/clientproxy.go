package proxy

import (
	"cmp"
	"context"
	"net"
	"time"

	"repro/internal/blockio"
	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/mountd"
	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/securechan"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// ClientConfig configures a client-side proxy.
type ClientConfig struct {
	// ServerDial connects to the server-side proxy.
	ServerDial Dialer
	// Channel, when non-nil, wraps the server connection in a secure
	// channel with these parameters. Nil sends plaintext (gfs).
	Channel *securechan.Config
	// ExportPath is the remote export to attach to.
	ExportPath string
	// DiskCache, when non-nil, enables block/name/attr/access caching with
	// write-back. Nil forwards everything (the LAN configurations of
	// the paper run without disk caching, §6.3.1).
	DiskCache *cache.DiskCache
	// RekeyInterval enables periodic session-key renegotiation.
	RekeyInterval time.Duration
	// StorageKey, when non-empty (32 bytes recommended), enables
	// at-rest encryption: blocks are encrypted before they reach the
	// server and decrypted on the way back, so untrusted servers and
	// administrators only ever hold ciphertext (the paper's §7 future
	// work).
	StorageKey []byte
	// Meter, when non-nil, accumulates the proxy's processing time
	// (client-side series of Figure 5).
	Meter *metrics.Meter
	// Recovery tunes how upstream sessions survive link failure
	// (reconnect, replay, deadlines); nil selects the defaults.
	Recovery *RecoveryConfig
	// Replication, when non-nil, replaces the single upstream with a
	// replicated multi-backend namespace: every mutation fans out to
	// every healthy backend and is acknowledged at quorum, reads are
	// hedged across the backends, and failed backends are
	// ejected and probed back in. ServerDial/Channel are ignored in
	// favor of the per-backend dialers (each backend is an upstream
	// session of its own, so Channel still applies per backend).
	Replication *ReplicationConfig
}

// ClientProxy is the client-side SGFS proxy: the local NFS client
// mounts it as if it were the file server.
type ClientProxy struct {
	cfg      ClientConfig
	recovery RecoveryConfig // cfg.Recovery, or the defaults
	rpc      *oncrpc.Server
	relay    nfs3.Relay
	up       upstream
	chs      metrics.ChannelStats

	// Pipelined data path: reader fetches blocks into the disk cache
	// (one upstream READ per block, readahead on sequential streams;
	// readahead.go), FlushAll writes them back (flush.go), and dp
	// counts both. window is the one in-flight bound, in blocks, that
	// each direction keeps over the WAN (wanWindowBytes).
	reader *blockio.Reader
	window int
	dp     metrics.DataPathStats
}

// wanWindowBytes bounds the bytes the client proxy keeps in flight
// over the WAN in each direction: a readahead stream's window, and
// FlushAll's UNSTABLE writes. 1 MiB is the bandwidth-delay product of a
// 200 Mb/s link at 40 ms RTT, enough to keep such a link busy.
const wanWindowBytes = 1 << 20

// initTimeout bounds proxy construction (dial, handshake, MOUNT):
// a dead server must fail setup, not hang it.
const initTimeout = 30 * time.Second

// NewClientProxy establishes the channel to the server-side proxy,
// mounts the export through it, and returns a proxy ready to serve
// the local client.
func NewClientProxy(cfg ClientConfig) (*ClientProxy, error) {
	p := &ClientProxy{cfg: cfg, recovery: *cmp.Or(cfg.Recovery, &RecoveryConfig{}), rpc: oncrpc.NewServer()}
	p.relay = nfs3.Relay{Up: p, Meter: cfg.Meter}
	// Without a disk cache the block reader and FlushAll are never used.
	bs := 0
	if cfg.DiskCache != nil {
		bs = cfg.DiskCache.BlockSize()
		p.window = max(wanWindowBytes/bs, 1)
	}
	p.reader = blockio.NewReader(cacheSource{cfg.DiskCache, p}, bs, p.window)
	// Establish the first session synchronously so misconfiguration
	// (bad export, refused credential) fails here, not on first use.
	ctx, cancel := context.WithTimeout(context.Background(), initTimeout)
	defer cancel()
	var err error
	if cfg.Replication != nil {
		p.up, err = newReplicaSet(ctx, p, cfg.Replication)
	} else if p.up, err = p.newSession(ctx, cfg.ServerDial); err != nil {
		p.up.Close()
	}
	if err != nil {
		p.reader.Close()
		return nil, err
	}
	p.register()
	return p, nil
}

// degraded reports whether the proxy is in disconnected operation: the
// channel is down or — with replication — fewer than a write quorum of
// backends is healthy. Cached reads keep being served; see the
// read/getattr handlers.
func (p *ClientProxy) degraded() bool { return p.up.degraded() }

// Serve accepts local client connections until Close.
func (p *ClientProxy) Serve(l net.Listener) error { return p.rpc.Serve(l) }

// Close flushes dirty cached data to the server (write-back at session
// end, as in Figures 9/10) and shuts the proxy down. It returns the
// flush error, if any.
func (p *ClientProxy) Close() error {
	var err error
	if p.cfg.DiskCache != nil {
		err = p.FlushAll(context.Background())
	}
	p.rpc.Close()
	p.up.Close()
	// After up.Close, queued prefetches fail fast on the dead transport.
	p.reader.Close()
	return err
}

// Channel returns the current session's secure channel, when one is
// in use. The channel changes identity across reconnects.
func (p *ClientProxy) Channel() (*securechan.Conn, bool) {
	s, ok := p.up.(*upSession)
	if !ok {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sc, ok := s.conn.(*securechan.Conn)
	return sc, ok
}

// ChannelStats returns the upstream recovery counters.
func (p *ClientProxy) ChannelStats() metrics.ChannelSnapshot { return p.chs.Snapshot() }

// ReplicaStats returns the replication counters, when replication is
// enabled.
func (p *ClientProxy) ReplicaStats() (metrics.ReplicaSnapshot, bool) {
	rs, ok := p.up.(*replicaSet)
	if !ok {
		return metrics.ReplicaSnapshot{}, false
	}
	return rs.stats.Snapshot(), true
}

// CacheStats returns disk cache statistics, when caching is enabled.
func (p *ClientProxy) CacheStats() (cache.Stats, bool) {
	if p.cfg.DiskCache == nil {
		return cache.Stats{}, false
	}
	return p.cfg.DiskCache.Stats(), true
}

// DataPathStats returns the pipelined data path counters: flush
// concurrency, readahead traffic, and in-flight READ deduplication.
func (p *ClientProxy) DataPathStats() metrics.DataPathSnapshot {
	s := p.dp.Snapshot()
	s.ReadaheadIssued, s.ReadaheadDropped, s.InflightDedup = p.reader.Stats()
	return s
}

// UpCall implements nfs3.Upstream. The upstream session bounds every
// call (RecoveryConfig's AttemptTimeout and OpTimeout), so a dead WAN
// link turns into a bounded error, not a hang. The local client's call
// is not consulted: the server proxy maps credentials from the channel
// identity.
func (p *ClientProxy) UpCall(ctx context.Context, _ *oncrpc.Call, proc uint32, args xdr.Marshaler, res xdr.Unmarshaler) error {
	return p.up.Call(ctx, proc, args, res)
}

// register installs the MOUNT program and the NFS relay with the
// procedures the proxy does more than forward: those the disk cache
// can answer or must observe, and READ/WRITE for at-rest encryption.
func (p *ClientProxy) register() {
	mountd.RegisterRelay(p.rpc, func(path string) (nfs3.FH3, bool) {
		return p.up.exportRoot(), path == p.cfg.ExportPath
	})
	intercepts := map[uint32]oncrpc.Handler{
		nfs3.ProcGetAttr:     p.getattr,
		nfs3.ProcSetAttr:     p.setattr,
		nfs3.ProcLookup:      p.lookup,
		nfs3.ProcAccess:      p.access,
		nfs3.ProcRead:        p.read,
		nfs3.ProcWrite:       p.write,
		nfs3.ProcCreate:      p.create,
		nfs3.ProcRemove:      p.remove,
		nfs3.ProcReadDirPlus: p.readdirplus,
		nfs3.ProcCommit:      p.commit,
	}
	if p.cfg.DiskCache != nil {
		// The session name cache sees every namespace mutation; these
		// handlers exist for it alone, so they assume a disk cache.
		intercepts[nfs3.ProcMkdir] = p.mkdir
		intercepts[nfs3.ProcSymlink] = p.symlink
		intercepts[nfs3.ProcRmdir] = p.rmdir
		intercepts[nfs3.ProcRename] = p.rename
		intercepts[nfs3.ProcLink] = p.link
	}
	p.relay.Register(p.rpc, intercepts)
}

// lookup answers LOOKUP from the session caches when they hold both
// the name and its target's attributes, and forwards it otherwise. A
// forwarded reply binds the name, or forgets it on NOENT, and carries
// the session's cached attributes where there are any: a file with
// dirty write-back data has its authoritative size and times here, not
// on the server.
func (p *ClientProxy) lookup(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.LookupArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	dc := p.cfg.DiskCache
	var gen uint64
	if dc != nil {
		if fh, ok := dc.Name(a.What); ok {
			if attr, ok := dc.GetAttr(fh); ok {
				if p.degraded() {
					p.chs.DegradedReads.Add(1)
				}
				return &nfs3.LookupRes{Status: nfs3.OK, Obj: fh, Attr: nfs3.PostOpAttr{Present: true, Attr: attr}}, oncrpc.Success
			}
		}
		gen = dc.NameGen()
	}
	var res nfs3.LookupRes
	if err := p.relay.Call(ctx, nil, nfs3.ProcLookup, &a, &res); err != nil {
		return nil, oncrpc.SystemErr
	}
	if dc == nil {
		return &res, oncrpc.Success
	}
	switch res.Status {
	case nfs3.OK:
		dc.PutName(a.What, res.Obj, gen)
		if attr, ok := dc.GetAttr(res.Obj); ok {
			res.Attr = nfs3.PostOpAttr{Present: true, Attr: attr}
		} else if res.Attr.Present {
			// Prime the session attr cache from the lookup (the paper's
			// "aggressive disk caching of attributes").
			dc.PutAttr(res.Obj, res.Attr.Attr)
		}
	case nfs3.Status(vfs.ErrNoEnt):
		dc.ForgetName(a.What)
	}
	return &res, oncrpc.Success
}

// readdirplus forwards READDIRPLUS, binding each entry's name and
// overriding its attributes with the session's cached view where one
// exists.
func (p *ClientProxy) readdirplus(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.ReadDirPlusArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	dc := p.cfg.DiskCache
	var gen uint64
	if dc != nil {
		gen = dc.NameGen()
	}
	var res nfs3.ReadDirPlusRes
	if err := p.relay.Call(ctx, nil, nfs3.ProcReadDirPlus, &a, &res); err != nil {
		return nil, oncrpc.SystemErr
	}
	if dc != nil && res.Status == nfs3.OK {
		for i := range res.Entries {
			e := &res.Entries[i]
			if !e.FH.Present {
				continue
			}
			dc.PutName(nfs3.DirOpArgs{Dir: a.Dir, Name: e.Name}, e.FH.FH, gen)
			if attr, ok := dc.GetAttr(e.FH.FH); ok {
				e.Attr = nfs3.PostOpAttr{Present: true, Attr: attr}
			} else if e.Attr.Present {
				dc.PutAttr(e.FH.FH, e.Attr.Attr)
			}
		}
		// Entries still missing attributes (server omitted the post-op
		// attrs and nothing was cached) are completed with one
		// concurrent GETATTR gather, so the local client never falls
		// back to a per-entry stat storm over the WAN.
		p.fillEntryAttrs(ctx, res.Entries)
	}
	return &res, oncrpc.Success
}

func (p *ClientProxy) getattr(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.GetAttrArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	dc := p.cfg.DiskCache
	if dc != nil {
		if attr, ok := dc.GetAttr(a.Obj); ok {
			if p.degraded() {
				// Disconnected operation: the session attr cache keeps
				// answering while the link is down (§cache).
				p.chs.DegradedReads.Add(1)
			}
			return &nfs3.GetAttrRes{Status: nfs3.OK, Attr: attr}, oncrpc.Success
		}
	}
	var res nfs3.GetAttrRes
	if err := p.relay.Call(ctx, nil, nfs3.ProcGetAttr, &a, &res); err != nil {
		return nil, oncrpc.SystemErr
	}
	if dc != nil && res.Status == nfs3.OK {
		dc.PutAttr(a.Obj, res.Attr)
	}
	return &res, oncrpc.Success
}

func (p *ClientProxy) setattr(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.SetAttrArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	dc := p.cfg.DiskCache
	// A dirty file's size lives only in its cached attributes (the
	// server's is older, and a flush clips to it): keep it if unchanged.
	keepSize := dc != nil && !a.Attr.SetSize && len(dc.DirtyList(a.Obj)) > 0
	if dc != nil && !keepSize {
		dc.InvalidateAttr(a.Obj)
		if a.Attr.SetSize && p.truncateCached(a.Obj, a.Attr.Size) != nil {
			return &nfs3.WccRes{Status: nfs3.Status(vfs.ErrIO)}, oncrpc.Success
		}
	}
	var res nfs3.WccRes
	if err := p.relay.Call(ctx, nil, nfs3.ProcSetAttr, &a, &res); err != nil {
		return nil, oncrpc.SystemErr
	}
	if after := &res.Wcc.After; keepSize && res.Status == nfs3.OK && after.Present {
		dc.UpdateAttr(a.Obj, func(attr *nfs3.Fattr3) {
			after.Attr.Size, after.Attr.Used = attr.Size, attr.Used
			*attr = after.Attr
		})
	}
	return &res, oncrpc.Success
}

func (p *ClientProxy) access(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.AccessArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	dc := p.cfg.DiskCache
	if dc != nil {
		if granted, ok := dc.GetAccess(a.Obj); ok {
			return &nfs3.AccessRes{Status: nfs3.OK, Access: granted & a.Access}, oncrpc.Success
		}
	}
	// Ask for the full mask so the cached grant answers any later
	// query.
	full := a
	full.Access = 0x3f
	var res nfs3.AccessRes
	if err := p.relay.Call(ctx, nil, nfs3.ProcAccess, &full, &res); err != nil {
		return nil, oncrpc.SystemErr
	}
	if dc != nil && res.Status == nfs3.OK {
		dc.PutAccess(a.Obj, res.Access)
	}
	res.Access &= a.Access
	return &res, oncrpc.Success
}

func (p *ClientProxy) create(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.CreateArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	return p.made(ctx, call, &a, a.Where)
}

func (p *ClientProxy) mkdir(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.MkdirArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	return p.made(ctx, call, &a, a.Where)
}

func (p *ClientProxy) symlink(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.SymlinkArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	return p.made(ctx, call, &a, a.Where)
}

// made forwards a CREATE, MKDIR or SYMLINK of where and primes the
// session caches with the new name and the attributes of its reply.
func (p *ClientProxy) made(ctx context.Context, call *oncrpc.Call, args xdr.Marshaler, where nfs3.DirOpArgs) (xdr.Marshaler, oncrpc.AcceptStat) {
	dc := p.cfg.DiskCache
	var gen uint64
	if dc != nil {
		gen = dc.NameGen()
	}
	var res nfs3.CreateRes
	out, stat := p.relay.Forward(ctx, call, args, &res)
	if dc != nil && stat == oncrpc.Success && res.Status == nfs3.OK && res.Obj.Present {
		dc.PutName(where, res.Obj.FH, gen)
		if res.Attr.Present {
			dc.PutAttr(res.Obj.FH, res.Attr.Attr)
		}
	}
	return out, stat
}

// remove forwards REMOVE and forgets the name. It cancels the pending
// write-back of the file the session had the name bound to, when the
// file's cached attributes say this was its last link; a file with
// another name keeps its data and loses one from its link count. A
// name the session never bound costs nothing here: if its file had
// dirty data, the flush finds the file gone and drops it then.
func (p *ClientProxy) remove(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.RemoveArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	var res nfs3.WccRes
	dc := p.cfg.DiskCache
	if dc == nil {
		return p.relay.Forward(ctx, call, &a, &res)
	}
	fh, named := dc.Name(a.Obj)
	out, stat := p.relay.Forward(ctx, call, &a, &res)
	dc.ForgetName(a.Obj)
	if named && stat == oncrpc.Success && res.Status == nfs3.OK {
		if attr, ok := dc.GetAttr(fh); ok && attr.Nlink <= 1 {
			p.dropFile(fh)
		} else {
			dc.UpdateAttr(fh, func(attr *nfs3.Fattr3) { attr.Nlink-- })
		}
	}
	return out, stat
}

// rmdir forwards RMDIR and forgets the name.
func (p *ClientProxy) rmdir(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.RemoveArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	out, stat := p.relay.Forward(ctx, call, &a, new(nfs3.WccRes))
	p.cfg.DiskCache.ForgetName(a.Obj)
	return out, stat
}

// rename forwards RENAME and moves the name's binding, if the session
// had one, from From to To.
func (p *ClientProxy) rename(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.RenameArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	var res nfs3.RenameRes
	out, stat := p.relay.Forward(ctx, call, &a, &res)
	p.cfg.DiskCache.RenameName(a.From, a.To, stat == oncrpc.Success && res.Status == nfs3.OK)
	return out, stat
}

// link forwards LINK, forgets the new name, and updates the link count
// in the target's cached attributes, so a later REMOVE of one of its
// names keeps the data the other still owes the server. The rest of the
// cached attributes stay: a dirty file's size lives only there.
func (p *ClientProxy) link(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.LinkArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	var res nfs3.LinkRes
	out, stat := p.relay.Forward(ctx, call, &a, &res)
	dc := p.cfg.DiskCache
	dc.ForgetName(a.Link)
	if stat == oncrpc.Success && res.Status == nfs3.OK {
		dc.UpdateAttr(a.Obj, func(attr *nfs3.Fattr3) {
			if res.Attr.Present {
				attr.Nlink = res.Attr.Attr.Nlink
			} else {
				attr.Nlink++
			}
		})
	}
	return out, stat
}

// truncateCached cuts fh's cached data to size. Dirty data below size
// is still owed to the server, so those blocks stay dirty, the one
// straddling size clipped to it; everything else is dropped.
func (p *ClientProxy) truncateCached(fh nfs3.FH3, size uint64) error {
	dc := p.cfg.DiskCache
	bs := uint64(dc.BlockSize())
	keep := map[uint64][]byte{}
	for _, idx := range dc.DirtyList(fh) {
		if data, ok := dc.GetBlock(fh, idx); ok && idx*bs < size {
			keep[idx] = data[:min(uint64(len(data)), size-idx*bs)]
		}
	}
	p.dropFile(fh)
	for idx, data := range keep {
		if err := dc.PutBlock(fh, idx, data, true); err != nil {
			return err
		}
	}
	return nil
}

// dropFile discards fh's readahead stream state, the fetches of it in
// flight, and every cached block of fh, cancelling its pending
// write-back.
func (p *ClientProxy) dropFile(fh nfs3.FH3) {
	p.reader.Forget(fh)
	p.cfg.DiskCache.DropFile(fh)
}

func (p *ClientProxy) read(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.ReadArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	dc := p.cfg.DiskCache
	if dc == nil {
		var res nfs3.ReadRes
		if err := p.relay.Call(ctx, nil, nfs3.ProcRead, &a, &res); err != nil {
			return nil, oncrpc.SystemErr
		}
		if len(p.cfg.StorageKey) > 0 && res.Status == nfs3.OK {
			res.Data = atRestCrypt(p.cfg.StorageKey, a.Obj, a.Offset, res.Data)
		}
		return &res, oncrpc.Success
	}

	deg := p.degraded() // snapshot: did this read start while the link was down?
	size, stat := p.cachedSize(ctx, a.Obj)
	if stat != nfs3.OK {
		return &nfs3.ReadRes{Status: stat}, oncrpc.Success
	}
	if a.Offset >= size {
		return &nfs3.ReadRes{Status: nfs3.OK, EOF: true}, oncrpc.Success
	}
	out := make([]byte, min(uint64(a.Count), size-a.Offset))
	if _, err := p.reader.ReadAt(ctx, a.Obj, out, a.Offset, size); err != nil {
		return &nfs3.ReadRes{Status: blockStatus(err)}, oncrpc.Success
	}
	eof := a.Offset+uint64(len(out)) >= size
	if deg {
		// The read was satisfied while the link was down: disconnected
		// operation served it from the disk cache.
		p.chs.DegradedReads.Add(1)
	}
	res := &nfs3.ReadRes{Status: nfs3.OK, Count: uint32(len(out)), EOF: eof, Data: out}
	if attr, ok := dc.GetAttr(a.Obj); ok {
		res.Attr = nfs3.PostOpAttr{Present: true, Attr: attr}
	}
	return res, oncrpc.Success
}

// cachedSize returns the file size, from the session attr cache or the
// server.
func (p *ClientProxy) cachedSize(ctx context.Context, fh nfs3.FH3) (uint64, nfs3.Status) {
	dc := p.cfg.DiskCache
	if attr, ok := dc.GetAttr(fh); ok {
		return attr.Size, nfs3.OK
	}
	var res nfs3.GetAttrRes
	if err := p.relay.Call(ctx, nil, nfs3.ProcGetAttr, &nfs3.GetAttrArgs{Obj: fh}, &res); err != nil {
		return 0, nfs3.Status(vfs.ErrIO)
	}
	if res.Status != nfs3.OK {
		return 0, res.Status
	}
	dc.PutAttr(fh, res.Attr)
	return res.Attr.Size, nfs3.OK
}

func (p *ClientProxy) write(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.WriteArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	dc := p.cfg.DiskCache
	if dc == nil {
		if len(p.cfg.StorageKey) > 0 {
			a.Data = atRestCrypt(p.cfg.StorageKey, a.Obj, a.Offset, a.Data)
		}
		var res nfs3.WriteRes
		if err := p.relay.Call(ctx, nil, nfs3.ProcWrite, &a, &res); err != nil {
			return nil, oncrpc.SystemErr
		}
		return &res, oncrpc.Success
	}

	// Write-back: absorb into the disk cache and acknowledge as
	// FILE_SYNC — the cache directory is the stable store; the data
	// flows to the server at flush time.
	size, stat := p.cachedSize(ctx, a.Obj)
	if stat != nfs3.OK {
		return &nfs3.WriteRes{Status: stat}, oncrpc.Success
	}
	data := a.Data[:min(uint32(len(a.Data)), a.Count)]
	written, err := p.reader.WriteAt(ctx, a.Obj, data, a.Offset, size, func(idx uint64, block []byte) error {
		return dc.PutBlock(a.Obj, idx, block, true)
	})
	if err != nil {
		return &nfs3.WriteRes{Status: blockStatus(err)}, oncrpc.Success
	}
	size = max(size, a.Offset+uint64(written))
	now := nfs3.TimeToNFS(time.Now())
	dc.UpdateAttr(a.Obj, func(attr *nfs3.Fattr3) {
		attr.Size = max(attr.Size, size)
		attr.Mtime, attr.Ctime = now, now
	})
	res := &nfs3.WriteRes{Status: nfs3.OK, Count: uint32(written), Committed: nfs3.FileSync}
	if attr, ok := dc.GetAttr(a.Obj); ok {
		res.Wcc.After = nfs3.PostOpAttr{Present: true, Attr: attr}
	}
	return res, oncrpc.Success
}

func (p *ClientProxy) commit(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.CommitArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	if p.cfg.DiskCache != nil {
		// Data is stable in the disk cache; COMMIT succeeds locally.
		res := &nfs3.CommitRes{Status: nfs3.OK}
		if attr, ok := p.cfg.DiskCache.GetAttr(a.Obj); ok {
			res.Wcc.After = nfs3.PostOpAttr{Present: true, Attr: attr}
		}
		return res, oncrpc.Success
	}
	var res nfs3.CommitRes
	if err := p.relay.Call(ctx, nil, nfs3.ProcCommit, &a, &res); err != nil {
		return nil, oncrpc.SystemErr
	}
	return &res, oncrpc.Success
}

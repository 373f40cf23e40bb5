package proxy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
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

// RecoveryConfig enables the fault-tolerant WAN channel: when set, the
// client proxy's upstream connection is wrapped in a reconnecting RPC
// transport that re-dials with exponential backoff after link failure,
// re-runs the secure-channel handshake and MOUNT, replays idempotent
// in-flight calls, and bounds every upstream operation with a
// deadline so WAN stalls become timeouts instead of hangs.
type RecoveryConfig struct {
	// MaxAttempts bounds dial attempts per reconnect round and issue
	// attempts per call (default 4).
	MaxAttempts int
	// BaseDelay/MaxDelay shape the jittered exponential backoff
	// between attempts (defaults 50ms / 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// AttemptTimeout bounds each call attempt and each session
	// establishment (default 15s).
	AttemptTimeout time.Duration
	// OpTimeout bounds a whole upstream operation across all retries
	// (default 60s).
	OpTimeout time.Duration
	// Stats, when non-nil, accumulates reconnect/replay/degraded-mode
	// counters.
	Stats *metrics.ChannelStats
}

func (r *RecoveryConfig) attemptTimeout() time.Duration {
	if r.AttemptTimeout > 0 {
		return r.AttemptTimeout
	}
	return 15 * time.Second
}

func (r *RecoveryConfig) opTimeout() time.Duration {
	if r.OpTimeout > 0 {
		return r.OpTimeout
	}
	return 60 * time.Second
}

// ClientConfig configures a client-side proxy.
type ClientConfig struct {
	// ServerDial connects to the server-side proxy.
	ServerDial Dialer
	// Channel, when non-nil, wraps the server connection in a secure
	// channel with these parameters. Nil sends plaintext (gfs).
	Channel *securechan.Config
	// ExportPath is the remote export to attach to.
	ExportPath string
	// DiskCache, when non-nil, enables block/attr/access caching with
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
	// Recovery, when non-nil, makes the upstream channel fault
	// tolerant (reconnect, replay, degraded disconnected reads). Nil
	// keeps the paper's single-shot session: the first link failure
	// ends it.
	Recovery *RecoveryConfig
	// FlushWorkers bounds how many UNSTABLE writes FlushAll keeps in
	// flight concurrently over the multiplexed channel (default 8;
	// 1 serializes the flush).
	FlushWorkers int
	// Readahead is how many blocks the proxy prefetches ahead of a
	// detected sequential read stream (default 4; negative disables).
	// Only meaningful with DiskCache set.
	Readahead int
	// Replication, when non-nil, replaces the single upstream with a
	// replicated multi-backend namespace: block writes fan out to a
	// placement-chosen replica set and are acknowledged at quorum,
	// reads are hedged across replicas, and failed backends are
	// ejected and probed back in. ServerDial/Channel are ignored in
	// favor of the per-backend dialers (each backend dials through
	// sessionVia, so Channel still applies per backend).
	Replication *ReplicationConfig
}

// upstream is the client proxy's channel to the server-side proxy:
// either a plain single-shot RPC client or the reconnecting transport.
type upstream interface {
	Call(ctx context.Context, proc uint32, args xdr.Marshaler, reply xdr.Unmarshaler) error
	Close() error
}

// ClientProxy is the client-side SGFS proxy: the local NFS client
// mounts it as if it were the file server.
type ClientProxy struct {
	cfg   ClientConfig
	rpc   *oncrpc.Server
	relay nfs3.Relay
	up    upstream
	rec   *oncrpc.ReconnectClient // == up when cfg.Recovery != nil
	rs    *replicaSet             // == up when cfg.Replication != nil

	// Pipelined data path: reader fetches blocks into the disk cache
	// (one upstream READ per block, readahead on sequential streams;
	// readahead.go) and dp counts the flush side (flush.go).
	reader *blockio.Reader
	dp     metrics.DataPathStats

	mu       sync.Mutex
	conn     net.Conn // transport of the current session
	root     nfs3.FH3
	haveRoot bool
}

// initTimeout bounds proxy construction (dial, handshake, MOUNT):
// a dead server must fail setup, not hang it. defaultOpTimeout bounds
// per-operation upstream RPCs when no RecoveryConfig supplies a
// tighter one; both proxies share these.
const (
	initTimeout      = 30 * time.Second
	defaultOpTimeout = 2 * time.Minute
)

// NewClientProxy establishes the channel to the server-side proxy,
// mounts the export through it, and returns a proxy ready to serve
// the local client.
func NewClientProxy(cfg ClientConfig) (*ClientProxy, error) {
	p := &ClientProxy{cfg: cfg, rpc: oncrpc.NewServer()}
	p.relay = nfs3.Relay{Up: p, Meter: cfg.Meter}
	p.reader = blockio.NewReader(cacheSource{cfg.DiskCache, p}, p.cfg.readahead(), p.opTimeout())
	// Establish the first session synchronously so misconfiguration
	// (bad export, refused credential) fails here, not on first use.
	ctx, cancel := context.WithTimeout(context.Background(), initTimeout)
	defer cancel()
	if cfg.Replication != nil {
		rs, err := newReplicaSet(ctx, p, cfg.Replication)
		if err != nil {
			p.reader.Close()
			return nil, err
		}
		p.rs = rs
		p.up = rs
		// The canonical root is synthetic: it exists before any backend
		// session does, and it never changes across reconnects.
		p.root = rs.Root()
		p.haveRoot = true
		p.register()
		return p, nil
	}
	first, err := p.dialSession(ctx)
	if err != nil {
		p.reader.Close()
		return nil, err
	}
	if r := cfg.Recovery; r != nil {
		p.rec = oncrpc.NewReconnectClient(first, p.dialSession, oncrpc.ReconnectOpts{
			MaxAttempts:    r.MaxAttempts,
			BaseDelay:      r.BaseDelay,
			MaxDelay:       r.MaxDelay,
			AttemptTimeout: r.attemptTimeout(),
			Idempotent:     nfs3Idempotent,
			ProcName:       nfs3.ProcName,
			Stats:          r.Stats,
		})
		p.up = p.rec
	} else {
		p.up = first
	}
	p.register()
	return p, nil
}

// dialSession establishes one complete upstream session against the
// single configured server and records the session state (root
// stability across reconnects, current transport). It is the reconnect
// layer's session factory, so everything here is re-runnable.
func (p *ClientProxy) dialSession(ctx context.Context) (*oncrpc.Client, error) {
	cl, root, conn, err := p.sessionVia(ctx, p.cfg.ServerDial)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.haveRoot && !bytes.Equal(root.Data, p.root.Data) {
		// The server proxy handed out a different export root across a
		// reconnect: cached handles would dangle, so refuse the session.
		p.mu.Unlock()
		cl.Close()
		return nil, errors.New("proxy: export root changed across reconnect")
	}
	p.root = root
	p.haveRoot = true
	p.conn = conn
	p.mu.Unlock()
	return cl, nil
}

// sessionVia establishes one complete upstream session through dial:
// transport dial, optional secure-channel handshake, and MOUNT
// re-establishment through a dedicated short-lived channel (the NFS
// and MOUNT programs of the server proxy share one transport; MOUNT
// needs its own RPC client for the program binding). It records no
// proxy state, so both the single-server path and every replica
// backend use it as their session factory.
func (p *ClientProxy) sessionVia(ctx context.Context, dial Dialer) (*oncrpc.Client, nfs3.FH3, net.Conn, error) {
	conn, err := p.channelVia(dial)
	if err != nil {
		return nil, nfs3.FH3{}, nil, err
	}
	if sc, ok := conn.(*securechan.Conn); ok && p.cfg.RekeyInterval > 0 {
		sc.StartAutoRekey(p.cfg.RekeyInterval)
	}
	root, err := mountd.Mount(ctx, func() (net.Conn, error) { return p.channelVia(dial) }, p.cfg.ExportPath)
	if err != nil {
		conn.Close()
		return nil, nfs3.FH3{}, nil, err
	}
	return oncrpc.NewClient(conn, nfs3.Program, nfs3.Version), root, conn, nil
}

// channelVia dials one transport and, when configured, runs the
// secure-channel handshake over it.
func (p *ClientProxy) channelVia(dial Dialer) (net.Conn, error) {
	raw, err := dial()
	if err != nil {
		return nil, fmt.Errorf("proxy: dial server proxy: %w", err)
	}
	if p.cfg.Channel == nil {
		return raw, nil
	}
	sc, err := securechan.Client(raw, p.cfg.Channel)
	if err != nil {
		raw.Close()
		return nil, fmt.Errorf("proxy: secure channel: %w", err)
	}
	return sc, nil
}

// nfs3ReplayClass classifies every NFSv3 procedure for replay on a
// fresh session after a transport failure: true = safe to replay
// (pure reads, and COMMIT — re-committing already-stable data is
// harmless), false = refused back to the caller instead, because the
// proxy cannot know whether the lost call executed. (FlushAll makes
// its own finer-grained decision for FILE_SYNC writes; see there.)
// The sgfs-vet replay-table-sync analyzer enforces that this table
// names every nfs3.Proc* constant, so adding a procedure without
// deciding its replay class breaks the build rather than the WAN
// recovery path.
//
//sgfsvet:replay-table repro/internal/nfs3
var nfs3ReplayClass = map[uint32]bool{
	nfs3.ProcNull:        true,
	nfs3.ProcGetAttr:     true,
	nfs3.ProcSetAttr:     false,
	nfs3.ProcLookup:      true,
	nfs3.ProcAccess:      true,
	nfs3.ProcReadLink:    true,
	nfs3.ProcRead:        true,
	nfs3.ProcWrite:       false,
	nfs3.ProcCreate:      false,
	nfs3.ProcMkdir:       false,
	nfs3.ProcSymlink:     false,
	nfs3.ProcMknod:       false,
	nfs3.ProcRemove:      false,
	nfs3.ProcRmdir:       false,
	nfs3.ProcRename:      false,
	nfs3.ProcLink:        false,
	nfs3.ProcReadDir:     true,
	nfs3.ProcReadDirPlus: true,
	nfs3.ProcFSStat:      true,
	nfs3.ProcFSInfo:      true,
	nfs3.ProcPathConf:    true,
	nfs3.ProcCommit:      true,
}

func nfs3Idempotent(proc uint32) bool {
	return nfs3ReplayClass[proc]
}

// degraded reports whether the proxy is in disconnected operation:
// recovery is enabled but the channel is currently down, or — with
// replication — fewer than a write quorum of backends is healthy.
// Cached reads keep being served; see the read/getattr handlers.
func (p *ClientProxy) degraded() bool {
	if p.rs != nil {
		return !p.rs.writable()
	}
	return p.rec != nil && !p.rec.Connected()
}

// countDegraded bumps the degraded-read counter when recovery metrics
// are wired up.
func (p *ClientProxy) countDegraded() {
	if r := p.cfg.Recovery; r != nil && r.Stats != nil {
		r.Stats.DegradedReads.Add(1)
	}
}

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
// in use. With recovery enabled the channel changes identity across
// reconnects.
func (p *ClientProxy) Channel() (*securechan.Conn, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	sc, ok := p.conn.(*securechan.Conn)
	return sc, ok
}

// ChannelStats returns the recovery counters, when recovery metrics
// are configured.
func (p *ClientProxy) ChannelStats() (metrics.ChannelSnapshot, bool) {
	if r := p.cfg.Recovery; r != nil && r.Stats != nil {
		return r.Stats.Snapshot(), true
	}
	return metrics.ChannelSnapshot{}, false
}

// ReplicaStats returns the replication counters, when replication is
// enabled.
func (p *ClientProxy) ReplicaStats() (metrics.ReplicaSnapshot, bool) {
	if p.rs == nil {
		return metrics.ReplicaSnapshot{}, false
	}
	return p.rs.stats.Snapshot(), true
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

// opTimeout is the per-operation upstream deadline: the recovery
// config's (which covers all retry attempts) or defaultOpTimeout.
func (p *ClientProxy) opTimeout() time.Duration {
	if r := p.cfg.Recovery; r != nil {
		return r.opTimeout()
	}
	return defaultOpTimeout
}

// UpCall implements nfs3.Upstream. Every operation carries a deadline
// so a dead WAN link turns into a bounded error instead of an
// indefinite hang. The local client's call is not consulted: the
// server proxy maps credentials from the channel identity.
func (p *ClientProxy) UpCall(ctx context.Context, _ *oncrpc.Call, proc uint32, args xdr.Marshaler, res xdr.Unmarshaler) error {
	ctx, cancel := context.WithTimeout(ctx, p.opTimeout())
	defer cancel()
	return p.up.Call(ctx, proc, args, res)
}

// register installs the MOUNT program and the NFS relay with the
// procedures the proxy does more than forward: those the disk cache
// can answer or must observe, and READ/WRITE for at-rest encryption.
func (p *ClientProxy) register() {
	mountd.RegisterRelay(p.rpc, func(path string) (nfs3.FH3, bool) {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.root, path == p.cfg.ExportPath
	})
	p.relay.Register(p.rpc, map[uint32]oncrpc.Handler{
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
	})
}

// lookup forwards LOOKUP but overrides the returned attributes with
// the session's cached view: a file with dirty write-back data has its
// authoritative size and times here, not on the server.
func (p *ClientProxy) lookup(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.LookupArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	var res nfs3.LookupRes
	if err := p.relay.Call(ctx, nil, nfs3.ProcLookup, &a, &res); err != nil {
		return nil, oncrpc.SystemErr
	}
	dc := p.cfg.DiskCache
	if dc != nil && res.Status == nfs3.OK {
		if attr, ok := dc.GetAttr(res.Obj); ok {
			res.Attr = nfs3.PostOpAttr{Present: true, Attr: attr}
		} else if res.Attr.Present {
			// Prime the session attr cache from the lookup (the paper's
			// "aggressive disk caching of attributes").
			dc.PutAttr(res.Obj, res.Attr.Attr)
		}
	}
	return &res, oncrpc.Success
}

// readdirplus forwards READDIRPLUS, overriding per-entry attributes
// with the session's cached view where one exists.
func (p *ClientProxy) readdirplus(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.ReadDirPlusArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	var res nfs3.ReadDirPlusRes
	if err := p.relay.Call(ctx, nil, nfs3.ProcReadDirPlus, &a, &res); err != nil {
		return nil, oncrpc.SystemErr
	}
	dc := p.cfg.DiskCache
	if dc != nil && res.Status == nfs3.OK {
		for i := range res.Entries {
			e := &res.Entries[i]
			if !e.FH.Present {
				continue
			}
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
				p.countDegraded()
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
	if dc != nil {
		dc.InvalidateAttr(a.Obj)
		if a.Attr.SetSize {
			// Truncation invalidates cached data wholesale; simple and
			// safe (truncates are rare in the target workloads).
			p.dropFile(a.Obj)
		}
	}
	var res nfs3.WccRes
	if err := p.relay.Call(ctx, nil, nfs3.ProcSetAttr, &a, &res); err != nil {
		return nil, oncrpc.SystemErr
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
	var res nfs3.CreateRes
	if err := p.relay.Call(ctx, nil, nfs3.ProcCreate, &a, &res); err != nil {
		return nil, oncrpc.SystemErr
	}
	dc := p.cfg.DiskCache
	if dc != nil && res.Status == nfs3.OK && res.Obj.Present && res.Attr.Present {
		dc.PutAttr(res.Obj.FH, res.Attr.Attr)
	}
	return &res, oncrpc.Success
}

func (p *ClientProxy) remove(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.RemoveArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	dc := p.cfg.DiskCache
	if dc != nil {
		// Cancel pending write-back for the removed file: look the
		// name up (cheap; usually cached upstream) to find its handle.
		var lres nfs3.LookupRes
		largs := &nfs3.LookupArgs{What: a.Obj}
		if err := p.relay.Call(ctx, nil, nfs3.ProcLookup, largs, &lres); err == nil && lres.Status == nfs3.OK {
			p.dropFile(lres.Obj)
		}
	}
	var res nfs3.WccRes
	if err := p.relay.Call(ctx, nil, nfs3.ProcRemove, &a, &res); err != nil {
		return nil, oncrpc.SystemErr
	}
	return &res, oncrpc.Success
}

// dropFile discards every cached block of fh, cancelling its pending
// write-back, and its readahead stream state.
func (p *ClientProxy) dropFile(fh nfs3.FH3) {
	p.cfg.DiskCache.DropFile(fh)
	p.reader.Forget(fh)
}

//sgfsvet:hot-path
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
	want := uint64(a.Count)
	if a.Offset+want > size {
		want = size - a.Offset
	}
	out := make([]byte, 0, want)
	bs := uint64(dc.BlockSize())
	off := a.Offset
	for uint64(len(out)) < want {
		idx := off / bs
		inner := off % bs
		block, st := p.cacheBlock(ctx, a.Obj, idx)
		if st != nfs3.OK {
			return &nfs3.ReadRes{Status: st}, oncrpc.Success
		}
		p.reader.Advance(a.Obj, idx, (size+bs-1)/bs)
		n := uint64(len(block)) - inner
		if inner >= uint64(len(block)) {
			// Hole within a short cached block: zero-fill to block end.
			n = bs - inner
			block = make([]byte, bs)
			inner = 0
		}
		remain := want - uint64(len(out))
		if n > remain {
			n = remain
		}
		out = append(out, block[inner:inner+n]...)
		off += n
	}
	eof := a.Offset+uint64(len(out)) >= size
	if deg {
		// The read was satisfied while the link was down: disconnected
		// operation served it from the disk cache.
		p.countDegraded()
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

// cacheBlock returns block idx of fh from the disk cache, fetching it
// from the server on a miss (fetchBlock).
func (p *ClientProxy) cacheBlock(ctx context.Context, fh nfs3.FH3, idx uint64) ([]byte, nfs3.Status) {
	data, err := p.reader.Read(ctx, fh, idx)
	return data, blockStatus(err)
}

//sgfsvet:hot-path
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
	data := a.Data
	if uint32(len(data)) > a.Count {
		data = data[:a.Count]
	}
	bs := uint64(dc.BlockSize())
	off := a.Offset
	written := uint64(0)
	for written < uint64(len(data)) {
		pos := off + written
		idx := pos / bs
		inner := pos % bs
		n := bs - inner
		if n > uint64(len(data))-written {
			n = uint64(len(data)) - written
		}
		var blockData []byte
		if cached, ok := dc.GetBlock(a.Obj, idx); ok {
			blockData = append([]byte(nil), cached...)
		} else if inner == 0 && n == bs {
			blockData = nil // full block overwrite
		} else if idx*bs < size {
			// Partial write into existing data: fetch for merge.
			got, st := p.cacheBlock(ctx, a.Obj, idx)
			if st != nfs3.OK {
				return &nfs3.WriteRes{Status: st}, oncrpc.Success
			}
			blockData = append([]byte(nil), got...)
		}
		need := inner + n
		if uint64(len(blockData)) < need {
			grown := make([]byte, need)
			copy(grown, blockData)
			blockData = grown
		}
		copy(blockData[inner:], data[written:written+n])
		if err := dc.PutBlock(a.Obj, idx, blockData, true); err != nil {
			return &nfs3.WriteRes{Status: nfs3.Status(vfs.ErrIO)}, oncrpc.Success
		}
		written += n
	}
	end := a.Offset + written
	if end > size {
		size = end
	}
	now := nfs3.TimeToNFS(time.Now())
	if _, ok := dc.GetAttr(a.Obj); ok {
		dc.UpdateAttr(a.Obj, func(attr *nfs3.Fattr3) {
			if size > attr.Size {
				attr.Size = size
			}
			attr.Mtime = now
			attr.Ctime = now
		})
	}
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

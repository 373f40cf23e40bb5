package sfs

import (
	"context"
	"crypto/x509"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/blockio"
	"repro/internal/gridsec"
	"repro/internal/metrics"
	"repro/internal/mountd"
	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/securechan"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// ClientConfig configures an SFS client daemon.
type ClientConfig struct {
	// ServerDial connects to the SFS server daemon.
	ServerDial Dialer
	// HostID is the expected server key fingerprint from the
	// self-certifying pathname; the handshake fails if the server's
	// key hashes differently.
	HostID string
	// Credential is the user's self-signed key.
	Credential *gridsec.Credential
	// ExportPath is the export to attach.
	ExportPath string
	// Meter, when non-nil, accumulates the daemon's processing time.
	Meter *metrics.Meter
}

// Client is the SFS client daemon (the loop-back NFS server of SFS):
// the local NFS client mounts it; it forwards over the secure channel
// with aggressive attribute/access caching and pipelined readahead.
type Client struct {
	cfg   ClientConfig
	rpc   *oncrpc.Server
	relay nfs3.Relay
	up    *oncrpc.Client
	root  nfs3.FH3

	// Aggressive in-memory caches, valid for the session.
	mu     sync.Mutex
	attrs  map[string]nfs3.Fattr3
	access map[string]uint32
	blocks *blockio.Cache
	reader *blockio.Reader
}

const (
	sfsBlockSize = 32 * 1024
	// pipelineDepth is the number of read-ahead RPCs kept in flight
	// (SFS's asynchronous RPC advantage).
	pipelineDepth = 4
	// memCacheBytes bounds the in-memory block cache.
	memCacheBytes = 16 << 20
)

// sfsMountTimeout bounds the constructor mounts.
const sfsMountTimeout = 30 * time.Second

// NewClient establishes the self-certified channel, mounts the export,
// and returns a daemon ready to serve the local client.
func NewClient(cfg ClientConfig) (*Client, error) {
	chanCfg := &securechan.Config{
		Credential:     cfg.Credential,
		Suites:         []securechan.Suite{securechan.SuiteRC4SHA1},
		Meter:          cfg.Meter,
		SelfCertifying: true,
		VerifyPeer: func(_ string, chain []*x509.Certificate) error {
			if got := gridsec.KeyFingerprint(chain[0]); got != cfg.HostID {
				return fmt.Errorf("sfs: server key %s does not match pathname HostID %s", got[:12], cfg.HostID[:12])
			}
			return nil
		},
	}
	dialSecure := func() (net.Conn, error) {
		raw, err := cfg.ServerDial()
		if err != nil {
			return nil, err
		}
		return securechan.Client(raw, chanCfg)
	}

	// The SFS client mounts over a secure channel of its own, then
	// opens a second one for NFS: two handshakes, as the baseline has.
	mconn, err := dialSecure()
	if err != nil {
		return nil, err
	}
	mc := oncrpc.NewClient(mconn, mountd.Program, mountd.Version)
	mctx, cancel := context.WithTimeout(context.Background(), sfsMountTimeout)
	defer cancel()
	root, err := mountd.Mount(mctx, mc, cfg.ExportPath)
	mc.Close()
	if err != nil {
		return nil, err
	}

	conn, err := dialSecure()
	if err != nil {
		return nil, err
	}
	c := &Client{
		cfg:    cfg,
		rpc:    oncrpc.NewServer(),
		up:     oncrpc.NewClient(conn, nfs3.Program, nfs3.Version),
		root:   root,
		attrs:  make(map[string]nfs3.Fattr3),
		access: make(map[string]uint32),
		blocks: blockio.NewCache(memCacheBytes),
	}
	c.relay = nfs3.Relay{Up: c, Meter: cfg.Meter}
	c.reader = blockio.NewReader(blockSource{c.blocks, c}, sfsBlockSize, pipelineDepth)
	c.register()
	return c, nil
}

// UpCall implements nfs3.Upstream. The local client's call is not
// consulted: the server daemon maps credentials from the user key.
func (c *Client) UpCall(ctx context.Context, _ *oncrpc.Call, proc uint32, args xdr.Marshaler, res xdr.Unmarshaler) error {
	return c.up.Call(ctx, proc, args, res)
}

// Serve accepts local client connections.
func (c *Client) Serve(l net.Listener) error { return c.rpc.Serve(l) }

// Close shuts the daemon down.
func (c *Client) Close() {
	c.rpc.Close()
	c.up.Close()
	c.reader.Close()
}

// blockSource is the memory cache and the server daemon as the block
// reader sees them.
type blockSource struct {
	*blockio.Cache
	c *Client
}

// FetchBlock reads one block from the server daemon into the memory
// cache. A non-OK status comes back as its bare vfs.Errno.
func (s blockSource) FetchBlock(ctx context.Context, fh nfs3.FH3, idx uint64, fill blockio.Fill) ([]byte, error) {
	c := s.c
	if fill.Prefetch {
		// No handler span covers a prefetch; see nfs3.Relay.Charge.
		defer c.relay.Charge(time.Now())
	}
	var res nfs3.ReadRes
	args := &nfs3.ReadArgs{Obj: fh, Offset: idx * sfsBlockSize, Count: sfsBlockSize}
	if err := c.relay.Call(ctx, nil, nfs3.ProcRead, args, &res); err != nil {
		return nil, err
	}
	if res.Status != nfs3.OK {
		return nil, res.Status.Error()
	}
	c.blocks.Fill(string(fh.Data), idx, res.Data, fill)
	return res.Data, nil
}

func (c *Client) dropFile(fh nfs3.FH3) {
	key := string(fh.Data)
	c.reader.Forget(fh)
	c.blocks.DropFile(key)
	c.mu.Lock()
	delete(c.attrs, key)
	delete(c.access, key)
	c.mu.Unlock()
}

// register installs the MOUNT program (any path names the one export)
// and the NFS relay with the procedures the in-memory caches answer or
// must observe.
func (c *Client) register() {
	mountd.RegisterRelay(c.rpc, func(string) (nfs3.FH3, bool) { return c.root, true })
	c.relay.Register(c.rpc, map[uint32]oncrpc.Handler{
		nfs3.ProcGetAttr: c.getattr,
		nfs3.ProcSetAttr: c.setattr,
		nfs3.ProcLookup:  c.lookup,
		nfs3.ProcAccess:  c.accessProc,
		nfs3.ProcRead:    c.read,
		nfs3.ProcWrite:   c.write,
		nfs3.ProcCreate:  c.create,
	})
}

func (c *Client) getattr(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.GetAttrArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	attr, status, err := c.attr(ctx, a.Obj)
	if err != nil {
		return nil, oncrpc.SystemErr
	}
	return &nfs3.GetAttrRes{Status: status, Attr: attr}, oncrpc.Success
}

// attr returns fh's attributes from the session's attribute cache,
// asking the server (and caching its answer) on a miss.
func (c *Client) attr(ctx context.Context, fh nfs3.FH3) (nfs3.Fattr3, nfs3.Status, error) {
	c.mu.Lock()
	attr, ok := c.attrs[string(fh.Data)]
	c.mu.Unlock()
	if ok {
		return attr, nfs3.OK, nil
	}
	var res nfs3.GetAttrRes
	if err := c.relay.Call(ctx, nil, nfs3.ProcGetAttr, &nfs3.GetAttrArgs{Obj: fh}, &res); err != nil {
		return nfs3.Fattr3{}, 0, err
	}
	if res.Status == nfs3.OK {
		c.mu.Lock()
		c.attrs[string(fh.Data)] = res.Attr
		c.mu.Unlock()
	}
	return res.Attr, res.Status, nil
}

func (c *Client) lookup(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.LookupArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	var res nfs3.LookupRes
	if err := c.relay.Call(ctx, nil, nfs3.ProcLookup, &a, &res); err != nil {
		return nil, oncrpc.SystemErr
	}
	if res.Status == nfs3.OK && res.Attr.Present {
		c.mu.Lock()
		c.attrs[string(res.Obj.Data)] = res.Attr.Attr
		c.mu.Unlock()
	}
	return &res, oncrpc.Success
}

func (c *Client) accessProc(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.AccessArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	c.mu.Lock()
	granted, ok := c.access[string(a.Obj.Data)]
	c.mu.Unlock()
	if ok {
		return &nfs3.AccessRes{Status: nfs3.OK, Access: granted & a.Access}, oncrpc.Success
	}
	full := a
	full.Access = 0x3f
	var res nfs3.AccessRes
	if err := c.relay.Call(ctx, nil, nfs3.ProcAccess, &full, &res); err != nil {
		return nil, oncrpc.SystemErr
	}
	if res.Status == nfs3.OK {
		c.mu.Lock()
		c.access[string(a.Obj.Data)] = res.Access
		c.mu.Unlock()
	}
	res.Access &= a.Access
	return &res, oncrpc.Success
}

func (c *Client) setattr(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.SetAttrArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	c.dropFile(a.Obj)
	var res nfs3.WccRes
	if err := c.relay.Call(ctx, nil, nfs3.ProcSetAttr, &a, &res); err != nil {
		return nil, oncrpc.SystemErr
	}
	return &res, oncrpc.Success
}

func (c *Client) create(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.CreateArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	var res nfs3.CreateRes
	if err := c.relay.Call(ctx, nil, nfs3.ProcCreate, &a, &res); err != nil {
		return nil, oncrpc.SystemErr
	}
	if res.Status == nfs3.OK && res.Obj.Present && res.Attr.Present {
		c.mu.Lock()
		c.attrs[string(res.Obj.FH.Data)] = res.Attr.Attr
		c.mu.Unlock()
	}
	return &res, oncrpc.Success
}

// read serves from the memory cache and pipelines readahead RPCs —
// SFS's asynchronous-RPC advantage over the blocking SGFS prototype.
func (c *Client) read(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.ReadArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	// The size says where the file ends: for the EOF flag, and so that
	// readahead stops at the last block.
	attr, status, err := c.attr(ctx, a.Obj)
	if err != nil {
		return nil, oncrpc.SystemErr
	}
	if status != nfs3.OK {
		return &nfs3.ReadRes{Status: status}, oncrpc.Success
	}
	size := attr.Size
	idx := a.Offset / sfsBlockSize
	inner := a.Offset % sfsBlockSize

	// Launch the prefetches before the demand fetch, so that on a miss
	// they travel alongside it.
	c.reader.Advance(a.Obj, idx, (size+sfsBlockSize-1)/sfsBlockSize)
	block, err := c.reader.Read(ctx, a.Obj, idx)
	if errno, ok := err.(vfs.Errno); ok {
		return &nfs3.ReadRes{Status: nfs3.Status(errno)}, oncrpc.Success
	}
	if err != nil {
		return nil, oncrpc.SystemErr
	}

	var out []byte
	if inner < uint64(len(block)) {
		end := inner + uint64(a.Count)
		if end > uint64(len(block)) {
			end = uint64(len(block))
		}
		out = append([]byte(nil), block[inner:end]...)
	}
	eof := a.Offset+uint64(len(out)) >= size
	return &nfs3.ReadRes{Status: nfs3.OK, Count: uint32(len(out)), EOF: eof, Data: out}, oncrpc.Success
}

// write forwards writes (SFS does not do client write-back) and
// updates cached state.
func (c *Client) write(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.WriteArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	var res nfs3.WriteRes
	err := c.relay.Call(ctx, nil, nfs3.ProcWrite, &a, &res)
	// Invalidate the overlapped cached blocks once the server has the
	// write: a fetch in flight across it is stale (Forget), and what
	// landed before is dropped. The cached attributes go too, rather
	// than give way to the reply's: replies to concurrent WRITEs arrive
	// in any order, so its post-op attributes may be older than those
	// cached.
	c.reader.Forget(a.Obj)
	key := string(a.Obj.Data)
	for idx := a.Offset / sfsBlockSize; idx <= (a.Offset+uint64(len(a.Data)))/sfsBlockSize; idx++ {
		c.blocks.Drop(key, idx)
	}
	c.mu.Lock()
	delete(c.attrs, key)
	c.mu.Unlock()
	if err != nil {
		return nil, oncrpc.SystemErr
	}
	return &res, oncrpc.Success
}

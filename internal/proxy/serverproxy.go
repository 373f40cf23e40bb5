// Package proxy implements the SGFS user-level proxies — the paper's
// core contribution. The server-side proxy fronts an unmodified NFS
// server: it terminates the secure channel, authenticates the grid
// user from the channel's certificate, authorizes each request against
// the session gridmap and per-file ACLs, remaps UNIX credentials to
// the mapped local account, shields ACL files from remote access, and
// forwards authorized RPCs to the NFS server. The client-side proxy
// fronts an unmodified NFS client: it forwards the client's RPCs over
// the secure channel and, when enabled, absorbs traffic in a disk
// cache with write-back — the mechanism behind SGFS's WAN performance.
package proxy

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/acl"
	"repro/internal/gridmap"
	"repro/internal/idmap"
	"repro/internal/metrics"
	"repro/internal/mountd"
	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/securechan"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// Dialer opens a transport.
type Dialer func() (net.Conn, error)

// ServerConfig configures a server-side proxy.
type ServerConfig struct {
	// UpstreamDial connects to the NFS server (localhost in a real
	// deployment; the kernel exports only to localhost, §5).
	UpstreamDial Dialer
	// ExportPath is the export the proxy fronts (e.g. "/GFS/X").
	ExportPath string
	// Channel, when non-nil, requires clients to establish a secure
	// channel with these parameters. Nil accepts plaintext transports
	// (the gfs baseline).
	Channel *securechan.Config
	// Gridmap maps grid DNs to local accounts. Required when Channel
	// is set.
	Gridmap *gridmap.Map
	// Accounts resolves local account names to uid/gid.
	Accounts *idmap.Table
	// FineGrained enables per-file ACL evaluation on ACCESS calls.
	FineGrained bool
	// DisableACLCache turns off in-memory ACL caching (ablation).
	DisableACLCache bool
	// Sequential makes the proxy handle one RPC at a time per
	// connection, reproducing the paper's blocking prototype
	// (§6.2.1); the default is the multithreaded implementation the
	// paper says is under development.
	Sequential bool
	// Meter, when non-nil, accumulates the proxy's processing time.
	Meter *metrics.Meter
}

// ServerProxy is the server-side SGFS proxy.
type ServerProxy struct {
	cfg ServerConfig
	rpc *oncrpc.Server

	up      *oncrpc.Client
	root    nfs3.FH3
	rootKey string

	aclCache *acl.Cache

	// sessions maps a transport to the authenticated session state.
	sessions sync.Map // net.Conn -> *session

	// parents maps an object handle to its (directory handle, name),
	// learned from the namespace operations flowing through the proxy;
	// it lets ACCESS locate the object's ACL file.
	parentMu sync.Mutex
	parents  map[string]parentRef

	listeners []net.Listener
	lnMu      sync.Mutex
	closed    bool
}

type parentRef struct {
	dir  string
	name string
}

type session struct {
	dn      string
	account idmap.Account
	cred    oncrpc.OpaqueAuth
}

// NewServerProxy connects to the upstream NFS server, mounts the
// export, and returns a proxy ready to serve.
func NewServerProxy(cfg ServerConfig) (*ServerProxy, error) {
	if cfg.Channel != nil && cfg.Gridmap == nil {
		return nil, errors.New("proxy: secure server proxy requires a gridmap")
	}
	if cfg.Accounts == nil {
		cfg.Accounts = idmap.NewTable()
	}
	ctx, cancel := context.WithTimeout(context.Background(), initTimeout)
	defer cancel()
	root, err := mountUpstream(ctx, cfg.UpstreamDial, cfg.ExportPath)
	if err != nil {
		return nil, err
	}
	conn, err := cfg.UpstreamDial()
	if err != nil {
		return nil, fmt.Errorf("proxy: dial upstream: %w", err)
	}
	p := &ServerProxy{
		cfg:      cfg,
		rpc:      oncrpc.NewServer(),
		up:       oncrpc.NewClient(conn, nfs3.Program, nfs3.Version),
		root:     root,
		rootKey:  string(root.Data),
		aclCache: acl.NewCache(),
		parents:  make(map[string]parentRef),
	}
	p.rpc.Sequential = cfg.Sequential
	p.register()
	return p, nil
}

func mountUpstream(ctx context.Context, dial Dialer, path string) (nfs3.FH3, error) {
	conn, err := dial()
	if err != nil {
		return nfs3.FH3{}, fmt.Errorf("proxy: dial upstream mountd: %w", err)
	}
	mc := oncrpc.NewClient(conn, mountd.Program, mountd.Version)
	defer mc.Close()
	var res mountd.MntRes
	if err := mc.Call(ctx, mountd.ProcMnt, &mountd.MntArgs{Path: path}, &res); err != nil {
		return nfs3.FH3{}, err
	}
	if res.Status != mountd.MntOK {
		return nfs3.FH3{}, fmt.Errorf("proxy: upstream mount refused: %w", vfs.Errno(res.Status))
	}
	return res.FH, nil
}

// Serve accepts client transports on l until Close. Each accepted
// connection is authenticated (secure channel handshake + gridmap)
// before any RPC is processed.
func (p *ServerProxy) Serve(l net.Listener) error {
	p.lnMu.Lock()
	if p.closed {
		p.lnMu.Unlock()
		return errors.New("proxy: server proxy closed")
	}
	p.listeners = append(p.listeners, l)
	p.lnMu.Unlock()
	var tempDelay time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			// Transient accept failures must not kill the proxy's
			// listener; back off and retry (same policy as
			// oncrpc.Server.Serve).
			if oncrpc.IsTemporaryAcceptError(err) {
				if tempDelay == 0 {
					tempDelay = 5 * time.Millisecond
				} else {
					tempDelay *= 2
				}
				if max := 1 * time.Second; tempDelay > max {
					tempDelay = max
				}
				time.Sleep(tempDelay)
				p.lnMu.Lock()
				closed := p.closed
				p.lnMu.Unlock()
				if closed {
					return errors.New("proxy: server proxy closed")
				}
				continue
			}
			return err
		}
		tempDelay = 0
		go p.handleConn(conn)
	}
}

func (p *ServerProxy) handleConn(raw net.Conn) {
	var conn net.Conn = raw
	sess := &session{cred: oncrpc.AuthNone}
	if p.cfg.Channel != nil {
		sc, err := securechan.Server(raw, p.cfg.Channel)
		if err != nil {
			return
		}
		dn := sc.PeerDN()
		account, ok := p.cfg.Gridmap.Lookup(dn)
		if !ok {
			sc.Close()
			return
		}
		acct, err := p.cfg.Accounts.MustLookup(account)
		if err != nil {
			sc.Close()
			return
		}
		cred, err := (&oncrpc.AuthSys{MachineName: "sgfs-proxy", UID: acct.UID, GID: acct.GID, GIDs: acct.GIDs}).Auth()
		if err != nil {
			sc.Close()
			return
		}
		sess = &session{dn: dn, account: acct, cred: cred}
		conn = sc
	} else {
		// gfs baseline: no channel identity; forward creds unchanged
		// after mapping to the anonymous account unless a gridmap-less
		// open policy is configured.
		if acct, ok := p.cfg.Accounts.Lookup("nobody"); ok {
			cred, err := (&oncrpc.AuthSys{MachineName: "gfs-proxy", UID: acct.UID, GID: acct.GID}).Auth()
			if err == nil {
				sess = &session{account: acct, cred: cred}
			}
		}
	}
	p.sessions.Store(conn, sess)
	defer p.sessions.Delete(conn)
	p.rpc.ServeConn(conn)
}

// Close shuts the proxy down.
func (p *ServerProxy) Close() {
	p.lnMu.Lock()
	p.closed = true
	for _, l := range p.listeners {
		l.Close()
	}
	p.lnMu.Unlock()
	p.rpc.Close()
	p.up.Close()
}

// SessionDN returns the authenticated DN for a transport (tests).
func (p *ServerProxy) SessionDN(conn net.Conn) (string, bool) {
	if v, ok := p.sessions.Load(conn); ok {
		return v.(*session).dn, true
	}
	return "", false
}

func (p *ServerProxy) session(call *oncrpc.Call) *session {
	if v, ok := p.sessions.Load(call.Conn); ok {
		return v.(*session)
	}
	return &session{cred: oncrpc.AuthNone}
}

// ACLCacheStats exposes ACL cache counters (tests, ablation).
func (p *ServerProxy) ACLCacheStats() (hits, misses uint64) { return p.aclCache.Stats() }

// rememberParent records where an object handle lives in the
// namespace.
func (p *ServerProxy) rememberParent(obj nfs3.FH3, dir nfs3.FH3, name string) {
	p.parentMu.Lock()
	p.parents[string(obj.Data)] = parentRef{dir: string(dir.Data), name: name}
	p.parentMu.Unlock()
}

func (p *ServerProxy) parentOf(obj nfs3.FH3) (parentRef, bool) {
	p.parentMu.Lock()
	defer p.parentMu.Unlock()
	ref, ok := p.parents[string(obj.Data)]
	return ref, ok
}

// register installs MOUNT and NFS handlers.
func (p *ServerProxy) register() {
	p.rpc.Register(mountd.Program, mountd.Version, map[uint32]oncrpc.Handler{
		mountd.ProcMnt: p.mnt,
		mountd.ProcUmnt: func(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
			var a mountd.MntArgs
			if err := call.DecodeArgs(&a); err != nil {
				return nil, oncrpc.GarbageArgs
			}
			return nil, oncrpc.Success
		},
	})
	p.rpc.Register(nfs3.Program, nfs3.Version, map[uint32]oncrpc.Handler{
		nfs3.ProcGetAttr:     p.meter(p.forwardGetAttr),
		nfs3.ProcSetAttr:     p.meter(p.forwardSetAttr),
		nfs3.ProcLookup:      p.meter(p.lookup),
		nfs3.ProcAccess:      p.meter(p.access),
		nfs3.ProcReadLink:    p.meter(p.forwardReadLink),
		nfs3.ProcRead:        p.meter(p.read),
		nfs3.ProcWrite:       p.meter(p.write),
		nfs3.ProcCreate:      p.meter(p.create),
		nfs3.ProcMkdir:       p.meter(p.mkdir),
		nfs3.ProcSymlink:     p.meter(p.symlink),
		nfs3.ProcMknod:       p.meter(p.mknod),
		nfs3.ProcRemove:      p.meter(p.remove),
		nfs3.ProcRmdir:       p.meter(p.rmdir),
		nfs3.ProcRename:      p.meter(p.rename),
		nfs3.ProcLink:        p.meter(p.link),
		nfs3.ProcReadDir:     p.meter(p.readdir),
		nfs3.ProcReadDirPlus: p.meter(p.readdirplus),
		nfs3.ProcFSStat:      p.meter(p.forwardFSStat),
		nfs3.ProcFSInfo:      p.meter(p.forwardFSInfo),
		nfs3.ProcPathConf:    p.meter(p.forwardPathConf),
		nfs3.ProcCommit:      p.meter(p.forwardCommit),
	})
}

// meter wraps a handler with work-time accounting.
func (p *ServerProxy) meter(h oncrpc.Handler) oncrpc.Handler {
	if p.cfg.Meter == nil {
		return h
	}
	return func(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
		start := time.Now()
		res, stat := h(ctx, call)
		p.cfg.Meter.Add(time.Since(start))
		return res, stat
	}
}

func (p *ServerProxy) mnt(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a mountd.MntArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	if a.Path != p.cfg.ExportPath {
		return &mountd.MntRes{Status: mountd.MntNoEnt}, oncrpc.Success
	}
	return &mountd.MntRes{Status: mountd.MntOK, FH: p.root, Flavors: []uint32{oncrpc.AuthFlavorSys}}, oncrpc.Success
}

// upCall issues an upstream RPC under cred, crediting the wait back
// to the meter so metered handler time approximates local processing.
// The upstream server sits on the local cluster network; a generous
// deadline still turns a dead backend into an error, not a hang.
func (p *ServerProxy) upCall(ctx context.Context, proc uint32, cred oncrpc.OpaqueAuth, args xdr.Marshaler, res xdr.Unmarshaler) error {
	ctx, cancel := context.WithTimeout(ctx, defaultOpTimeout)
	defer cancel()
	if p.cfg.Meter == nil {
		return p.up.CallCred(ctx, proc, cred, args, res)
	}
	start := time.Now()
	err := p.up.CallCred(ctx, proc, cred, args, res)
	p.cfg.Meter.Add(-time.Since(start))
	return err
}

// forward issues the call upstream under the session's mapped
// credential and returns the reply for re-encoding.
func (p *ServerProxy) forward(ctx context.Context, call *oncrpc.Call, proc uint32, args xdr.Marshaler, res interface {
	xdr.Marshaler
	xdr.Unmarshaler
}) (xdr.Marshaler, oncrpc.AcceptStat) {
	sess := p.session(call)
	if err := p.upCall(ctx, proc, sess.cred, args, res); err != nil {
		return nil, oncrpc.SystemErr
	}
	return res, oncrpc.Success
}

func (p *ServerProxy) forwardGetAttr(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.GetAttrArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	return p.forward(ctx, call, nfs3.ProcGetAttr, &a, &nfs3.GetAttrRes{})
}

func (p *ServerProxy) forwardSetAttr(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.SetAttrArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	return p.forward(ctx, call, nfs3.ProcSetAttr, &a, &nfs3.WccRes{})
}

func (p *ServerProxy) forwardReadLink(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.ReadLinkArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	return p.forward(ctx, call, nfs3.ProcReadLink, &a, &nfs3.ReadLinkRes{})
}

//sgfsvet:hot-path
func (p *ServerProxy) read(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.ReadArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	return p.forward(ctx, call, nfs3.ProcRead, &a, &nfs3.ReadRes{})
}

//sgfsvet:hot-path
func (p *ServerProxy) write(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.WriteArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	return p.forward(ctx, call, nfs3.ProcWrite, &a, &nfs3.WriteRes{})
}

func (p *ServerProxy) forwardFSStat(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.FSStatArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	return p.forward(ctx, call, nfs3.ProcFSStat, &a, &nfs3.FSStatRes{})
}

func (p *ServerProxy) forwardFSInfo(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.FSStatArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	return p.forward(ctx, call, nfs3.ProcFSInfo, &a, &nfs3.FSInfoRes{})
}

func (p *ServerProxy) forwardPathConf(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.FSStatArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	return p.forward(ctx, call, nfs3.ProcPathConf, &a, &nfs3.PathConfRes{})
}

func (p *ServerProxy) forwardCommit(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.CommitArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	return p.forward(ctx, call, nfs3.ProcCommit, &a, &nfs3.CommitRes{})
}

func (p *ServerProxy) mknod(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	return &nfs3.CreateRes{Status: nfs3.Status(vfs.ErrNotSupp)}, oncrpc.Success
}

func (p *ServerProxy) lookup(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.LookupArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	if acl.IsACLFile(a.What.Name) {
		return &nfs3.LookupRes{Status: nfs3.Status(vfs.ErrAccess)}, oncrpc.Success
	}
	var res nfs3.LookupRes
	out, stat := p.forward(ctx, call, nfs3.ProcLookup, &a, &res)
	if stat == oncrpc.Success && res.Status == nfs3.OK {
		p.rememberParent(res.Obj, a.What.Dir, a.What.Name)
	}
	return out, stat
}

func (p *ServerProxy) create(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.CreateArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	if acl.IsACLFile(a.Where.Name) {
		return &nfs3.CreateRes{Status: nfs3.Status(vfs.ErrAccess)}, oncrpc.Success
	}
	var res nfs3.CreateRes
	out, stat := p.forward(ctx, call, nfs3.ProcCreate, &a, &res)
	if stat == oncrpc.Success && res.Status == nfs3.OK && res.Obj.Present {
		p.rememberParent(res.Obj.FH, a.Where.Dir, a.Where.Name)
	}
	return out, stat
}

func (p *ServerProxy) mkdir(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.MkdirArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	if acl.IsACLFile(a.Where.Name) {
		return &nfs3.CreateRes{Status: nfs3.Status(vfs.ErrAccess)}, oncrpc.Success
	}
	var res nfs3.CreateRes
	out, stat := p.forward(ctx, call, nfs3.ProcMkdir, &a, &res)
	if stat == oncrpc.Success && res.Status == nfs3.OK && res.Obj.Present {
		p.rememberParent(res.Obj.FH, a.Where.Dir, a.Where.Name)
	}
	return out, stat
}

func (p *ServerProxy) symlink(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.SymlinkArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	if acl.IsACLFile(a.Where.Name) {
		return &nfs3.CreateRes{Status: nfs3.Status(vfs.ErrAccess)}, oncrpc.Success
	}
	return p.forward(ctx, call, nfs3.ProcSymlink, &a, &nfs3.CreateRes{})
}

func (p *ServerProxy) remove(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.RemoveArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	if acl.IsACLFile(a.Obj.Name) {
		return &nfs3.WccRes{Status: nfs3.Status(vfs.ErrAccess)}, oncrpc.Success
	}
	// Removing an object also invalidates its cached ACL.
	p.aclCache.Invalidate(a.Obj.Dir.Data, a.Obj.Name)
	return p.forward(ctx, call, nfs3.ProcRemove, &a, &nfs3.WccRes{})
}

func (p *ServerProxy) rmdir(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.RemoveArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	p.aclCache.Invalidate(a.Obj.Dir.Data, a.Obj.Name)
	return p.forward(ctx, call, nfs3.ProcRmdir, &a, &nfs3.WccRes{})
}

func (p *ServerProxy) rename(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.RenameArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	if acl.IsACLFile(a.From.Name) || acl.IsACLFile(a.To.Name) {
		return &nfs3.RenameRes{Status: nfs3.Status(vfs.ErrAccess)}, oncrpc.Success
	}
	p.aclCache.Invalidate(a.From.Dir.Data, a.From.Name)
	p.aclCache.Invalidate(a.To.Dir.Data, a.To.Name)
	var res nfs3.RenameRes
	out, stat := p.forward(ctx, call, nfs3.ProcRename, &a, &res)
	if stat == oncrpc.Success && res.Status == nfs3.OK {
		// Update the parent map for the moved object if we know it.
		p.parentMu.Lock()
		for key, ref := range p.parents {
			if ref.dir == string(a.From.Dir.Data) && ref.name == a.From.Name {
				p.parents[key] = parentRef{dir: string(a.To.Dir.Data), name: a.To.Name}
				break
			}
		}
		p.parentMu.Unlock()
	}
	return out, stat
}

func (p *ServerProxy) link(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.LinkArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	if acl.IsACLFile(a.Link.Name) {
		return &nfs3.LinkRes{Status: nfs3.Status(vfs.ErrAccess)}, oncrpc.Success
	}
	return p.forward(ctx, call, nfs3.ProcLink, &a, &nfs3.LinkRes{})
}

// readdir filters ACL files out of directory listings.
func (p *ServerProxy) readdir(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.ReadDirArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	var res nfs3.ReadDirRes
	out, stat := p.forward(ctx, call, nfs3.ProcReadDir, &a, &res)
	if stat == oncrpc.Success && res.Status == nfs3.OK {
		filtered := res.Entries[:0]
		for _, e := range res.Entries {
			if !acl.IsACLFile(e.Name) {
				filtered = append(filtered, e)
			}
		}
		res.Entries = filtered
	}
	return out, stat
}

func (p *ServerProxy) readdirplus(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.ReadDirPlusArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	var res nfs3.ReadDirPlusRes
	out, stat := p.forward(ctx, call, nfs3.ProcReadDirPlus, &a, &res)
	if stat == oncrpc.Success && res.Status == nfs3.OK {
		filtered := res.Entries[:0]
		for _, e := range res.Entries {
			if acl.IsACLFile(e.Name) {
				continue
			}
			if e.FH.Present {
				p.rememberParent(e.FH.FH, a.Dir, e.Name)
			}
			filtered = append(filtered, e)
		}
		res.Entries = filtered
	}
	return out, stat
}

// access evaluates grid ACLs (fine-grained mode) or forwards to the
// server's UNIX permission check.
func (p *ServerProxy) access(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.AccessArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	sess := p.session(call)
	if p.cfg.FineGrained && sess.dn != "" {
		if aclObj := p.resolveACL(ctx, call, a.Obj); aclObj != nil {
			granted := aclObj.Check(sess.dn) & a.Access
			res := &nfs3.AccessRes{Status: nfs3.OK, Access: granted}
			// Attach post-op attributes for protocol fidelity.
			var ga nfs3.GetAttrRes
			if err := p.upCall(ctx, nfs3.ProcGetAttr, sess.cred, &nfs3.GetAttrArgs{Obj: a.Obj}, &ga); err == nil && ga.Status == nfs3.OK {
				res.Attr = nfs3.PostOpAttr{Present: true, Attr: ga.Attr}
			}
			return res, oncrpc.Success
		}
	}
	return p.forward(ctx, call, nfs3.ProcAccess, &a, &nfs3.AccessRes{})
}

// resolveACL finds the effective ACL for an object, walking up the
// namespace for inheritance. It returns nil when no ACL governs the
// object (UNIX permissions then apply).
func (p *ServerProxy) resolveACL(ctx context.Context, call *oncrpc.Call, obj nfs3.FH3) *acl.ACL {
	cur := obj
	for depth := 0; depth < 64; depth++ {
		if string(cur.Data) == p.rootKey {
			return nil
		}
		ref, ok := p.parentOf(cur)
		if !ok {
			return nil
		}
		dir := nfs3.FH3{Data: []byte(ref.dir)}
		if a, found := p.loadACL(ctx, call, dir, ref.name); found {
			return a
		}
		cur = dir
	}
	return nil
}

// loadACL fetches (through the cache) the ACL file for (dir, name).
// found is false when the object has no dedicated ACL file.
func (p *ServerProxy) loadACL(ctx context.Context, call *oncrpc.Call, dir nfs3.FH3, name string) (*acl.ACL, bool) {
	if !p.cfg.DisableACLCache {
		if a, present := p.aclCache.Get(dir.Data, name); present {
			return a, a != nil
		}
	}
	a := p.fetchACL(ctx, call, dir, name)
	if !p.cfg.DisableACLCache {
		p.aclCache.Put(dir.Data, name, a)
	}
	return a, a != nil
}

// fetchACL reads .name.acl from dir via the upstream server. ACL
// reads run under the proxy's own (root) credential: ACL files are
// proxy metadata, stored mode 0600 root so no remote account can
// touch them even through a misconfigured export.
func (p *ServerProxy) fetchACL(ctx context.Context, call *oncrpc.Call, dir nfs3.FH3, name string) *acl.ACL {
	rootCred, err := (&oncrpc.AuthSys{MachineName: "sgfs-proxy", UID: 0, GID: 0}).Auth()
	if err != nil {
		return nil
	}
	var lres nfs3.LookupRes
	args := &nfs3.LookupArgs{What: nfs3.DirOpArgs{Dir: dir, Name: acl.FileName(name)}}
	if err := p.upCall(ctx, nfs3.ProcLookup, rootCred, args, &lres); err != nil || lres.Status != nfs3.OK {
		return nil
	}
	var data []byte
	var off uint64
	for {
		var rres nfs3.ReadRes
		rargs := &nfs3.ReadArgs{Obj: lres.Obj, Offset: off, Count: 32 * 1024}
		if err := p.upCall(ctx, nfs3.ProcRead, rootCred, rargs, &rres); err != nil || rres.Status != nfs3.OK {
			return nil
		}
		data = append(data, rres.Data...)
		off += uint64(len(rres.Data))
		if rres.EOF || len(rres.Data) == 0 {
			break
		}
	}
	a, err := acl.ParseBytes(data)
	if err != nil {
		return nil
	}
	return a
}

// SetACL writes the ACL for the object at slash-separated path
// (relative to the export root), creating or replacing its ACL file.
// This is the entry point the management services use; remote NFS
// clients can never reach ACL files.
func (p *ServerProxy) SetACL(ctx context.Context, path string, a *acl.ACL) error {
	dir, name, err := p.resolvePathParent(ctx, path)
	if err != nil {
		return err
	}
	rootCred, err := (&oncrpc.AuthSys{MachineName: "sgfs-proxy", UID: 0, GID: 0}).Auth()
	if err != nil {
		return err
	}
	aclName := acl.FileName(name)
	// Create (or truncate) the ACL file.
	cargs := &nfs3.CreateArgs{
		Where: nfs3.DirOpArgs{Dir: dir, Name: aclName},
		Mode:  nfs3.CreateUnchecked,
		Attr:  nfs3.Sattr3{SetMode: true, Mode: 0600, SetSize: true},
	}
	var cres nfs3.CreateRes
	if err := p.up.CallCred(ctx, nfs3.ProcCreate, rootCred, cargs, &cres); err != nil {
		return err
	}
	if cres.Status != nfs3.OK {
		return cres.Status.Error()
	}
	data := a.Serialize()
	wargs := &nfs3.WriteArgs{Obj: cres.Obj.FH, Offset: 0, Count: uint32(len(data)), Stable: nfs3.FileSync, Data: data}
	var wres nfs3.WriteRes
	if err := p.up.CallCred(ctx, nfs3.ProcWrite, rootCred, wargs, &wres); err != nil {
		return err
	}
	if wres.Status != nfs3.OK {
		return wres.Status.Error()
	}
	p.aclCache.Invalidate(dir.Data, name)
	return nil
}

// resolvePathParent walks path from the export root with root
// credentials and returns the parent directory handle and leaf name.
func (p *ServerProxy) resolvePathParent(ctx context.Context, path string) (nfs3.FH3, string, error) {
	rootCred, err := (&oncrpc.AuthSys{UID: 0, GID: 0}).Auth()
	if err != nil {
		return nfs3.FH3{}, "", err
	}
	parts := splitSlash(path)
	if len(parts) == 0 {
		return nfs3.FH3{}, "", vfs.ErrInval
	}
	cur := p.root
	for _, name := range parts[:len(parts)-1] {
		var res nfs3.LookupRes
		args := &nfs3.LookupArgs{What: nfs3.DirOpArgs{Dir: cur, Name: name}}
		if err := p.upCall(ctx, nfs3.ProcLookup, rootCred, args, &res); err != nil {
			return nfs3.FH3{}, "", err
		}
		if res.Status != nfs3.OK {
			return nfs3.FH3{}, "", res.Status.Error()
		}
		p.rememberParent(res.Obj, cur, name)
		cur = res.Obj
	}
	return cur, parts[len(parts)-1], nil
}

func splitSlash(path string) []string {
	var parts []string
	start := 0
	for i := 0; i <= len(path); i++ {
		if i == len(path) || path[i] == '/' {
			if i > start {
				parts = append(parts, path[start:i])
			}
			start = i + 1
		}
	}
	return parts
}

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
	cfg   ServerConfig
	rpc   *oncrpc.Server
	relay nfs3.Relay

	up      *oncrpc.Client
	root    nfs3.FH3
	rootKey string
	// rootCred is the credential of the proxy's own upstream calls. ACL
	// files are proxy metadata, stored mode 0600 root so no remote
	// account can touch them even through a misconfigured export.
	rootCred oncrpc.OpaqueAuth

	aclCache *acl.Cache

	// sessions maps a transport to the authenticated session state.
	sessions sync.Map // net.Conn -> *session

	// parents maps an object handle to its (directory handle, name),
	// learned from the namespace operations flowing through the proxy;
	// it lets ACCESS locate the object's ACL file.
	parentMu sync.Mutex
	parents  map[string]parentRef
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
	rootCred, err := (&oncrpc.AuthSys{MachineName: "sgfs-proxy", UID: 0, GID: 0}).Auth()
	if err != nil {
		return nil, err
	}
	root, err := mountd.Mount(ctx, cfg.UpstreamDial, cfg.ExportPath)
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
		rootCred: rootCred,
		aclCache: acl.NewCache(),
		parents:  make(map[string]parentRef),
	}
	p.relay = nfs3.Relay{Up: p, Meter: cfg.Meter}
	p.rpc.Sequential = cfg.Sequential
	p.rpc.Handshake = p.handleConn
	p.register()
	return p, nil
}

// Serve accepts client transports on l until Close. Each accepted
// connection is authenticated (secure channel handshake + gridmap)
// before any RPC is processed.
func (p *ServerProxy) Serve(l net.Listener) error { return p.rpc.Serve(l) }

// handleConn is the RPC server's Handshake step: it authenticates and
// authorizes one accepted transport, then serves RPC on it.
func (p *ServerProxy) handleConn(raw net.Conn) {
	var conn net.Conn = raw
	sess := anonymous
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

// anonymous stands in for the session of a transport handleConn did
// not register.
var anonymous = &session{cred: oncrpc.AuthNone}

func (p *ServerProxy) session(call *oncrpc.Call) *session {
	if v, ok := p.sessions.Load(call.Conn); ok {
		return v.(*session)
	}
	return anonymous
}

// ACLCacheStats exposes ACL cache counters (tests, ablation).
func (p *ServerProxy) ACLCacheStats() (hits, misses uint64) { return p.aclCache.Stats() }

// rememberParent records where an object handle lives in the
// namespace. Most calls (READDIRPLUS listing a directory again)
// re-record what is already known; they look it up and write nothing,
// and neither costs an allocation.
func (p *ServerProxy) rememberParent(obj nfs3.FH3, dir nfs3.FH3, name string) {
	p.parentMu.Lock()
	defer p.parentMu.Unlock()
	if ref, ok := p.parents[string(obj.Data)]; ok && ref.name == name && ref.dir == string(dir.Data) {
		return
	}
	p.parents[string(obj.Data)] = parentRef{dir: string(dir.Data), name: name}
}

func (p *ServerProxy) parentOf(obj nfs3.FH3) (parentRef, bool) {
	p.parentMu.Lock()
	defer p.parentMu.Unlock()
	ref, ok := p.parents[string(obj.Data)]
	return ref, ok
}

// register installs the MOUNT program and the NFS relay with the
// procedures the proxy does more than forward: the namespace operations
// (ACL-file shielding, parent tracking, ACL cache invalidation) and
// ACCESS (grid ACL evaluation).
func (p *ServerProxy) register() {
	mountd.RegisterRelay(p.rpc, func(path string) (nfs3.FH3, bool) {
		return p.root, path == p.cfg.ExportPath
	})
	p.relay.Register(p.rpc, map[uint32]oncrpc.Handler{
		nfs3.ProcLookup:      p.lookup,
		nfs3.ProcAccess:      p.access,
		nfs3.ProcCreate:      p.create,
		nfs3.ProcMkdir:       p.mkdir,
		nfs3.ProcSymlink:     p.symlink,
		nfs3.ProcRemove:      p.remove,
		nfs3.ProcRmdir:       p.rmdir,
		nfs3.ProcRename:      p.rename,
		nfs3.ProcLink:        p.link,
		nfs3.ProcReadDir:     p.readdir,
		nfs3.ProcReadDirPlus: p.readdirplus,
	})
}

// UpCall implements nfs3.Upstream: the RPC runs under the mapped
// credential of call's session, or the proxy's own when call is nil.
// The upstream server sits on the local cluster network; a generous
// deadline still turns a dead backend into an error, not a hang.
func (p *ServerProxy) UpCall(ctx context.Context, call *oncrpc.Call, proc uint32, args xdr.Marshaler, res xdr.Unmarshaler) error {
	cred := p.rootCred
	if call != nil {
		cred = p.session(call).cred
	}
	ctx, cancel := context.WithTimeout(ctx, defaultOpTimeout)
	defer cancel()
	return p.up.CallCred(ctx, proc, cred, args, res)
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
	out, stat := p.relay.Forward(ctx, call, &a, &res)
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
	out, stat := p.relay.Forward(ctx, call, &a, &res)
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
	out, stat := p.relay.Forward(ctx, call, &a, &res)
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
	return p.relay.Forward(ctx, call, &a, &nfs3.CreateRes{})
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
	return p.relay.Forward(ctx, call, &a, &nfs3.WccRes{})
}

func (p *ServerProxy) rmdir(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.RemoveArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	p.aclCache.Invalidate(a.Obj.Dir.Data, a.Obj.Name)
	return p.relay.Forward(ctx, call, &a, &nfs3.WccRes{})
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
	out, stat := p.relay.Forward(ctx, call, &a, &res)
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
	return p.relay.Forward(ctx, call, &a, &nfs3.LinkRes{})
}

// readdir filters ACL files out of directory listings.
func (p *ServerProxy) readdir(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a nfs3.ReadDirArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	var res nfs3.ReadDirRes
	out, stat := p.relay.Forward(ctx, call, &a, &res)
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
	out, stat := p.relay.Forward(ctx, call, &a, &res)
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
		if aclObj := p.resolveACL(ctx, a.Obj); aclObj != nil {
			granted := aclObj.Check(sess.dn) & a.Access
			res := &nfs3.AccessRes{Status: nfs3.OK, Access: granted}
			// Attach post-op attributes for protocol fidelity.
			var ga nfs3.GetAttrRes
			if err := p.relay.Call(ctx, call, nfs3.ProcGetAttr, &nfs3.GetAttrArgs{Obj: a.Obj}, &ga); err == nil && ga.Status == nfs3.OK {
				res.Attr = nfs3.PostOpAttr{Present: true, Attr: ga.Attr}
			}
			return res, oncrpc.Success
		}
	}
	return p.relay.Forward(ctx, call, &a, &nfs3.AccessRes{})
}

// resolveACL finds the effective ACL for an object, walking up the
// namespace for inheritance. It returns nil when no ACL governs the
// object (UNIX permissions then apply).
func (p *ServerProxy) resolveACL(ctx context.Context, obj nfs3.FH3) *acl.ACL {
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
		if a, found := p.loadACL(ctx, dir, ref.name); found {
			return a
		}
		cur = dir
	}
	return nil
}

// loadACL fetches (through the cache) the ACL file for (dir, name).
// found is false when the object has no dedicated ACL file.
func (p *ServerProxy) loadACL(ctx context.Context, dir nfs3.FH3, name string) (*acl.ACL, bool) {
	if !p.cfg.DisableACLCache {
		if a, present := p.aclCache.Get(dir.Data, name); present {
			return a, a != nil
		}
	}
	a := p.fetchACL(ctx, dir, name)
	if !p.cfg.DisableACLCache {
		p.aclCache.Put(dir.Data, name, a)
	}
	return a, a != nil
}

// fetchACL reads .name.acl from dir via the upstream server, under
// the proxy's own credential.
func (p *ServerProxy) fetchACL(ctx context.Context, dir nfs3.FH3, name string) *acl.ACL {
	var lres nfs3.LookupRes
	args := &nfs3.LookupArgs{What: nfs3.DirOpArgs{Dir: dir, Name: acl.FileName(name)}}
	if err := p.relay.Call(ctx, nil, nfs3.ProcLookup, args, &lres); err != nil || lres.Status != nfs3.OK {
		return nil
	}
	var data []byte
	var off uint64
	for {
		var rres nfs3.ReadRes
		rargs := &nfs3.ReadArgs{Obj: lres.Obj, Offset: off, Count: 32 * 1024}
		if err := p.relay.Call(ctx, nil, nfs3.ProcRead, rargs, &rres); err != nil || rres.Status != nfs3.OK {
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
	defer p.relay.Charge(time.Now())
	dir, name, err := p.resolvePathParent(ctx, path)
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
	if err := p.relay.Call(ctx, nil, nfs3.ProcCreate, cargs, &cres); err != nil {
		return err
	}
	if cres.Status != nfs3.OK {
		return cres.Status.Error()
	}
	data := a.Serialize()
	wargs := &nfs3.WriteArgs{Obj: cres.Obj.FH, Offset: 0, Count: uint32(len(data)), Stable: nfs3.FileSync, Data: data}
	var wres nfs3.WriteRes
	if err := p.relay.Call(ctx, nil, nfs3.ProcWrite, wargs, &wres); err != nil {
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
	parts := splitSlash(path)
	if len(parts) == 0 {
		return nfs3.FH3{}, "", vfs.ErrInval
	}
	cur := p.root
	for _, name := range parts[:len(parts)-1] {
		var res nfs3.LookupRes
		args := &nfs3.LookupArgs{What: nfs3.DirOpArgs{Dir: cur, Name: name}}
		if err := p.relay.Call(ctx, nil, nfs3.ProcLookup, args, &res); err != nil {
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

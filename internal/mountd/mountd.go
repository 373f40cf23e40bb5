// Package mountd implements the MOUNT version 3 protocol (RFC 1813
// Appendix I) used by NFS clients to obtain the root file handle of an
// exported file system.
//
// The server keeps an exports table mapping export paths to backend
// file systems and an allowed-client list, mirroring the kernel
// exports file of the paper's deployment where the shared file system
// is exported only to localhost and remote access flows through the
// SGFS proxy (§5).
package mountd

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"

	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// ONC RPC program number and version for MOUNT.
const (
	Program = 100005
	Version = 3
)

// MOUNT procedure numbers.
const (
	ProcNull    = 0
	ProcMnt     = 1
	ProcDump    = 2
	ProcUmnt    = 3
	ProcUmntAll = 4
	ProcExport  = 5
)

// Mount status codes.
const (
	MntOK     = 0
	MntAccess = 13
	MntNoEnt  = 2
	MntInval  = 22
)

// MntArgs is the dirpath argument of MNT and UMNT.
type MntArgs struct{ Path string }

// XDR describes dirpath.
func (a *MntArgs) XDR(c *xdr.Codec) { c.String(&a.Path) }

// MntRes is the MNT result: a file handle plus accepted auth flavors.
type MntRes struct {
	Status  uint32
	FH      nfs3.FH3
	Flavors []uint32
}

// XDR describes mountres3; a reply lists at most 16 auth flavors.
func (r *MntRes) XDR(c *xdr.Codec) {
	if c.Uint32(&r.Status); r.Status == MntOK {
		r.FH.XDR(c)
		xdr.Array(c, &r.Flavors, 16, func(f *uint32, c *xdr.Codec) { c.Uint32(f) })
	}
}

// Mount asks the MOUNT service reached through dial for the root file
// handle of path, over a short-lived connection of its own: the NFS
// program, even on the same server, needs a separate RPC client for
// the program binding.
func Mount(ctx context.Context, dial func() (net.Conn, error), path string) (nfs3.FH3, error) {
	conn, err := dial()
	if err != nil {
		return nfs3.FH3{}, fmt.Errorf("mountd: dial: %w", err)
	}
	mc := oncrpc.NewClient(conn, Program, Version)
	defer mc.Close()
	var res MntRes
	if err := mc.Call(ctx, ProcMnt, &MntArgs{Path: path}, &res); err != nil {
		return nfs3.FH3{}, fmt.Errorf("mountd: mount %q: %w", path, err)
	}
	if res.Status != MntOK {
		return nfs3.FH3{}, fmt.Errorf("mountd: mount %q refused: %w", path, vfs.Errno(res.Status))
	}
	return res.FH, nil
}

// ExportEntry describes one export in an EXPORT reply.
type ExportEntry struct {
	Path   string
	Groups []string
}

// ExportRes is the EXPORT result list.
type ExportRes struct{ Exports []ExportEntry }

// XDR describes exportnode: the path, then its groups list.
func (x *ExportEntry) XDR(c *xdr.Codec) {
	c.String(&x.Path)
	xdr.List(c, &x.Groups, func(g *string, c *xdr.Codec) { c.String(g) })
}

// XDR describes exports, a list of exportnode.
func (r *ExportRes) XDR(c *xdr.Codec) { xdr.List(c, &r.Exports, (*ExportEntry).XDR) }

// The MOUNT messages travel on their own, so each is an xdr.Marshaler
// and xdr.Unmarshaler that runs its description.

func (a *MntArgs) EncodeXDR(e *xdr.Encoder)   { a.XDR(e.Codec()) }
func (a *MntArgs) DecodeXDR(d *xdr.Decoder)   { a.XDR(d.Codec()) }
func (r *MntRes) EncodeXDR(e *xdr.Encoder)    { r.XDR(e.Codec()) }
func (r *MntRes) DecodeXDR(d *xdr.Decoder)    { r.XDR(d.Codec()) }
func (r *ExportRes) EncodeXDR(e *xdr.Encoder) { r.XDR(e.Codec()) }
func (r *ExportRes) DecodeXDR(d *xdr.Decoder) { r.XDR(d.Codec()) }

// Export binds an exported path to a backend and client restrictions.
type Export struct {
	Path string
	FS   vfs.FS
	// AllowedHosts lists host prefixes permitted to mount; empty means
	// localhost only, per the paper's server-side deployment rule.
	AllowedHosts []string
}

// Server is the mount daemon.
type Server struct {
	mu      sync.RWMutex
	exports map[string]*Export
}

// NewServer creates an empty mount daemon.
func NewServer() *Server { return &Server{exports: make(map[string]*Export)} }

// AddExport registers an export.
func (s *Server) AddExport(e *Export) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.exports[e.Path] = e
}

// RemoveExport withdraws an export.
func (s *Server) RemoveExport(path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.exports, path)
}

// Register installs the MOUNT program on an RPC server.
func (s *Server) Register(r *oncrpc.Server) {
	r.Register(Program, Version, map[uint32]oncrpc.Handler{
		ProcMnt:    s.mnt,
		ProcUmnt:   umnt,
		ProcExport: s.export,
	})
}

// ServeNFS puts the paper's file server behind rpc and starts it: the
// NFSv3 program over fs (with file system id fsid), a MOUNT daemon
// exporting fs at path to localhost only (§5), and an accept loop on a
// loopback port of its own, whose address it returns. The caller owns
// rpc: it may register further programs on it, before or after, and
// closes it to stop the server.
func ServeNFS(rpc *oncrpc.Server, path string, fs vfs.FS, fsid uint64) (addr string, err error) {
	nfs3.NewServer(fs, fsid).Register(rpc)
	md := NewServer()
	md.AddExport(&Export{Path: path, FS: fs})
	md.Register(rpc)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	go rpc.Serve(l)
	return l.Addr().String(), nil
}

// RegisterRelay installs the MOUNT program of a daemon that relays a
// single export it has itself mounted upstream: MNT answers the root
// handle export returns for the paths it accepts and NOENT for the
// rest; UMNT is acknowledged (the daemon keeps no mount table).
func RegisterRelay(r *oncrpc.Server, export func(path string) (root nfs3.FH3, ok bool)) {
	r.Register(Program, Version, map[uint32]oncrpc.Handler{
		ProcMnt: func(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
			var a MntArgs
			if call.DecodeArgs(&a) != nil {
				return nil, oncrpc.GarbageArgs
			}
			root, ok := export(a.Path)
			if !ok {
				return &MntRes{Status: MntNoEnt}, oncrpc.Success
			}
			return &MntRes{Status: MntOK, FH: root, Flavors: []uint32{oncrpc.AuthFlavorSys}}, oncrpc.Success
		},
		ProcUmnt: umnt,
	})
}

func hostAllowed(e *Export, addr net.Addr) bool {
	host := ""
	if addr != nil {
		h, _, err := net.SplitHostPort(addr.String())
		if err != nil {
			// Not host:port — in-process transports report opaque
			// addresses; match against the raw string below.
			h = ""
		}
		host = h
	}
	if len(e.AllowedHosts) == 0 {
		return host == "127.0.0.1" || host == "::1" || host == "" ||
			strings.HasPrefix(addr.String(), "pipe") // in-process transports
	}
	for _, allowed := range e.AllowedHosts {
		if allowed == "*" || strings.HasPrefix(host, allowed) {
			return true
		}
	}
	return false
}

func (s *Server) mnt(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a MntArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	s.mu.RLock()
	e, ok := s.exports[a.Path]
	s.mu.RUnlock()
	if !ok {
		return &MntRes{Status: MntNoEnt}, oncrpc.Success
	}
	var remote net.Addr
	if call.Conn != nil {
		remote = call.Conn.RemoteAddr()
	}
	if !hostAllowed(e, remote) {
		return &MntRes{Status: MntAccess}, oncrpc.Success
	}
	return &MntRes{
		Status:  MntOK,
		FH:      nfs3.FromHandle(e.FS.Root()),
		Flavors: []uint32{oncrpc.AuthFlavorSys},
	}, oncrpc.Success
}

func umnt(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a MntArgs
	if call.DecodeArgs(&a) != nil {
		return nil, oncrpc.GarbageArgs
	}
	return nil, oncrpc.Success // void reply
}

func (s *Server) export(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	res := &ExportRes{}
	for path, e := range s.exports {
		groups := e.AllowedHosts
		if len(groups) == 0 {
			groups = []string{"localhost"}
		}
		res.Exports = append(res.Exports, ExportEntry{Path: path, Groups: groups})
	}
	return res, oncrpc.Success
}

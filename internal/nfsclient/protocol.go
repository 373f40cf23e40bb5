// Package nfsclient implements an NFSv3 client comparable to a kernel
// client: MOUNT-protocol attachment, the full NFSv3 call set, a
// timeout-based attribute cache, a bounded LRU memory page cache with
// close-to-open revalidation, write-behind with COMMIT, and optional
// sequential readahead.
//
// The benchmarks use it as the stand-in for the paper's unmodified
// kernel NFS client: pointed at the NFS server directly it is the
// nfs-v3 baseline; pointed at an SGFS client-side proxy it becomes the
// application-facing edge of a secure grid session.
package nfsclient

import (
	"context"
	"fmt"
	"net"

	"repro/internal/nfs3"
	"repro/internal/oncrpc"
)

// Dialer opens a transport to the NFS server (or proxy).
type Dialer func() (net.Conn, error)

// Proto is a typed NFSv3 protocol client over one RPC connection. All
// methods are safe for concurrent use and block until the reply
// arrives (the paper's prototype uses blocking RPC; concurrency across
// goroutines still pipelines on the wire).
type Proto struct {
	rpc *oncrpc.Client
}

// SetCred installs the AUTH_SYS credential used on subsequent calls.
func (p *Proto) SetCred(uid, gid uint32, machine string) error {
	auth, err := (&oncrpc.AuthSys{MachineName: machine, UID: uid, GID: gid}).Auth()
	if err != nil {
		return err
	}
	p.rpc.SetCred(auth)
	return nil
}

// Close tears down the connection.
func (p *Proto) Close() error { return p.rpc.Close() }

// Null issues the NULL procedure (liveness probe).
func (p *Proto) Null(ctx context.Context) error {
	return p.rpc.Call(ctx, nfs3.ProcNull, nil, nil)
}

// GetAttr fetches attributes.
func (p *Proto) GetAttr(ctx context.Context, fh nfs3.FH3) (nfs3.Fattr3, error) {
	var res nfs3.GetAttrRes
	if err := p.rpc.Call(ctx, nfs3.ProcGetAttr, &nfs3.GetAttrArgs{Obj: fh}, &res); err != nil {
		return nfs3.Fattr3{}, err
	}
	return res.Attr, res.Status.Error()
}

// SetAttr applies attribute changes.
func (p *Proto) SetAttr(ctx context.Context, fh nfs3.FH3, attr nfs3.Sattr3) error {
	var res nfs3.WccRes
	if err := p.rpc.Call(ctx, nfs3.ProcSetAttr, &nfs3.SetAttrArgs{Obj: fh, Attr: attr}, &res); err != nil {
		return err
	}
	return res.Status.Error()
}

// Lookup resolves name in dir.
func (p *Proto) Lookup(ctx context.Context, dir nfs3.FH3, name string) (nfs3.FH3, nfs3.Fattr3, error) {
	var res nfs3.LookupRes
	if err := p.rpc.Call(ctx, nfs3.ProcLookup, &nfs3.LookupArgs{What: nfs3.DirOpArgs{Dir: dir, Name: name}}, &res); err != nil {
		return nfs3.FH3{}, nfs3.Fattr3{}, err
	}
	if res.Status != nfs3.OK {
		return nfs3.FH3{}, nfs3.Fattr3{}, res.Status.Error()
	}
	return res.Obj, res.Attr.Attr, nil
}

// Access asks the server which of mask is granted.
func (p *Proto) Access(ctx context.Context, fh nfs3.FH3, mask uint32) (uint32, error) {
	var res nfs3.AccessRes
	if err := p.rpc.Call(ctx, nfs3.ProcAccess, &nfs3.AccessArgs{Obj: fh, Access: mask}, &res); err != nil {
		return 0, err
	}
	return res.Access, res.Status.Error()
}

// ReadLink reads a symlink target.
func (p *Proto) ReadLink(ctx context.Context, fh nfs3.FH3) (string, error) {
	var res nfs3.ReadLinkRes
	if err := p.rpc.Call(ctx, nfs3.ProcReadLink, &nfs3.ReadLinkArgs{Obj: fh}, &res); err != nil {
		return "", err
	}
	return res.Target, res.Status.Error()
}

// Read reads up to count bytes at offset.
func (p *Proto) Read(ctx context.Context, fh nfs3.FH3, offset uint64, count uint32) ([]byte, bool, error) {
	var res nfs3.ReadRes
	if err := p.rpc.Call(ctx, nfs3.ProcRead, &nfs3.ReadArgs{Obj: fh, Offset: offset, Count: count}, &res); err != nil {
		return nil, false, err
	}
	if res.Status != nfs3.OK {
		return nil, false, res.Status.Error()
	}
	return res.Data, res.EOF, nil
}

// Write writes data at offset with the given stability level,
// returning the committed level and the server's write verifier.
func (p *Proto) Write(ctx context.Context, fh nfs3.FH3, offset uint64, data []byte, stable uint32) (uint32, [nfs3.WriteVerfSize]byte, error) {
	args := &nfs3.WriteArgs{Obj: fh, Offset: offset, Count: uint32(len(data)), Stable: stable, Data: data}
	var res nfs3.WriteRes
	if err := p.rpc.Call(ctx, nfs3.ProcWrite, args, &res); err != nil {
		return 0, res.Verf, err
	}
	if res.Status != nfs3.OK {
		return 0, res.Verf, res.Status.Error()
	}
	if res.Count != uint32(len(data)) {
		return res.Committed, res.Verf, fmt.Errorf("nfsclient: short write %d of %d", res.Count, len(data))
	}
	return res.Committed, res.Verf, nil
}

// Create makes a regular file.
func (p *Proto) Create(ctx context.Context, dir nfs3.FH3, name string, mode uint32, exclusive bool) (nfs3.FH3, nfs3.Fattr3, error) {
	args := &nfs3.CreateArgs{
		Where: nfs3.DirOpArgs{Dir: dir, Name: name},
		Mode:  nfs3.CreateUnchecked,
		Attr:  nfs3.Sattr3{SetMode: true, Mode: mode},
	}
	if exclusive {
		args.Mode = nfs3.CreateGuarded
	}
	var res nfs3.CreateRes
	if err := p.rpc.Call(ctx, nfs3.ProcCreate, args, &res); err != nil {
		return nfs3.FH3{}, nfs3.Fattr3{}, err
	}
	if res.Status != nfs3.OK {
		return nfs3.FH3{}, nfs3.Fattr3{}, res.Status.Error()
	}
	return res.Obj.FH, res.Attr.Attr, nil
}

// Mkdir makes a directory.
func (p *Proto) Mkdir(ctx context.Context, dir nfs3.FH3, name string, mode uint32) (nfs3.FH3, nfs3.Fattr3, error) {
	args := &nfs3.MkdirArgs{
		Where: nfs3.DirOpArgs{Dir: dir, Name: name},
		Attr:  nfs3.Sattr3{SetMode: true, Mode: mode},
	}
	var res nfs3.CreateRes
	if err := p.rpc.Call(ctx, nfs3.ProcMkdir, args, &res); err != nil {
		return nfs3.FH3{}, nfs3.Fattr3{}, err
	}
	if res.Status != nfs3.OK {
		return nfs3.FH3{}, nfs3.Fattr3{}, res.Status.Error()
	}
	return res.Obj.FH, res.Attr.Attr, nil
}

// Symlink makes a symbolic link.
func (p *Proto) Symlink(ctx context.Context, dir nfs3.FH3, name, target string) (nfs3.FH3, error) {
	args := &nfs3.SymlinkArgs{Where: nfs3.DirOpArgs{Dir: dir, Name: name}, Target: target}
	var res nfs3.CreateRes
	if err := p.rpc.Call(ctx, nfs3.ProcSymlink, args, &res); err != nil {
		return nfs3.FH3{}, err
	}
	if res.Status != nfs3.OK {
		return nfs3.FH3{}, res.Status.Error()
	}
	return res.Obj.FH, nil
}

// Remove unlinks a file.
func (p *Proto) Remove(ctx context.Context, dir nfs3.FH3, name string) error {
	var res nfs3.WccRes
	if err := p.rpc.Call(ctx, nfs3.ProcRemove, &nfs3.RemoveArgs{Obj: nfs3.DirOpArgs{Dir: dir, Name: name}}, &res); err != nil {
		return err
	}
	return res.Status.Error()
}

// Rmdir removes an empty directory.
func (p *Proto) Rmdir(ctx context.Context, dir nfs3.FH3, name string) error {
	var res nfs3.WccRes
	if err := p.rpc.Call(ctx, nfs3.ProcRmdir, &nfs3.RemoveArgs{Obj: nfs3.DirOpArgs{Dir: dir, Name: name}}, &res); err != nil {
		return err
	}
	return res.Status.Error()
}

// Rename moves an object.
func (p *Proto) Rename(ctx context.Context, fromDir nfs3.FH3, fromName string, toDir nfs3.FH3, toName string) error {
	args := &nfs3.RenameArgs{
		From: nfs3.DirOpArgs{Dir: fromDir, Name: fromName},
		To:   nfs3.DirOpArgs{Dir: toDir, Name: toName},
	}
	var res nfs3.RenameRes
	if err := p.rpc.Call(ctx, nfs3.ProcRename, args, &res); err != nil {
		return err
	}
	return res.Status.Error()
}

// Link makes a hard link.
func (p *Proto) Link(ctx context.Context, obj nfs3.FH3, dir nfs3.FH3, name string) error {
	var res nfs3.LinkRes
	if err := p.rpc.Call(ctx, nfs3.ProcLink, &nfs3.LinkArgs{Obj: obj, Link: nfs3.DirOpArgs{Dir: dir, Name: name}}, &res); err != nil {
		return err
	}
	return res.Status.Error()
}

// ReadDirPlus reads a directory page with attributes and handles.
func (p *Proto) ReadDirPlus(ctx context.Context, dir nfs3.FH3, cookie uint64) ([]nfs3.DirEntryPlus, bool, error) {
	args := &nfs3.ReadDirPlusArgs{Dir: dir, Cookie: cookie, DirCount: 8192, MaxCount: 32768}
	var res nfs3.ReadDirPlusRes
	if err := p.rpc.Call(ctx, nfs3.ProcReadDirPlus, args, &res); err != nil {
		return nil, false, err
	}
	if res.Status != nfs3.OK {
		return nil, false, res.Status.Error()
	}
	return res.Entries, res.EOF, nil
}

// FSStat reports file system capacity.
func (p *Proto) FSStat(ctx context.Context, fh nfs3.FH3) (nfs3.FSStatRes, error) {
	var res nfs3.FSStatRes
	if err := p.rpc.Call(ctx, nfs3.ProcFSStat, &nfs3.FSStatArgs{Obj: fh}, &res); err != nil {
		return res, err
	}
	return res, res.Status.Error()
}

// FSInfo reports static file system parameters.
func (p *Proto) FSInfo(ctx context.Context, fh nfs3.FH3) (nfs3.FSInfoRes, error) {
	var res nfs3.FSInfoRes
	if err := p.rpc.Call(ctx, nfs3.ProcFSInfo, &nfs3.FSStatArgs{Obj: fh}, &res); err != nil {
		return res, err
	}
	return res, res.Status.Error()
}

// Commit flushes unstable writes, returning the server's write
// verifier: one that differs from the writes' means the server
// restarted and the writes must be sent again.
func (p *Proto) Commit(ctx context.Context, fh nfs3.FH3, offset uint64, count uint32) ([nfs3.WriteVerfSize]byte, error) {
	var res nfs3.CommitRes
	if err := p.rpc.Call(ctx, nfs3.ProcCommit, &nfs3.CommitArgs{Obj: fh, Offset: offset, Count: count}, &res); err != nil {
		return res.Verf, err
	}
	return res.Verf, res.Status.Error()
}

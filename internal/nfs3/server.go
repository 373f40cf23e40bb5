package nfs3

import (
	"context"
	"crypto/rand"
	"time"

	"repro/internal/oncrpc"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// PreferredIO is the server's preferred and maximum transfer size.
// The paper's experiments use 32 KB read and write block sizes.
const PreferredIO = 32 * 1024

// Server executes NFSv3 procedures against a vfs.FS backend. It
// stands in for the kernel NFS server of the paper's testbed: the
// SGFS server-side proxy forwards authorized requests to it exactly as
// the paper's proxy forwards to the localhost kernel server.
type Server struct {
	fs   vfs.FS
	fsid uint64
	verf [WriteVerfSize]byte

	// Enforce enables classic UNIX permission checking against the
	// AUTH_SYS credential of each call. Kernel NFS servers enforce
	// permissions; tests may disable it to exercise the proxy's
	// own access control in isolation.
	Enforce bool
}

// NewServer creates a server exporting fs.
func NewServer(fs vfs.FS, fsid uint64) *Server {
	s := &Server{fs: fs, fsid: fsid, Enforce: true}
	rand.Read(s.verf[:])
	return s
}

// Register installs the NFSv3 program on an RPC server.
func (s *Server) Register(r *oncrpc.Server) {
	r.Register(Program, Version, map[uint32]oncrpc.Handler{
		ProcGetAttr:     s.getattr,
		ProcSetAttr:     s.setattr,
		ProcLookup:      s.lookup,
		ProcAccess:      s.access,
		ProcReadLink:    s.readlink,
		ProcRead:        s.read,
		ProcWrite:       s.write,
		ProcCreate:      s.create,
		ProcMkdir:       s.mkdir,
		ProcSymlink:     s.symlink,
		ProcMknod:       mknod,
		ProcRemove:      s.remove,
		ProcRmdir:       s.rmdir,
		ProcRename:      s.rename,
		ProcLink:        s.link,
		ProcReadDir:     s.readdir,
		ProcReadDirPlus: s.readdirplus,
		ProcFSStat:      s.fsstat,
		ProcFSInfo:      s.fsinfo,
		ProcPathConf:    s.pathconf,
		ProcCommit:      s.commit,
	})
}

func creds(call *oncrpc.Call) vfs.Creds {
	if call.Cred.Sys == nil {
		return vfs.Creds{UID: ^uint32(0), GID: ^uint32(0)}
	}
	return vfs.Creds{UID: call.Cred.Sys.UID, GID: call.Cred.Sys.GID, GIDs: call.Cred.Sys.GIDs}
}

// postOp fetches post-operation attributes, tolerating failure.
func (s *Server) postOp(h vfs.Handle) PostOpAttr {
	a, err := s.fs.GetAttr(h)
	if err != nil {
		return PostOpAttr{}
	}
	return PostOpAttr{Present: true, Attr: FromAttr(a, s.fsid)}
}

// preOp captures pre-operation WCC attributes.
func (s *Server) preOp(h vfs.Handle) PreOpAttr {
	a, err := s.fs.GetAttr(h)
	if err != nil {
		return PreOpAttr{}
	}
	return PreOpAttr{Present: true, Attr: WccAttr{
		Size: a.Size, Mtime: TimeToNFS(a.Mtime), Ctime: TimeToNFS(a.Ctime),
	}}
}

// checkPerm verifies that creds hold all bits of mask on h; it returns
// OK when enforcement is disabled.
func (s *Server) checkPerm(h vfs.Handle, c vfs.Creds, mask uint32) Status {
	if !s.Enforce {
		return OK
	}
	attr, err := s.fs.GetAttr(h)
	if err != nil {
		return StatusFromError(err)
	}
	if vfs.CheckAccess(attr, c, mask) != mask {
		return Status(vfs.ErrAccess)
	}
	return OK
}

func decodeArgs(call *oncrpc.Call, v xdr.Unmarshaler) bool {
	return call.DecodeArgs(v) == nil
}

func (s *Server) getattr(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a GetAttrArgs
	if !decodeArgs(call, &a) {
		return nil, oncrpc.GarbageArgs
	}
	res := &GetAttrRes{}
	attr, err := s.fs.GetAttr(a.Obj.Handle())
	if err != nil {
		res.Status = StatusFromError(err)
		return res, oncrpc.Success
	}
	res.Attr = FromAttr(attr, s.fsid)
	return res, oncrpc.Success
}

func (s *Server) setattr(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a SetAttrArgs
	if !decodeArgs(call, &a) {
		return nil, oncrpc.GarbageArgs
	}
	h := a.Obj.Handle()
	res := &WccRes{}
	res.Wcc.Before = s.preOp(h)
	if a.GuardCheck {
		attr, err := s.fs.GetAttr(h)
		if err != nil {
			res.Status = StatusFromError(err)
			res.Wcc.After = s.postOp(h)
			return res, oncrpc.Success
		}
		if TimeToNFS(attr.Ctime) != a.GuardCtime {
			res.Status = Status(vfs.ErrInval) // NFS3ERR_NOT_SYNC semantics
			res.Wcc.After = s.postOp(h)
			return res, oncrpc.Success
		}
	}
	// Only the owner (or root) may change attributes other than times.
	if s.Enforce {
		attr, err := s.fs.GetAttr(h)
		if err == nil {
			c := creds(call)
			if c.UID != 0 && c.UID != attr.UID {
				res.Status = Status(vfs.ErrPerm)
				res.Wcc.After = s.postOp(h)
				return res, oncrpc.Success
			}
		}
	}
	_, err := s.fs.SetAttr(h, a.Attr.SetAttr())
	res.Status = StatusFromError(err)
	res.Wcc.After = s.postOp(h)
	return res, oncrpc.Success
}

func (s *Server) lookup(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a LookupArgs
	if !decodeArgs(call, &a) {
		return nil, oncrpc.GarbageArgs
	}
	dir := a.What.Dir.Handle()
	res := &LookupRes{}
	if st := s.checkPerm(dir, creds(call), vfs.AccessLookup); st != OK {
		res.Status = st
		res.DirAttr = s.postOp(dir)
		return res, oncrpc.Success
	}
	h, attr, err := s.fs.Lookup(dir, a.What.Name)
	res.DirAttr = s.postOp(dir)
	if err != nil {
		res.Status = StatusFromError(err)
		return res, oncrpc.Success
	}
	res.Obj = FromHandle(h)
	res.Attr = PostOpAttr{Present: true, Attr: FromAttr(attr, s.fsid)}
	return res, oncrpc.Success
}

func (s *Server) access(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a AccessArgs
	if !decodeArgs(call, &a) {
		return nil, oncrpc.GarbageArgs
	}
	h := a.Obj.Handle()
	res := &AccessRes{}
	attr, err := s.fs.GetAttr(h)
	if err != nil {
		res.Status = StatusFromError(err)
		return res, oncrpc.Success
	}
	res.Attr = PostOpAttr{Present: true, Attr: FromAttr(attr, s.fsid)}
	res.Access = vfs.CheckAccess(attr, creds(call), a.Access)
	return res, oncrpc.Success
}

func (s *Server) readlink(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a ReadLinkArgs
	if !decodeArgs(call, &a) {
		return nil, oncrpc.GarbageArgs
	}
	h := a.Obj.Handle()
	res := &ReadLinkRes{}
	target, err := s.fs.ReadLink(h)
	res.Attr = s.postOp(h)
	if err != nil {
		res.Status = StatusFromError(err)
		return res, oncrpc.Success
	}
	res.Target = target
	return res, oncrpc.Success
}

func (s *Server) read(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a ReadArgs
	if !decodeArgs(call, &a) {
		return nil, oncrpc.GarbageArgs
	}
	h := a.Obj.Handle()
	res := &ReadRes{}
	if st := s.checkPerm(h, creds(call), vfs.AccessRead); st != OK {
		res.Status = st
		res.Attr = s.postOp(h)
		return res, oncrpc.Success
	}
	count := a.Count
	if count > PreferredIO {
		count = PreferredIO
	}
	buf := make([]byte, count)
	n, eof, err := s.fs.Read(h, a.Offset, buf)
	res.Attr = s.postOp(h)
	if err != nil {
		res.Status = StatusFromError(err)
		return res, oncrpc.Success
	}
	res.Count = uint32(n)
	res.EOF = eof
	res.Data = buf[:n]
	return res, oncrpc.Success
}

func (s *Server) write(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a WriteArgs
	if !decodeArgs(call, &a) {
		return nil, oncrpc.GarbageArgs
	}
	h := a.Obj.Handle()
	res := &WriteRes{Verf: s.verf}
	res.Wcc.Before = s.preOp(h)
	if st := s.checkPerm(h, creds(call), vfs.AccessModify); st != OK {
		res.Status = st
		res.Wcc.After = s.postOp(h)
		return res, oncrpc.Success
	}
	data := a.Data
	if uint32(len(data)) > a.Count {
		data = data[:a.Count]
	}
	err := s.fs.Write(h, a.Offset, data)
	res.Wcc.After = s.postOp(h)
	if err != nil {
		res.Status = StatusFromError(err)
		return res, oncrpc.Success
	}
	res.Count = uint32(len(data))
	// The backend treats all writes as immediately durable when asked;
	// unstable writes are acknowledged as written but require COMMIT,
	// mirroring a kernel server with write delay + synchronous update.
	res.Committed = a.Stable
	if a.Stable != Unstable {
		if err := s.fs.Commit(h); err != nil {
			res.Status = StatusFromError(err)
			return res, oncrpc.Success
		}
		res.Committed = FileSync
	}
	return res, oncrpc.Success
}

func (s *Server) create(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a CreateArgs
	if !decodeArgs(call, &a) {
		return nil, oncrpc.GarbageArgs
	}
	dir := a.Where.Dir.Handle()
	res := &CreateRes{}
	res.DirWcc.Before = s.preOp(dir)
	if st := s.checkPerm(dir, creds(call), vfs.AccessModify); st != OK {
		res.Status = st
		res.DirWcc.After = s.postOp(dir)
		return res, oncrpc.Success
	}
	sa := a.Attr.SetAttr()
	if sa.UID == nil {
		uid := creds(call).UID
		sa.UID = &uid
	}
	if sa.GID == nil {
		gid := creds(call).GID
		sa.GID = &gid
	}
	// GUARDED create shares EXCLUSIVE's must-not-exist semantics at
	// the backend (it differs only in attribute handling).
	exclusive := a.Mode == CreateExclusive || a.Mode == CreateGuarded
	h, attr, err := s.fs.Create(dir, a.Where.Name, sa, exclusive)
	res.DirWcc.After = s.postOp(dir)
	if err != nil {
		res.Status = StatusFromError(err)
		return res, oncrpc.Success
	}
	res.Obj = PostOpFH3{Present: true, FH: FromHandle(h)}
	res.Attr = PostOpAttr{Present: true, Attr: FromAttr(attr, s.fsid)}
	return res, oncrpc.Success
}

func (s *Server) mkdir(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a MkdirArgs
	if !decodeArgs(call, &a) {
		return nil, oncrpc.GarbageArgs
	}
	dir := a.Where.Dir.Handle()
	res := &CreateRes{}
	res.DirWcc.Before = s.preOp(dir)
	if st := s.checkPerm(dir, creds(call), vfs.AccessModify); st != OK {
		res.Status = st
		res.DirWcc.After = s.postOp(dir)
		return res, oncrpc.Success
	}
	sa := a.Attr.SetAttr()
	if sa.UID == nil {
		uid := creds(call).UID
		sa.UID = &uid
	}
	if sa.GID == nil {
		gid := creds(call).GID
		sa.GID = &gid
	}
	h, attr, err := s.fs.Mkdir(dir, a.Where.Name, sa)
	res.DirWcc.After = s.postOp(dir)
	if err != nil {
		res.Status = StatusFromError(err)
		return res, oncrpc.Success
	}
	res.Obj = PostOpFH3{Present: true, FH: FromHandle(h)}
	res.Attr = PostOpAttr{Present: true, Attr: FromAttr(attr, s.fsid)}
	return res, oncrpc.Success
}

func (s *Server) symlink(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a SymlinkArgs
	if !decodeArgs(call, &a) {
		return nil, oncrpc.GarbageArgs
	}
	dir := a.Where.Dir.Handle()
	res := &CreateRes{}
	res.DirWcc.Before = s.preOp(dir)
	if st := s.checkPerm(dir, creds(call), vfs.AccessModify); st != OK {
		res.Status = st
		res.DirWcc.After = s.postOp(dir)
		return res, oncrpc.Success
	}
	sa := a.Attr.SetAttr()
	if sa.UID == nil {
		uid := creds(call).UID
		sa.UID = &uid
	}
	h, attr, err := s.fs.Symlink(dir, a.Where.Name, a.Target, sa)
	res.DirWcc.After = s.postOp(dir)
	if err != nil {
		res.Status = StatusFromError(err)
		return res, oncrpc.Success
	}
	res.Obj = PostOpFH3{Present: true, FH: FromHandle(h)}
	res.Attr = PostOpAttr{Present: true, Attr: FromAttr(attr, s.fsid)}
	return res, oncrpc.Success
}

// mknod refuses MKNOD, here and in every relay: device nodes have no
// place in a grid file system.
func mknod(context.Context, *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	return &CreateRes{Status: Status(vfs.ErrNotSupp)}, oncrpc.Success
}

func (s *Server) remove(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a RemoveArgs
	if !decodeArgs(call, &a) {
		return nil, oncrpc.GarbageArgs
	}
	dir := a.Obj.Dir.Handle()
	res := &WccRes{}
	res.Wcc.Before = s.preOp(dir)
	if st := s.checkPerm(dir, creds(call), vfs.AccessModify); st != OK {
		res.Status = st
		res.Wcc.After = s.postOp(dir)
		return res, oncrpc.Success
	}
	err := s.fs.Remove(dir, a.Obj.Name)
	res.Status = StatusFromError(err)
	res.Wcc.After = s.postOp(dir)
	return res, oncrpc.Success
}

func (s *Server) rmdir(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a RemoveArgs
	if !decodeArgs(call, &a) {
		return nil, oncrpc.GarbageArgs
	}
	dir := a.Obj.Dir.Handle()
	res := &WccRes{}
	res.Wcc.Before = s.preOp(dir)
	if st := s.checkPerm(dir, creds(call), vfs.AccessModify); st != OK {
		res.Status = st
		res.Wcc.After = s.postOp(dir)
		return res, oncrpc.Success
	}
	err := s.fs.Rmdir(dir, a.Obj.Name)
	res.Status = StatusFromError(err)
	res.Wcc.After = s.postOp(dir)
	return res, oncrpc.Success
}

func (s *Server) rename(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a RenameArgs
	if !decodeArgs(call, &a) {
		return nil, oncrpc.GarbageArgs
	}
	from := a.From.Dir.Handle()
	to := a.To.Dir.Handle()
	res := &RenameRes{}
	res.FromWcc.Before = s.preOp(from)
	res.ToWcc.Before = s.preOp(to)
	c := creds(call)
	if st := s.checkPerm(from, c, vfs.AccessModify); st != OK {
		res.Status = st
	} else if st := s.checkPerm(to, c, vfs.AccessModify); st != OK {
		res.Status = st
	} else {
		res.Status = StatusFromError(s.fs.Rename(from, a.From.Name, to, a.To.Name))
	}
	res.FromWcc.After = s.postOp(from)
	res.ToWcc.After = s.postOp(to)
	return res, oncrpc.Success
}

func (s *Server) link(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a LinkArgs
	if !decodeArgs(call, &a) {
		return nil, oncrpc.GarbageArgs
	}
	obj := a.Obj.Handle()
	dir := a.Link.Dir.Handle()
	res := &LinkRes{}
	res.LinkWcc.Before = s.preOp(dir)
	if st := s.checkPerm(dir, creds(call), vfs.AccessModify); st != OK {
		res.Status = st
	} else {
		res.Status = StatusFromError(s.fs.Link(obj, dir, a.Link.Name))
	}
	res.Attr = s.postOp(obj)
	res.LinkWcc.After = s.postOp(dir)
	return res, oncrpc.Success
}

func (s *Server) readdir(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a ReadDirArgs
	if !decodeArgs(call, &a) {
		return nil, oncrpc.GarbageArgs
	}
	dir := a.Dir.Handle()
	res := &ReadDirRes{}
	if st := s.checkPerm(dir, creds(call), vfs.AccessRead); st != OK {
		res.Status = st
		res.DirAttr = s.postOp(dir)
		return res, oncrpc.Success
	}
	// Approximate the byte budget with an average entry estimate.
	maxEntries := int(a.Count / 32)
	if maxEntries < 1 {
		maxEntries = 1
	}
	entries, eof, err := s.fs.ReadDir(dir, a.Cookie, maxEntries)
	res.DirAttr = s.postOp(dir)
	if err != nil {
		res.Status = StatusFromError(err)
		return res, oncrpc.Success
	}
	res.EOF = eof
	for _, ent := range entries {
		res.Entries = append(res.Entries, DirEntry3{FileID: ent.FileID, Name: ent.Name, Cookie: ent.Cookie})
	}
	return res, oncrpc.Success
}

func (s *Server) readdirplus(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a ReadDirPlusArgs
	if !decodeArgs(call, &a) {
		return nil, oncrpc.GarbageArgs
	}
	dir := a.Dir.Handle()
	res := &ReadDirPlusRes{}
	if st := s.checkPerm(dir, creds(call), vfs.AccessRead); st != OK {
		res.Status = st
		res.DirAttr = s.postOp(dir)
		return res, oncrpc.Success
	}
	maxEntries := int(a.MaxCount / 128)
	if maxEntries < 1 {
		maxEntries = 1
	}
	entries, eof, err := s.fs.ReadDir(dir, a.Cookie, maxEntries)
	res.DirAttr = s.postOp(dir)
	if err != nil {
		res.Status = StatusFromError(err)
		return res, oncrpc.Success
	}
	res.EOF = eof
	for _, ent := range entries {
		dep := DirEntryPlus{FileID: ent.FileID, Name: ent.Name, Cookie: ent.Cookie}
		if ent.Attr != nil {
			dep.Attr = PostOpAttr{Present: true, Attr: FromAttr(*ent.Attr, s.fsid)}
			dep.FH = PostOpFH3{Present: true, FH: FromHandle(ent.Handle)}
		}
		res.Entries = append(res.Entries, dep)
	}
	return res, oncrpc.Success
}

func (s *Server) fsstat(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a FSStatArgs
	if !decodeArgs(call, &a) {
		return nil, oncrpc.GarbageArgs
	}
	h := a.Obj.Handle()
	res := &FSStatRes{}
	st, err := s.fs.FSStat(h)
	res.Attr = s.postOp(h)
	if err != nil {
		res.Status = StatusFromError(err)
		return res, oncrpc.Success
	}
	res.Tbytes = st.TotalBytes
	res.Fbytes = st.FreeBytes
	res.Abytes = st.AvailBytes
	res.Tfiles = st.TotalFiles
	res.Ffiles = st.FreeFiles
	res.Afiles = st.FreeFiles
	return res, oncrpc.Success
}

func (s *Server) fsinfo(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a FSStatArgs
	if !decodeArgs(call, &a) {
		return nil, oncrpc.GarbageArgs
	}
	h := a.Obj.Handle()
	res := &FSInfoRes{
		RtMax: PreferredIO, RtPref: PreferredIO, RtMult: 4096,
		WtMax: PreferredIO, WtPref: PreferredIO, WtMult: 4096,
		DtPref: PreferredIO, MaxFileSize: 1 << 62,
		TimeDelta:  NFSTime{Sec: 0, NSec: uint32(time.Millisecond.Nanoseconds())},
		Properties: FSFLink | FSFSymlink | FSFHomogeneous | FSFCanSetTime,
	}
	res.Attr = s.postOp(h)
	if !res.Attr.Present {
		res.Status = Status(vfs.ErrStale)
	}
	return res, oncrpc.Success
}

func (s *Server) pathconf(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a FSStatArgs
	if !decodeArgs(call, &a) {
		return nil, oncrpc.GarbageArgs
	}
	h := a.Obj.Handle()
	res := &PathConfRes{
		LinkMax: 32000, NameMax: 255,
		NoTrunc: true, CasePreserving: true,
	}
	res.Attr = s.postOp(h)
	if !res.Attr.Present {
		res.Status = Status(vfs.ErrStale)
	}
	return res, oncrpc.Success
}

func (s *Server) commit(_ context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	var a CommitArgs
	if !decodeArgs(call, &a) {
		return nil, oncrpc.GarbageArgs
	}
	h := a.Obj.Handle()
	res := &CommitRes{Verf: s.verf}
	res.Wcc.Before = s.preOp(h)
	err := s.fs.Commit(h)
	res.Status = StatusFromError(err)
	res.Wcc.After = s.postOp(h)
	return res, oncrpc.Success
}

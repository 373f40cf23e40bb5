// Package nfs3 implements the NFS version 3 protocol (RFC 1813): the
// XDR wire types for all 21 procedures plus NULL, and a server that
// executes them against a vfs.FS backend. Together with the MOUNT
// protocol (internal/mountd) and the client (internal/nfsclient) it
// forms the unmodified-NFS substrate that the SGFS proxies virtualize.
package nfs3

import (
	"time"

	"repro/internal/vfs"
	"repro/internal/xdr"
)

// ONC RPC program numbers and versions.
const (
	Program = 100003
	Version = 3
)

// NFSv3 procedure numbers.
const (
	ProcNull        = 0
	ProcGetAttr     = 1
	ProcSetAttr     = 2
	ProcLookup      = 3
	ProcAccess      = 4
	ProcReadLink    = 5
	ProcRead        = 6
	ProcWrite       = 7
	ProcCreate      = 8
	ProcMkdir       = 9
	ProcSymlink     = 10
	ProcMknod       = 11
	ProcRemove      = 12
	ProcRmdir       = 13
	ProcRename      = 14
	ProcLink        = 15
	ProcReadDir     = 16
	ProcReadDirPlus = 17
	ProcFSStat      = 18
	ProcFSInfo      = 19
	ProcPathConf    = 20
	ProcCommit      = 21
)

// Status is the nfsstat3 result code. The values coincide with
// vfs.Errno so backend errors pass through unchanged.
type Status uint32

// OK indicates success; error values mirror vfs.Errno.
const OK Status = 0

// StatusFromError maps a backend error to an NFS status.
func StatusFromError(err error) Status {
	if err == nil {
		return OK
	}
	if e, ok := err.(vfs.Errno); ok {
		return Status(e)
	}
	return Status(vfs.ErrServerFault)
}

// Error converts a status to a backend error (nil for OK).
func (s Status) Error() error {
	if s == OK {
		return nil
	}
	return vfs.Errno(s)
}

// FHSize is the maximum file handle length (RFC 1813).
const FHSize = 64

// FH3 is an NFSv3 file handle.
type FH3 struct{ Data []byte }

// FromHandle converts a vfs handle.
func FromHandle(h vfs.Handle) FH3 { return FH3{Data: append([]byte(nil), h[:]...)} }

// Handle converts to a vfs handle; short handles are zero-padded and
// long ones rejected by the caller via Valid.
func (f FH3) Handle() vfs.Handle {
	var h vfs.Handle
	copy(h[:], f.Data)
	return h
}

// Valid reports whether the handle has a legal length.
func (f FH3) Valid() bool { return len(f.Data) > 0 && len(f.Data) <= FHSize }

// XDR describes nfs_fh3: opaque<FHSIZE>.
func (f *FH3) XDR(c *xdr.Codec) { c.Opaque(&f.Data, FHSize) }

// NFSTime is the nfstime3 structure.
type NFSTime struct{ Sec, NSec uint32 }

// TimeToNFS converts a time.Time.
func TimeToNFS(t time.Time) NFSTime {
	return NFSTime{Sec: uint32(t.Unix()), NSec: uint32(t.Nanosecond())}
}

// Time converts to time.Time.
func (t NFSTime) Time() time.Time { return time.Unix(int64(t.Sec), int64(t.NSec)) }

// XDR describes nfstime3.
func (t *NFSTime) XDR(c *xdr.Codec) { c.Uint32(&t.Sec); c.Uint32(&t.NSec) }

// Fattr3 is the fattr3 attribute structure.
type Fattr3 struct {
	Type                uint32
	Mode                uint32
	Nlink               uint32
	UID, GID            uint32
	Size, Used          uint64
	RdevMaj, RdevMin    uint32
	FSID                uint64
	FileID              uint64
	Atime, Mtime, Ctime NFSTime
}

// FromAttr converts vfs attributes.
func FromAttr(a vfs.Attr, fsid uint64) Fattr3 {
	return Fattr3{
		Type: uint32(a.Type), Mode: a.Mode, Nlink: a.Nlink,
		UID: a.UID, GID: a.GID, Size: a.Size, Used: a.Used,
		FSID: fsid, FileID: a.FileID,
		Atime: TimeToNFS(a.Atime), Mtime: TimeToNFS(a.Mtime), Ctime: TimeToNFS(a.Ctime),
	}
}

// Attr converts to vfs attributes.
func (f Fattr3) Attr() vfs.Attr {
	return vfs.Attr{
		Type: vfs.FileType(f.Type), Mode: f.Mode, Nlink: f.Nlink,
		UID: f.UID, GID: f.GID, Size: f.Size, Used: f.Used, FileID: f.FileID,
		Atime: f.Atime.Time(), Mtime: f.Mtime.Time(), Ctime: f.Ctime.Time(),
	}
}

// XDR describes fattr3.
func (f *Fattr3) XDR(c *xdr.Codec) {
	c.Uint32(&f.Type)
	c.Uint32(&f.Mode)
	c.Uint32(&f.Nlink)
	c.Uint32(&f.UID)
	c.Uint32(&f.GID)
	c.Uint64(&f.Size)
	c.Uint64(&f.Used)
	c.Uint32(&f.RdevMaj)
	c.Uint32(&f.RdevMin)
	c.Uint64(&f.FSID)
	c.Uint64(&f.FileID)
	f.Atime.XDR(c)
	f.Mtime.XDR(c)
	f.Ctime.XDR(c)
}

// PostOpAttr is the post_op_attr optional attribute.
type PostOpAttr struct {
	Present bool
	Attr    Fattr3
}

// XDR describes post_op_attr.
func (p *PostOpAttr) XDR(c *xdr.Codec) {
	if c.Optional(&p.Present) {
		p.Attr.XDR(c)
	}
}

// WccAttr is the abbreviated pre-operation attribute set.
type WccAttr struct {
	Size         uint64
	Mtime, Ctime NFSTime
}

// PreOpAttr is the pre_op_attr optional attribute.
type PreOpAttr struct {
	Present bool
	Attr    WccAttr
}

// XDR describes pre_op_attr.
func (p *PreOpAttr) XDR(c *xdr.Codec) {
	if c.Optional(&p.Present) {
		c.Uint64(&p.Attr.Size)
		p.Attr.Mtime.XDR(c)
		p.Attr.Ctime.XDR(c)
	}
}

// WccData is weak cache consistency data.
type WccData struct {
	Before PreOpAttr
	After  PostOpAttr
}

// XDR describes wcc_data.
func (w *WccData) XDR(c *xdr.Codec) { w.Before.XDR(c); w.After.XDR(c) }

// PostOpFH3 is an optional file handle.
type PostOpFH3 struct {
	Present bool
	FH      FH3
}

// XDR describes post_op_fh3.
func (p *PostOpFH3) XDR(c *xdr.Codec) {
	if c.Optional(&p.Present) {
		p.FH.XDR(c)
	}
}

// Time-setting discriminants for Sattr3.
const (
	DontChange      = 0
	SetToServerTime = 1
	SetToClientTime = 2
)

// Sattr3 is the settable-attributes structure.
type Sattr3 struct {
	SetMode bool
	Mode    uint32
	SetUID  bool
	UID     uint32
	SetGID  bool
	GID     uint32
	SetSize bool
	Size    uint64
	// AtimeHow / MtimeHow take the DontChange / SetToServerTime /
	// SetToClientTime discriminants.
	AtimeHow uint32
	Atime    NFSTime
	MtimeHow uint32
	Mtime    NFSTime
}

// XDR describes sattr3.
func (s *Sattr3) XDR(c *xdr.Codec) {
	if c.Optional(&s.SetMode) {
		c.Uint32(&s.Mode)
	}
	if c.Optional(&s.SetUID) {
		c.Uint32(&s.UID)
	}
	if c.Optional(&s.SetGID) {
		c.Uint32(&s.GID)
	}
	if c.Optional(&s.SetSize) {
		c.Uint64(&s.Size)
	}
	if c.Uint32(&s.AtimeHow); s.AtimeHow == SetToClientTime {
		s.Atime.XDR(c)
	}
	if c.Uint32(&s.MtimeHow); s.MtimeHow == SetToClientTime {
		s.Mtime.XDR(c)
	}
}

// SetAttr converts to the vfs update form.
func (s *Sattr3) SetAttr() vfs.SetAttr {
	var out vfs.SetAttr
	if s.SetMode {
		m := s.Mode
		out.Mode = &m
	}
	if s.SetUID {
		u := s.UID
		out.UID = &u
	}
	if s.SetGID {
		g := s.GID
		out.GID = &g
	}
	if s.SetSize {
		sz := s.Size
		out.Size = &sz
	}
	now := time.Now()
	switch s.AtimeHow {
	case SetToServerTime:
		out.Atime = &now
	case SetToClientTime:
		at := s.Atime.Time()
		out.Atime = &at
	}
	switch s.MtimeHow {
	case SetToServerTime:
		out.Mtime = &now
	case SetToClientTime:
		mt := s.Mtime.Time()
		out.Mtime = &mt
	}
	return out
}

// DirOpArgs names an object within a directory.
type DirOpArgs struct {
	Dir  FH3
	Name string
}

// XDR describes diropargs3.
func (a *DirOpArgs) XDR(c *xdr.Codec) { a.Dir.XDR(c); c.String(&a.Name) }

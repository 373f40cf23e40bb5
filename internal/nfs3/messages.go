package nfs3

import (
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// Write stability levels (stable_how).
const (
	Unstable = 0
	DataSync = 1
	FileSync = 2
)

// Create modes (createmode3).
const (
	CreateUnchecked = 0
	CreateGuarded   = 1
	CreateExclusive = 2
)

// WriteVerfSize is the size of write and cookie verifiers.
const WriteVerfSize = 8

// GetAttrArgs is GETATTR3args.
type GetAttrArgs struct{ Obj FH3 }

// XDR describes GETATTR3args.
func (a *GetAttrArgs) XDR(c *xdr.Codec) { a.Obj.XDR(c) }

// GetAttrRes is GETATTR3res.
type GetAttrRes struct {
	Status Status
	Attr   Fattr3
}

// XDR describes GETATTR3res.
func (r *GetAttrRes) XDR(c *xdr.Codec) {
	if xdr.Enum(c, &r.Status); r.Status == OK {
		r.Attr.XDR(c)
	}
}

// SetAttrArgs is SETATTR3args.
type SetAttrArgs struct {
	Obj        FH3
	Attr       Sattr3
	GuardCheck bool
	GuardCtime NFSTime
}

// XDR describes SETATTR3args.
func (a *SetAttrArgs) XDR(c *xdr.Codec) {
	a.Obj.XDR(c)
	a.Attr.XDR(c)
	if c.Optional(&a.GuardCheck) {
		a.GuardCtime.XDR(c)
	}
}

// WccRes is the common {status, wcc_data} result (SETATTR, REMOVE,
// RMDIR).
type WccRes struct {
	Status Status
	Wcc    WccData
}

// XDR describes the {status, wcc_data} result.
func (r *WccRes) XDR(c *xdr.Codec) {
	xdr.Enum(c, &r.Status)
	r.Wcc.XDR(c)
}

// LookupArgs is LOOKUP3args.
type LookupArgs struct{ What DirOpArgs }

// XDR describes LOOKUP3args.
func (a *LookupArgs) XDR(c *xdr.Codec) { a.What.XDR(c) }

// LookupRes is LOOKUP3res.
type LookupRes struct {
	Status  Status
	Obj     FH3
	Attr    PostOpAttr
	DirAttr PostOpAttr
}

// XDR describes LOOKUP3res.
func (r *LookupRes) XDR(c *xdr.Codec) {
	if xdr.Enum(c, &r.Status); r.Status == OK {
		r.Obj.XDR(c)
		r.Attr.XDR(c)
	}
	r.DirAttr.XDR(c)
}

// AccessArgs is ACCESS3args.
type AccessArgs struct {
	Obj    FH3
	Access uint32
}

// XDR describes ACCESS3args.
func (a *AccessArgs) XDR(c *xdr.Codec) { a.Obj.XDR(c); c.Uint32(&a.Access) }

// AccessRes is ACCESS3res.
type AccessRes struct {
	Status Status
	Attr   PostOpAttr
	Access uint32
}

// XDR describes ACCESS3res.
func (r *AccessRes) XDR(c *xdr.Codec) {
	xdr.Enum(c, &r.Status)
	r.Attr.XDR(c)
	if r.Status == OK {
		c.Uint32(&r.Access)
	}
}

// ReadLinkArgs is READLINK3args.
type ReadLinkArgs struct{ Obj FH3 }

// XDR describes READLINK3args.
func (a *ReadLinkArgs) XDR(c *xdr.Codec) { a.Obj.XDR(c) }

// ReadLinkRes is READLINK3res.
type ReadLinkRes struct {
	Status Status
	Attr   PostOpAttr
	Target string
}

// XDR describes READLINK3res.
func (r *ReadLinkRes) XDR(c *xdr.Codec) {
	xdr.Enum(c, &r.Status)
	r.Attr.XDR(c)
	if r.Status == OK {
		c.String(&r.Target)
	}
}

// ReadArgs is READ3args.
type ReadArgs struct {
	Obj    FH3
	Offset uint64
	Count  uint32
}

// XDR describes READ3args.
func (a *ReadArgs) XDR(c *xdr.Codec) {
	a.Obj.XDR(c)
	c.Uint64(&a.Offset)
	c.Uint32(&a.Count)
}

// ReadRes is READ3res.
type ReadRes struct {
	Status Status
	Attr   PostOpAttr
	Count  uint32
	EOF    bool
	Data   []byte
}

// XDR describes READ3res.
func (r *ReadRes) XDR(c *xdr.Codec) {
	xdr.Enum(c, &r.Status)
	r.Attr.XDR(c)
	if r.Status == OK {
		c.Uint32(&r.Count)
		c.Bool(&r.EOF)
		c.Opaque(&r.Data, xdr.MaxElementSize)
	}
}

// WriteArgs is WRITE3args.
type WriteArgs struct {
	Obj    FH3
	Offset uint64
	Count  uint32
	Stable uint32
	Data   []byte
}

// XDR describes WRITE3args.
func (a *WriteArgs) XDR(c *xdr.Codec) {
	a.Obj.XDR(c)
	c.Uint64(&a.Offset)
	c.Uint32(&a.Count)
	if c.Decoding() && a.Count > PreferredIO {
		// The server advertises wtmax = PreferredIO in FSINFO; a count
		// beyond it is a protocol violation, rejected before the
		// payload is read.
		c.SetErr(vfs.ErrInval)
		return
	}
	c.Uint32(&a.Stable)
	c.Opaque(&a.Data, PreferredIO)
}

// WriteRes is WRITE3res.
type WriteRes struct {
	Status    Status
	Wcc       WccData
	Count     uint32
	Committed uint32
	Verf      [WriteVerfSize]byte
}

// XDR describes WRITE3res.
func (r *WriteRes) XDR(c *xdr.Codec) {
	xdr.Enum(c, &r.Status)
	r.Wcc.XDR(c)
	if r.Status == OK {
		c.Uint32(&r.Count)
		c.Uint32(&r.Committed)
		c.FixedOpaque(r.Verf[:])
	}
}

// CreateArgs is CREATE3args.
type CreateArgs struct {
	Where DirOpArgs
	Mode  uint32 // createmode3
	Attr  Sattr3
	Verf  [WriteVerfSize]byte // exclusive create verifier
}

// XDR describes CREATE3args.
func (a *CreateArgs) XDR(c *xdr.Codec) {
	a.Where.XDR(c)
	if c.Uint32(&a.Mode); a.Mode == CreateExclusive {
		c.FixedOpaque(a.Verf[:])
	} else {
		a.Attr.XDR(c)
	}
}

// CreateRes is CREATE3res, shared by MKDIR and SYMLINK.
type CreateRes struct {
	Status Status
	Obj    PostOpFH3
	Attr   PostOpAttr
	DirWcc WccData
}

// XDR describes CREATE3res.
func (r *CreateRes) XDR(c *xdr.Codec) {
	if xdr.Enum(c, &r.Status); r.Status == OK {
		r.Obj.XDR(c)
		r.Attr.XDR(c)
	}
	r.DirWcc.XDR(c)
}

// MkdirArgs is MKDIR3args.
type MkdirArgs struct {
	Where DirOpArgs
	Attr  Sattr3
}

// XDR describes MKDIR3args.
func (a *MkdirArgs) XDR(c *xdr.Codec) { a.Where.XDR(c); a.Attr.XDR(c) }

// SymlinkArgs is SYMLINK3args.
type SymlinkArgs struct {
	Where  DirOpArgs
	Attr   Sattr3
	Target string
}

// XDR describes SYMLINK3args.
func (a *SymlinkArgs) XDR(c *xdr.Codec) {
	a.Where.XDR(c)
	a.Attr.XDR(c)
	c.String(&a.Target)
}

// RemoveArgs is REMOVE3args / RMDIR3args.
type RemoveArgs struct{ Obj DirOpArgs }

// XDR describes REMOVE3args.
func (a *RemoveArgs) XDR(c *xdr.Codec) { a.Obj.XDR(c) }

// RenameArgs is RENAME3args.
type RenameArgs struct {
	From DirOpArgs
	To   DirOpArgs
}

// XDR describes RENAME3args.
func (a *RenameArgs) XDR(c *xdr.Codec) { a.From.XDR(c); a.To.XDR(c) }

// RenameRes is RENAME3res.
type RenameRes struct {
	Status  Status
	FromWcc WccData
	ToWcc   WccData
}

// XDR describes RENAME3res.
func (r *RenameRes) XDR(c *xdr.Codec) {
	xdr.Enum(c, &r.Status)
	r.FromWcc.XDR(c)
	r.ToWcc.XDR(c)
}

// LinkArgs is LINK3args.
type LinkArgs struct {
	Obj  FH3
	Link DirOpArgs
}

// XDR describes LINK3args.
func (a *LinkArgs) XDR(c *xdr.Codec) { a.Obj.XDR(c); a.Link.XDR(c) }

// LinkRes is LINK3res.
type LinkRes struct {
	Status  Status
	Attr    PostOpAttr
	LinkWcc WccData
}

// XDR describes LINK3res.
func (r *LinkRes) XDR(c *xdr.Codec) {
	xdr.Enum(c, &r.Status)
	r.Attr.XDR(c)
	r.LinkWcc.XDR(c)
}

// ReadDirArgs is READDIR3args.
type ReadDirArgs struct {
	Dir        FH3
	Cookie     uint64
	CookieVerf [WriteVerfSize]byte
	Count      uint32
}

// XDR describes READDIR3args.
func (a *ReadDirArgs) XDR(c *xdr.Codec) {
	a.Dir.XDR(c)
	c.Uint64(&a.Cookie)
	c.FixedOpaque(a.CookieVerf[:])
	c.Uint32(&a.Count)
}

// DirEntry3 is one READDIR entry.
type DirEntry3 struct {
	FileID uint64
	Name   string
	Cookie uint64
}

// XDR describes entry3.
func (e *DirEntry3) XDR(c *xdr.Codec) {
	c.Uint64(&e.FileID)
	c.String(&e.Name)
	c.Uint64(&e.Cookie)
}

// ReadDirRes is READDIR3res.
type ReadDirRes struct {
	Status     Status
	DirAttr    PostOpAttr
	CookieVerf [WriteVerfSize]byte
	Entries    []DirEntry3
	EOF        bool
}

// XDR describes READDIR3res.
func (r *ReadDirRes) XDR(c *xdr.Codec) {
	xdr.Enum(c, &r.Status)
	r.DirAttr.XDR(c)
	if r.Status != OK {
		return
	}
	c.FixedOpaque(r.CookieVerf[:])
	xdr.List(c, &r.Entries, (*DirEntry3).XDR)
	c.Bool(&r.EOF)
}

// ReadDirPlusArgs is READDIRPLUS3args.
type ReadDirPlusArgs struct {
	Dir        FH3
	Cookie     uint64
	CookieVerf [WriteVerfSize]byte
	DirCount   uint32
	MaxCount   uint32
}

// XDR describes READDIRPLUS3args.
func (a *ReadDirPlusArgs) XDR(c *xdr.Codec) {
	a.Dir.XDR(c)
	c.Uint64(&a.Cookie)
	c.FixedOpaque(a.CookieVerf[:])
	c.Uint32(&a.DirCount)
	c.Uint32(&a.MaxCount)
}

// DirEntryPlus is one READDIRPLUS entry.
type DirEntryPlus struct {
	FileID uint64
	Name   string
	Cookie uint64
	Attr   PostOpAttr
	FH     PostOpFH3
}

// XDR describes entryplus3.
func (e *DirEntryPlus) XDR(c *xdr.Codec) {
	c.Uint64(&e.FileID)
	c.String(&e.Name)
	c.Uint64(&e.Cookie)
	e.Attr.XDR(c)
	e.FH.XDR(c)
}

// ReadDirPlusRes is READDIRPLUS3res.
type ReadDirPlusRes struct {
	Status     Status
	DirAttr    PostOpAttr
	CookieVerf [WriteVerfSize]byte
	Entries    []DirEntryPlus
	EOF        bool
}

// XDR describes READDIRPLUS3res.
func (r *ReadDirPlusRes) XDR(c *xdr.Codec) {
	xdr.Enum(c, &r.Status)
	r.DirAttr.XDR(c)
	if r.Status != OK {
		return
	}
	c.FixedOpaque(r.CookieVerf[:])
	xdr.List(c, &r.Entries, (*DirEntryPlus).XDR)
	c.Bool(&r.EOF)
}

// FSStatArgs is FSSTAT3args (also FSINFO and PATHCONF args).
type FSStatArgs struct{ Obj FH3 }

// XDR describes FSSTAT3args.
func (a *FSStatArgs) XDR(c *xdr.Codec) { a.Obj.XDR(c) }

// FSStatRes is FSSTAT3res.
type FSStatRes struct {
	Status   Status
	Attr     PostOpAttr
	Tbytes   uint64
	Fbytes   uint64
	Abytes   uint64
	Tfiles   uint64
	Ffiles   uint64
	Afiles   uint64
	Invarsec uint32
}

// XDR describes FSSTAT3res.
func (r *FSStatRes) XDR(c *xdr.Codec) {
	xdr.Enum(c, &r.Status)
	r.Attr.XDR(c)
	if r.Status == OK {
		c.Uint64(&r.Tbytes)
		c.Uint64(&r.Fbytes)
		c.Uint64(&r.Abytes)
		c.Uint64(&r.Tfiles)
		c.Uint64(&r.Ffiles)
		c.Uint64(&r.Afiles)
		c.Uint32(&r.Invarsec)
	}
}

// FSInfo properties bits.
const (
	FSFLink        = 0x0001
	FSFSymlink     = 0x0002
	FSFHomogeneous = 0x0008
	FSFCanSetTime  = 0x0010
)

// FSInfoRes is FSINFO3res.
type FSInfoRes struct {
	Status      Status
	Attr        PostOpAttr
	RtMax       uint32
	RtPref      uint32
	RtMult      uint32
	WtMax       uint32
	WtPref      uint32
	WtMult      uint32
	DtPref      uint32
	MaxFileSize uint64
	TimeDelta   NFSTime
	Properties  uint32
}

// XDR describes FSINFO3res.
func (r *FSInfoRes) XDR(c *xdr.Codec) {
	xdr.Enum(c, &r.Status)
	r.Attr.XDR(c)
	if r.Status == OK {
		c.Uint32(&r.RtMax)
		c.Uint32(&r.RtPref)
		c.Uint32(&r.RtMult)
		c.Uint32(&r.WtMax)
		c.Uint32(&r.WtPref)
		c.Uint32(&r.WtMult)
		c.Uint32(&r.DtPref)
		c.Uint64(&r.MaxFileSize)
		r.TimeDelta.XDR(c)
		c.Uint32(&r.Properties)
	}
}

// PathConfRes is PATHCONF3res.
type PathConfRes struct {
	Status          Status
	Attr            PostOpAttr
	LinkMax         uint32
	NameMax         uint32
	NoTrunc         bool
	ChownRestricted bool
	CaseInsensitive bool
	CasePreserving  bool
}

// XDR describes PATHCONF3res.
func (r *PathConfRes) XDR(c *xdr.Codec) {
	xdr.Enum(c, &r.Status)
	r.Attr.XDR(c)
	if r.Status == OK {
		c.Uint32(&r.LinkMax)
		c.Uint32(&r.NameMax)
		c.Bool(&r.NoTrunc)
		c.Bool(&r.ChownRestricted)
		c.Bool(&r.CaseInsensitive)
		c.Bool(&r.CasePreserving)
	}
}

// CommitArgs is COMMIT3args.
type CommitArgs struct {
	Obj    FH3
	Offset uint64
	Count  uint32
}

// XDR describes COMMIT3args.
func (a *CommitArgs) XDR(c *xdr.Codec) {
	a.Obj.XDR(c)
	c.Uint64(&a.Offset)
	c.Uint32(&a.Count)
}

// CommitRes is COMMIT3res.
type CommitRes struct {
	Status Status
	Wcc    WccData
	Verf   [WriteVerfSize]byte
}

// XDR describes COMMIT3res.
func (r *CommitRes) XDR(c *xdr.Codec) {
	xdr.Enum(c, &r.Status)
	r.Wcc.XDR(c)
	if r.Status == OK {
		c.FixedOpaque(r.Verf[:])
	}
}

// The messages of the procedure table travel on their own, so each one
// is an xdr.Marshaler and xdr.Unmarshaler that runs its description.

func (a *GetAttrArgs) EncodeXDR(e *xdr.Encoder)     { a.XDR(e.Codec()) }
func (a *GetAttrArgs) DecodeXDR(d *xdr.Decoder)     { a.XDR(d.Codec()) }
func (r *GetAttrRes) EncodeXDR(e *xdr.Encoder)      { r.XDR(e.Codec()) }
func (r *GetAttrRes) DecodeXDR(d *xdr.Decoder)      { r.XDR(d.Codec()) }
func (a *SetAttrArgs) EncodeXDR(e *xdr.Encoder)     { a.XDR(e.Codec()) }
func (a *SetAttrArgs) DecodeXDR(d *xdr.Decoder)     { a.XDR(d.Codec()) }
func (r *WccRes) EncodeXDR(e *xdr.Encoder)          { r.XDR(e.Codec()) }
func (r *WccRes) DecodeXDR(d *xdr.Decoder)          { r.XDR(d.Codec()) }
func (a *LookupArgs) EncodeXDR(e *xdr.Encoder)      { a.XDR(e.Codec()) }
func (a *LookupArgs) DecodeXDR(d *xdr.Decoder)      { a.XDR(d.Codec()) }
func (r *LookupRes) EncodeXDR(e *xdr.Encoder)       { r.XDR(e.Codec()) }
func (r *LookupRes) DecodeXDR(d *xdr.Decoder)       { r.XDR(d.Codec()) }
func (a *AccessArgs) EncodeXDR(e *xdr.Encoder)      { a.XDR(e.Codec()) }
func (a *AccessArgs) DecodeXDR(d *xdr.Decoder)      { a.XDR(d.Codec()) }
func (r *AccessRes) EncodeXDR(e *xdr.Encoder)       { r.XDR(e.Codec()) }
func (r *AccessRes) DecodeXDR(d *xdr.Decoder)       { r.XDR(d.Codec()) }
func (a *ReadLinkArgs) EncodeXDR(e *xdr.Encoder)    { a.XDR(e.Codec()) }
func (a *ReadLinkArgs) DecodeXDR(d *xdr.Decoder)    { a.XDR(d.Codec()) }
func (r *ReadLinkRes) EncodeXDR(e *xdr.Encoder)     { r.XDR(e.Codec()) }
func (r *ReadLinkRes) DecodeXDR(d *xdr.Decoder)     { r.XDR(d.Codec()) }
func (a *ReadArgs) EncodeXDR(e *xdr.Encoder)        { a.XDR(e.Codec()) }
func (a *ReadArgs) DecodeXDR(d *xdr.Decoder)        { a.XDR(d.Codec()) }
func (r *ReadRes) EncodeXDR(e *xdr.Encoder)         { r.XDR(e.Codec()) }
func (r *ReadRes) DecodeXDR(d *xdr.Decoder)         { r.XDR(d.Codec()) }
func (a *WriteArgs) EncodeXDR(e *xdr.Encoder)       { a.XDR(e.Codec()) }
func (a *WriteArgs) DecodeXDR(d *xdr.Decoder)       { a.XDR(d.Codec()) }
func (r *WriteRes) EncodeXDR(e *xdr.Encoder)        { r.XDR(e.Codec()) }
func (r *WriteRes) DecodeXDR(d *xdr.Decoder)        { r.XDR(d.Codec()) }
func (a *CreateArgs) EncodeXDR(e *xdr.Encoder)      { a.XDR(e.Codec()) }
func (a *CreateArgs) DecodeXDR(d *xdr.Decoder)      { a.XDR(d.Codec()) }
func (r *CreateRes) EncodeXDR(e *xdr.Encoder)       { r.XDR(e.Codec()) }
func (r *CreateRes) DecodeXDR(d *xdr.Decoder)       { r.XDR(d.Codec()) }
func (a *MkdirArgs) EncodeXDR(e *xdr.Encoder)       { a.XDR(e.Codec()) }
func (a *MkdirArgs) DecodeXDR(d *xdr.Decoder)       { a.XDR(d.Codec()) }
func (a *SymlinkArgs) EncodeXDR(e *xdr.Encoder)     { a.XDR(e.Codec()) }
func (a *SymlinkArgs) DecodeXDR(d *xdr.Decoder)     { a.XDR(d.Codec()) }
func (a *RemoveArgs) EncodeXDR(e *xdr.Encoder)      { a.XDR(e.Codec()) }
func (a *RemoveArgs) DecodeXDR(d *xdr.Decoder)      { a.XDR(d.Codec()) }
func (a *RenameArgs) EncodeXDR(e *xdr.Encoder)      { a.XDR(e.Codec()) }
func (a *RenameArgs) DecodeXDR(d *xdr.Decoder)      { a.XDR(d.Codec()) }
func (r *RenameRes) EncodeXDR(e *xdr.Encoder)       { r.XDR(e.Codec()) }
func (r *RenameRes) DecodeXDR(d *xdr.Decoder)       { r.XDR(d.Codec()) }
func (a *LinkArgs) EncodeXDR(e *xdr.Encoder)        { a.XDR(e.Codec()) }
func (a *LinkArgs) DecodeXDR(d *xdr.Decoder)        { a.XDR(d.Codec()) }
func (r *LinkRes) EncodeXDR(e *xdr.Encoder)         { r.XDR(e.Codec()) }
func (r *LinkRes) DecodeXDR(d *xdr.Decoder)         { r.XDR(d.Codec()) }
func (a *ReadDirArgs) EncodeXDR(e *xdr.Encoder)     { a.XDR(e.Codec()) }
func (a *ReadDirArgs) DecodeXDR(d *xdr.Decoder)     { a.XDR(d.Codec()) }
func (r *ReadDirRes) EncodeXDR(e *xdr.Encoder)      { r.XDR(e.Codec()) }
func (r *ReadDirRes) DecodeXDR(d *xdr.Decoder)      { r.XDR(d.Codec()) }
func (a *ReadDirPlusArgs) EncodeXDR(e *xdr.Encoder) { a.XDR(e.Codec()) }
func (a *ReadDirPlusArgs) DecodeXDR(d *xdr.Decoder) { a.XDR(d.Codec()) }
func (r *ReadDirPlusRes) EncodeXDR(e *xdr.Encoder)  { r.XDR(e.Codec()) }
func (r *ReadDirPlusRes) DecodeXDR(d *xdr.Decoder)  { r.XDR(d.Codec()) }
func (a *FSStatArgs) EncodeXDR(e *xdr.Encoder)      { a.XDR(e.Codec()) }
func (a *FSStatArgs) DecodeXDR(d *xdr.Decoder)      { a.XDR(d.Codec()) }
func (r *FSStatRes) EncodeXDR(e *xdr.Encoder)       { r.XDR(e.Codec()) }
func (r *FSStatRes) DecodeXDR(d *xdr.Decoder)       { r.XDR(d.Codec()) }
func (r *FSInfoRes) EncodeXDR(e *xdr.Encoder)       { r.XDR(e.Codec()) }
func (r *FSInfoRes) DecodeXDR(d *xdr.Decoder)       { r.XDR(d.Codec()) }
func (r *PathConfRes) EncodeXDR(e *xdr.Encoder)     { r.XDR(e.Codec()) }
func (r *PathConfRes) DecodeXDR(d *xdr.Decoder)     { r.XDR(d.Codec()) }
func (a *CommitArgs) EncodeXDR(e *xdr.Encoder)      { a.XDR(e.Codec()) }
func (a *CommitArgs) DecodeXDR(d *xdr.Decoder)      { a.XDR(d.Codec()) }
func (r *CommitRes) EncodeXDR(e *xdr.Encoder)       { r.XDR(e.Codec()) }
func (r *CommitRes) DecodeXDR(d *xdr.Decoder)       { r.XDR(d.Codec()) }

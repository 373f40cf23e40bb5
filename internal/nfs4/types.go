// Package nfs4 implements a simplified NFS version 4 protocol as the
// paper's nfs-v4 baseline (§6.1). The defining structural feature of
// v4 is preserved — COMPOUND procedures that evaluate a sequence of
// operations against a current/saved filehandle pair in one round
// trip — while the parts the paper's workloads never exercise are
// omitted: delegation (the paper notes it "is not yet widely
// supported"), byte-range locking, and the full bitmap attribute
// encoding (a fixed attribute structure is returned instead).
//
// The paper reports that nfs-v4 showed no performance advantage over
// nfs-v3 for its workloads; this implementation lets the benchmarks
// re-test that observation.
package nfs4

import (
	"repro/internal/nfs3"
	"repro/internal/xdr"
)

// Program and version registered with ONC RPC. NFSv4 shares the NFS
// program number with version 4.
const (
	Program = 100003
	Version = 4
)

// ProcCompound is the only non-NULL procedure in NFSv4.
const ProcCompound = 1

// Status mirrors nfsstat (shared numbering with v3/vfs).
type Status = nfs3.Status

// Operation codes (values follow RFC 3530 where the operation exists
// there).
const (
	OpAccess    = 3
	OpClose     = 4
	OpCommit    = 5
	OpCreate    = 6 // non-regular files (directories, symlinks)
	OpGetAttr   = 9
	OpGetFH     = 10
	OpLink      = 11
	OpLookup    = 15
	OpLookupP   = 16
	OpOpen      = 18 // regular files, with optional create
	OpPutFH     = 22
	OpPutRootFH = 24
	OpRead      = 25
	OpReadDir   = 26
	OpReadLink  = 27
	OpRemove    = 28
	OpRename    = 29
	OpRestoreFH = 31
	OpSaveFH    = 32
	OpSetAttr   = 34
	OpWrite     = 38
)

// Op is one operation in a COMPOUND request.
type Op struct {
	Code uint32

	// Operand fields; which are meaningful depends on Code.
	FH     nfs3.FH3 // PUTFH
	Name   string   // LOOKUP, CREATE, OPEN, REMOVE, RENAME (old), LINK
	Name2  string   // RENAME (new)
	Offset uint64   // READ, WRITE, COMMIT
	Count  uint32   // READ, READDIR
	Data   []byte   // WRITE
	Stable uint32   // WRITE
	Attr   nfs3.Sattr3
	Create bool   // OPEN: create if absent
	Excl   bool   // OPEN: exclusive create
	Dir    bool   // CREATE: directory
	Target string // CREATE: symlink target
	Access uint32 // ACCESS mask
	Cookie uint64 // READDIR
}

// XDR describes one operation: its code, then the operands of that
// code.
func (o *Op) XDR(c *xdr.Codec) {
	switch c.Uint32(&o.Code); o.Code {
	case OpPutFH:
		o.FH.XDR(c)
	case OpLookup, OpRemove, OpLink:
		c.String(&o.Name)
	case OpOpen:
		c.String(&o.Name)
		c.Bool(&o.Create)
		c.Bool(&o.Excl)
		o.Attr.XDR(c)
	case OpCreate:
		c.String(&o.Name)
		c.Bool(&o.Dir)
		c.String(&o.Target)
		o.Attr.XDR(c)
	case OpRead, OpCommit:
		c.Uint64(&o.Offset)
		c.Uint32(&o.Count)
	case OpWrite:
		c.Uint64(&o.Offset)
		c.Uint32(&o.Stable)
		c.Opaque(&o.Data, xdr.MaxElementSize)
	case OpSetAttr:
		o.Attr.XDR(c)
	case OpRename:
		c.String(&o.Name)
		c.String(&o.Name2)
	case OpAccess:
		c.Uint32(&o.Access)
	case OpReadDir:
		c.Uint64(&o.Cookie)
		c.Uint32(&o.Count)
	}
}

// OpResult is the result of one operation.
type OpResult struct {
	Code   uint32
	Status Status

	FH      nfs3.FH3    // GETFH
	Attr    nfs3.Fattr3 // GETATTR, and attached to OPEN/LOOKUP results
	HasAttr bool
	Data    []byte // READ
	EOF     bool   // READ, READDIR
	Count   uint32 // WRITE
	Access  uint32 // ACCESS
	Target  string // READLINK
	Entries []nfs3.DirEntryPlus
}

// XDR describes one operation's result: code and status, then on
// success the results of that code.
func (r *OpResult) XDR(c *xdr.Codec) {
	c.Uint32(&r.Code)
	if xdr.Enum(c, &r.Status); r.Status != nfs3.OK {
		return
	}
	switch r.Code {
	case OpGetFH:
		r.FH.XDR(c)
	case OpGetAttr, OpLookup, OpOpen, OpCreate, OpSetAttr:
		if c.Bool(&r.HasAttr); r.HasAttr {
			r.Attr.XDR(c)
		}
	case OpRead:
		c.Bool(&r.EOF)
		c.Opaque(&r.Data, xdr.MaxElementSize)
	case OpWrite:
		c.Uint32(&r.Count)
	case OpAccess:
		c.Uint32(&r.Access)
	case OpReadLink:
		c.String(&r.Target)
	case OpReadDir:
		c.Bool(&r.EOF)
		xdr.Array(c, &r.Entries, maxEntries, (*nfs3.DirEntryPlus).XDR)
	}
}

// CompoundArgs is a COMPOUND request.
type CompoundArgs struct {
	Tag string
	Ops []Op
}

// XDR describes COMPOUND4args.
func (a *CompoundArgs) XDR(c *xdr.Codec) {
	c.String(&a.Tag)
	xdr.Array(c, &a.Ops, maxOps, (*Op).XDR)
}

// CompoundRes is a COMPOUND reply: results for each executed
// operation, stopping at the first failure.
type CompoundRes struct {
	Status  Status
	Tag     string
	Results []OpResult
}

// XDR describes COMPOUND4res.
func (r *CompoundRes) XDR(c *xdr.Codec) {
	xdr.Enum(c, &r.Status)
	c.String(&r.Tag)
	xdr.Array(c, &r.Results, maxOps, (*OpResult).XDR)
}

// Bounds on the counted arrays of a COMPOUND.
const (
	maxOps     = 1024
	maxEntries = 100000
)

// CompoundArgs and CompoundRes travel on their own, so each is an
// xdr.Marshaler and xdr.Unmarshaler that runs its description.

func (a *CompoundArgs) EncodeXDR(e *xdr.Encoder) { a.XDR(e.Codec()) }
func (a *CompoundArgs) DecodeXDR(d *xdr.Decoder) { a.XDR(d.Codec()) }
func (r *CompoundRes) EncodeXDR(e *xdr.Encoder)  { r.XDR(e.Codec()) }
func (r *CompoundRes) DecodeXDR(d *xdr.Decoder)  { r.XDR(d.Codec()) }

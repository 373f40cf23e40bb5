package nfs3

import (
	"context"
	"time"

	"repro/internal/metrics"
	"repro/internal/oncrpc"
	"repro/internal/xdr"
)

// Message is an NFSv3 argument or result structure. A relay moves each
// one in both directions: it decodes the client's arguments and encodes
// them again upstream, and the reverse for the result.
type Message interface {
	xdr.Marshaler
	xdr.Unmarshaler
}

func msg[T any, P interface {
	*T
	Message
}]() Message {
	return P(new(T))
}

// procs is the NFSv3 procedure table: for each procedure number its
// RFC 1813 name and constructors for zero values of its wire types.
// NULL carries no body. MKNOD has no argument type: device nodes have
// no place in a grid file system, so every daemon here refuses it
// without reading the arguments.
var procs = [...]struct {
	name            string
	newArgs, newRes func() Message
}{
	ProcNull:        {name: "NULL"},
	ProcGetAttr:     {"GETATTR", msg[GetAttrArgs], msg[GetAttrRes]},
	ProcSetAttr:     {"SETATTR", msg[SetAttrArgs], msg[WccRes]},
	ProcLookup:      {"LOOKUP", msg[LookupArgs], msg[LookupRes]},
	ProcAccess:      {"ACCESS", msg[AccessArgs], msg[AccessRes]},
	ProcReadLink:    {"READLINK", msg[ReadLinkArgs], msg[ReadLinkRes]},
	ProcRead:        {"READ", msg[ReadArgs], msg[ReadRes]},
	ProcWrite:       {"WRITE", msg[WriteArgs], msg[WriteRes]},
	ProcCreate:      {"CREATE", msg[CreateArgs], msg[CreateRes]},
	ProcMkdir:       {"MKDIR", msg[MkdirArgs], msg[CreateRes]},
	ProcSymlink:     {"SYMLINK", msg[SymlinkArgs], msg[CreateRes]},
	ProcMknod:       {name: "MKNOD", newRes: msg[CreateRes]},
	ProcRemove:      {"REMOVE", msg[RemoveArgs], msg[WccRes]},
	ProcRmdir:       {"RMDIR", msg[RemoveArgs], msg[WccRes]},
	ProcRename:      {"RENAME", msg[RenameArgs], msg[RenameRes]},
	ProcLink:        {"LINK", msg[LinkArgs], msg[LinkRes]},
	ProcReadDir:     {"READDIR", msg[ReadDirArgs], msg[ReadDirRes]},
	ProcReadDirPlus: {"READDIRPLUS", msg[ReadDirPlusArgs], msg[ReadDirPlusRes]},
	ProcFSStat:      {"FSSTAT", msg[FSStatArgs], msg[FSStatRes]},
	ProcFSInfo:      {"FSINFO", msg[FSStatArgs], msg[FSInfoRes]},
	ProcPathConf:    {"PATHCONF", msg[FSStatArgs], msg[PathConfRes]},
	ProcCommit:      {"COMMIT", msg[CommitArgs], msg[CommitRes]},
}

// ProcName returns the RFC 1813 name of an NFSv3 procedure number, or
// "" for numbers outside the protocol.
func ProcName(proc uint32) string {
	if proc >= uint32(len(procs)) {
		return ""
	}
	return procs[proc].name
}

// Upstream is the next hop of a relay. It is an interface rather than
// a function value so that sgfs-vet, which resolves interface dispatch
// but not stored function references, still sees every daemon's
// upstream call path from the relay's handlers.
type Upstream interface {
	// UpCall issues one NFSv3 RPC upstream. call is the client call
	// being served — the server-side daemons take the session's mapped
	// credential from it — or nil when the daemon acts on its own
	// behalf.
	UpCall(ctx context.Context, call *oncrpc.Call, proc uint32, args xdr.Marshaler, res xdr.Unmarshaler) error
}

// Relay is the NFSv3 forwarding path shared by the user-level daemons
// that sit between an unmodified NFS client and an unmodified NFS
// server (both SGFS proxies and both SFS daemons). It serves all 21
// procedures: a procedure passes through to Up unless the daemon
// intercepts it. Meter, when non-nil, accumulates the daemon's own
// processing time: every handler's wall time is charged to it and every
// wait on Up is credited back.
type Relay struct {
	Up    Upstream
	Meter *metrics.Meter
}

// Register installs the NFSv3 program on rpc. intercepts holds the
// handlers of the procedures the daemon does more than forward.
func (r *Relay) Register(rpc *oncrpc.Server, intercepts map[uint32]oncrpc.Handler) {
	h := make(map[uint32]oncrpc.Handler, len(procs))
	for proc := uint32(ProcGetAttr); proc < uint32(len(procs)); proc++ {
		fn := intercepts[proc]
		if fn == nil {
			fn = r.passThrough
			if procs[proc].newArgs == nil {
				fn = mknod
			}
		}
		h[proc] = r.metered(fn)
	}
	rpc.Register(Program, Version, h)
}

func (r *Relay) metered(h oncrpc.Handler) oncrpc.Handler {
	if r.Meter == nil {
		return h
	}
	return func(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
		defer r.Charge(time.Now())
		return h(ctx, call)
	}
}

// passThrough handles any procedure by decoding its arguments and
// forwarding them.
func (r *Relay) passThrough(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
	p := &procs[call.Proc]
	args := p.newArgs()
	if call.DecodeArgs(args) != nil {
		return nil, oncrpc.GarbageArgs
	}
	return r.Forward(ctx, call, args, p.newRes())
}

// Forward sends call's procedure upstream with already-decoded args
// and returns res as the reply, so an intercept can vet the arguments
// first and inspect or edit the result afterwards.
func (r *Relay) Forward(ctx context.Context, call *oncrpc.Call, args xdr.Marshaler, res Message) (xdr.Marshaler, oncrpc.AcceptStat) {
	if r.Call(ctx, call, call.Proc, args, res) != nil {
		return nil, oncrpc.SystemErr
	}
	return res, oncrpc.Success
}

// Call issues one upstream RPC and credits the wait back to the meter,
// so metered time approximates local processing (the paper's proxy
// CPU, Figures 5/6) rather than wall-clock.
func (r *Relay) Call(ctx context.Context, call *oncrpc.Call, proc uint32, args xdr.Marshaler, res xdr.Unmarshaler) error {
	defer r.Credit(time.Now())
	return r.Up.UpCall(ctx, call, proc, args, res)
}

// Charge adds the time since start to the meter. Register brackets
// every handler with it; background work no handler span covers (a
// prefetch, a flushed block, an attribute sweep) brackets itself, or
// the waits Call credits back would drive the meter negative.
func (r *Relay) Charge(start time.Time) {
	if r.Meter != nil {
		r.Meter.Add(time.Since(start))
	}
}

// Credit takes the time since start, spent waiting on the upstream,
// back off the meter. Call does this per RPC; a concurrent gather
// credits its wall time once instead.
func (r *Relay) Credit(start time.Time) {
	if r.Meter != nil {
		r.Meter.Add(-time.Since(start))
	}
}

// Package oncrpc implements the ONC Remote Procedure Call protocol,
// version 2 (RFC 5531), over connection-oriented transports with
// record marking (RFC 5531 §11).
//
// The package supplies the wire message formats (call, reply, opaque
// authentication with AUTH_NONE and AUTH_SYS flavors), a concurrent
// client that matches replies to outstanding calls by transaction ID,
// and a multithreaded server that dispatches registered program /
// version / procedure handlers. It is the substrate beneath the NFS,
// MOUNT and SGFS proxy protocols in this repository, mirroring the
// role TI-RPC plays in the paper's prototype.
package oncrpc

import (
	"errors"
	"fmt"

	"repro/internal/xdr"
)

// RPC protocol version implemented by this package.
const RPCVersion = 2

// Message types.
const (
	msgCall  = 0
	msgReply = 1
)

// Reply status.
const (
	msgAccepted = 0
	msgDenied   = 1
)

// AcceptStat describes the outcome of an accepted call (RFC 5531 §9).
type AcceptStat uint32

// Accept status values.
const (
	Success      AcceptStat = 0 // RPC executed successfully
	ProgUnavail  AcceptStat = 1 // remote hasn't exported the program
	ProgMismatch AcceptStat = 2 // remote can't support version number
	ProcUnavail  AcceptStat = 3 // program can't support procedure
	GarbageArgs  AcceptStat = 4 // procedure can't decode params
	SystemErr    AcceptStat = 5 // server-side memory or internal error
)

func (s AcceptStat) String() string {
	switch s {
	case Success:
		return "SUCCESS"
	case ProgUnavail:
		return "PROG_UNAVAIL"
	case ProgMismatch:
		return "PROG_MISMATCH"
	case ProcUnavail:
		return "PROC_UNAVAIL"
	case GarbageArgs:
		return "GARBAGE_ARGS"
	case SystemErr:
		return "SYSTEM_ERR"
	default:
		return fmt.Sprintf("AcceptStat(%d)", uint32(s))
	}
}

// RejectStat describes why a call was rejected.
type RejectStat uint32

// Reject status values.
const (
	RPCMismatch RejectStat = 0 // RPC version number != 2
	AuthError   RejectStat = 1 // authentication failed
)

// AuthStat describes why authentication failed (RFC 5531 §9).
type AuthStat uint32

// Authentication status values.
const (
	AuthOK           AuthStat = 0
	AuthBadCred      AuthStat = 1 // bad credential (seal broken)
	AuthRejectedCred AuthStat = 2 // client must begin new session
	AuthBadVerf      AuthStat = 3
	AuthRejectedVerf AuthStat = 4
	AuthTooWeak      AuthStat = 5 // rejected for security reasons
	AuthInvalidResp  AuthStat = 6
	AuthFailed       AuthStat = 7 // reason unknown
)

// Authentication flavors.
const (
	AuthFlavorNone = 0
	AuthFlavorSys  = 1
	// AuthSession is the call verifier of a ReconnectClient: a session
	// id and a flags word (sessionVerf). A Server keeps a reply cache
	// for each session (see replycache.go), so a call re-sent on a new
	// connection runs once. The number is from RFC 5531's private-use
	// range.
	AuthSession = 400045
)

// sessionVerf is the body of an AuthSession verifier.
type sessionVerf struct {
	ID    [16]byte
	Flags uint32
}

const (
	sessionVerfLen = 20 // the XDR length of a sessionVerf
	// sessionBind flags a call sent on a later connection than the one
	// its session began on: the server must hold the session already,
	// and refuses the call with AUTH_REJECTEDVERF if it does not.
	sessionBind = 1
)

// Maximum size of an opaque auth body (RFC 5531 §8.2).
const maxAuthBody = 400

// OpaqueAuth is the discriminated authentication blob carried in every
// call and reply.
type OpaqueAuth struct {
	Flavor uint32
	Body   []byte
}

// XDR describes opaque_auth: a flavor and a body of at most 400 bytes.
func (a *OpaqueAuth) XDR(c *xdr.Codec) {
	c.Uint32(&a.Flavor)
	c.Opaque(&a.Body, maxAuthBody)
}

// AuthSys is the AUTH_SYS ("UNIX") credential body: the caller's
// local identity as seen by its own operating system. In SGFS these
// identities never cross trust boundaries directly — the server-side
// proxy remaps them according to the gridmap (see internal/idmap).
type AuthSys struct {
	Stamp       uint32
	MachineName string
	UID         uint32
	GID         uint32
	GIDs        []uint32
}

// XDR describes authsys_parms; RFC 5531 allows at most 16
// supplementary groups.
func (a *AuthSys) XDR(c *xdr.Codec) {
	c.Uint32(&a.Stamp)
	c.String(&a.MachineName)
	c.Uint32(&a.UID)
	c.Uint32(&a.GID)
	xdr.Array(c, &a.GIDs, 16, func(g *uint32, c *xdr.Codec) { c.Uint32(g) })
}

// EncodeXDR implements xdr.Marshaler.
func (a *AuthSys) EncodeXDR(e *xdr.Encoder) { a.XDR(e.Codec()) }

// DecodeXDR implements xdr.Unmarshaler.
func (a *AuthSys) DecodeXDR(d *xdr.Decoder) { a.XDR(d.Codec()) }

// Auth builds the OpaqueAuth carrying this AUTH_SYS credential.
func (a *AuthSys) Auth() (OpaqueAuth, error) {
	b, err := xdr.Marshal(a)
	if err != nil {
		return OpaqueAuth{}, err
	}
	return OpaqueAuth{Flavor: AuthFlavorSys, Body: b}, nil
}

// AuthNone is the empty credential.
var AuthNone = OpaqueAuth{Flavor: AuthFlavorNone}

// callHeader is the fixed prefix of an RPC call message. When
// Verf.Flavor is AuthSession the verifier's body is Session, fixed
// fields that decode without an allocation, and Verf.Body is unused.
type callHeader struct {
	XID     uint32
	Prog    uint32
	Vers    uint32
	Proc    uint32
	Cred    OpaqueAuth
	Verf    OpaqueAuth
	Session sessionVerf
}

// XDR describes the call header; decoding sets an error unless the
// message is a CALL of RPC version 2 (errRPCVersion for the version).
func (h *callHeader) XDR(c *xdr.Codec) {
	mtype, rpcvers := uint32(msgCall), uint32(RPCVersion)
	c.Uint32(&h.XID)
	if c.Uint32(&mtype); mtype != msgCall {
		c.SetErr(fmt.Errorf("oncrpc: expected CALL message, got type %d", mtype))
		return
	}
	if c.Uint32(&rpcvers); rpcvers != RPCVersion {
		c.SetErr(errRPCVersion)
		return
	}
	c.Uint32(&h.Prog)
	c.Uint32(&h.Vers)
	c.Uint32(&h.Proc)
	h.Cred.XDR(c)
	if c.Uint32(&h.Verf.Flavor); h.Verf.Flavor != AuthSession {
		c.Opaque(&h.Verf.Body, maxAuthBody)
		return
	}
	n := uint32(sessionVerfLen)
	if c.Uint32(&n); n != sessionVerfLen {
		c.SetErr(fmt.Errorf("oncrpc: session verifier of %d bytes", n))
		return
	}
	c.FixedOpaque(h.Session.ID[:])
	c.Uint32(&h.Session.Flags)
}

var errRPCVersion = errors.New("oncrpc: unsupported RPC version")

// RPCError is a non-SUCCESS outcome reported by the RPC layer itself
// (as opposed to an application-level status inside the result).
type RPCError struct {
	// Rejected is true when the server denied the call outright.
	Rejected bool
	// Reject holds the rejection reason when Rejected.
	Reject RejectStat
	// Auth holds the authentication failure detail for AuthError.
	Auth AuthStat
	// Accept holds the accepted-but-failed status otherwise.
	Accept AcceptStat
}

// Error implements error.
func (e *RPCError) Error() string {
	if e.Rejected {
		if e.Reject == AuthError {
			return fmt.Sprintf("oncrpc: call denied: AUTH_ERROR (stat %d)", e.Auth)
		}
		return "oncrpc: call denied: RPC_MISMATCH"
	}
	return "oncrpc: call failed: " + e.Accept.String()
}

// IsAuthError reports whether err is an RPC authentication rejection.
func IsAuthError(err error) bool {
	var re *RPCError
	return errors.As(err, &re) && re.Rejected && re.Reject == AuthError
}

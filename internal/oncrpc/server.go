package oncrpc

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/xdr"
)

// IsTemporaryAcceptError reports whether an Accept error is transient
// (timeout or kernel-reported temporary condition such as EMFILE or
// ECONNABORTED) and worth retrying after a backoff.
func IsTemporaryAcceptError(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	var te interface{ Temporary() bool }
	return errors.As(err, &te) && te.Temporary()
}

// Cred is the authenticated caller identity presented with a call, as
// seen by a handler. For AUTH_SYS credentials the parsed body is
// available in Sys.
type Cred struct {
	Flavor uint32
	Raw    []byte
	Sys    *AuthSys // non-nil iff Flavor == AuthFlavorSys and the body parsed
}

// Call is one in-flight request presented to a Handler. The Call is
// only valid for the duration of the handler invocation: the server
// recycles it (and the decoder behind DecodeArgs) once the handler
// returns, so handlers must copy out anything they need to retain.
type Call struct {
	Prog, Vers, Proc uint32
	Cred             Cred
	// Conn is the transport the call arrived on. SGFS's server-side
	// proxy asserts it to recover the authenticated peer identity from
	// a secure channel.
	Conn net.Conn
	args *xdr.Decoder
}

// DecodeArgs decodes the call arguments into v. It must be called at
// most once.
func (c *Call) DecodeArgs(v xdr.Unmarshaler) error {
	v.DecodeXDR(c.args)
	return c.args.Err()
}

// Handler processes one procedure call. On Success the returned
// Marshaler (which may be nil for void results) is encoded as the
// result body; any other status produces the corresponding RPC-level
// error reply and the Marshaler is ignored.
type Handler func(ctx context.Context, call *Call) (xdr.Marshaler, AcceptStat)

// AuthChecker vets a call's credential before dispatch. Returning a
// non-AuthOK status rejects the call with an AUTH_ERROR. The SGFS
// server-side proxy uses this hook to refuse NFS traffic from sessions
// whose channel identity failed gridmap authorization.
type AuthChecker func(call *Call) AuthStat

type progVers struct{ prog, vers uint32 }

// Server dispatches ONC RPC calls arriving on stream transports to
// registered handlers. Handlers run concurrently (one goroutine per
// in-flight call) unless Sequential is set; replies on a connection are
// serialized by an internal mutex.
type Server struct {
	mu       sync.RWMutex
	handlers map[progVers]map[uint32]Handler
	versions map[uint32][2]uint32 // prog -> [low, high]

	// Auth, when non-nil, vets every call before dispatch.
	Auth AuthChecker

	// Sequential forces calls on a connection to be handled one at a
	// time in arrival order. The paper's SGFS prototype uses blocking
	// RPC (§6.2.1); this switch lets benchmarks reproduce both the
	// blocking prototype and the multithreaded variant under
	// development.
	Sequential bool

	// ErrorLog, when non-nil, receives connection-level errors.
	ErrorLog *log.Logger

	// Handshake, when non-nil, takes over each connection Serve
	// accepts: it negotiates whatever the daemon runs beneath RPC (a
	// secure channel, session authorization), calls ServeConn on the
	// resulting transport, and returns when that session is over. Serve
	// tracks the accepted connection either way, so Close ends sessions
	// mid-handshake and established alike. Nil serves the accepted
	// connection as it is.
	Handshake func(raw net.Conn)

	lnMu      sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	closed    bool
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		handlers:  make(map[progVers]map[uint32]Handler),
		versions:  make(map[uint32][2]uint32),
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
}

// Register installs the procedure table for one program version.
// Procedure 0 (NULL) is answered automatically when absent.
func (s *Server) Register(prog, vers uint32, procs map[uint32]Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[progVers{prog, vers}] = procs
	lo, hi := vers, vers
	if r, ok := s.versions[prog]; ok {
		if r[0] < lo {
			lo = r[0]
		}
		if r[1] > hi {
			hi = r[1]
		}
	}
	s.versions[prog] = [2]uint32{lo, hi}
}

func (s *Server) logf(format string, args ...any) {
	if s.ErrorLog != nil {
		s.ErrorLog.Printf(format, args...)
	}
}

// Serve accepts connections from l until l is closed or the server is
// shut down. It always returns a non-nil error.
func (s *Server) Serve(l net.Listener) error {
	s.lnMu.Lock()
	if s.closed {
		s.lnMu.Unlock()
		l.Close()
		return errors.New("oncrpc: server closed")
	}
	s.listeners[l] = struct{}{}
	s.lnMu.Unlock()
	defer func() {
		s.lnMu.Lock()
		delete(s.listeners, l)
		s.lnMu.Unlock()
	}()
	var tempDelay time.Duration // how long to sleep on accept failure
	for {
		conn, err := l.Accept()
		if err != nil {
			// Temporary accept failures (EMFILE, ECONNABORTED, …) must
			// not tear the listener down: back off and retry, net/http
			// style, with a capped exponential delay.
			if IsTemporaryAcceptError(err) {
				if tempDelay == 0 {
					tempDelay = 5 * time.Millisecond
				} else {
					tempDelay *= 2
				}
				if max := 1 * time.Second; tempDelay > max {
					tempDelay = max
				}
				s.logf("oncrpc: accept error: %v; retrying in %v", err, tempDelay)
				time.Sleep(tempDelay)
				s.lnMu.Lock()
				closed := s.closed
				s.lnMu.Unlock()
				if closed {
					return errors.New("oncrpc: server closed")
				}
				continue
			}
			return err
		}
		tempDelay = 0
		s.lnMu.Lock()
		if s.closed {
			s.lnMu.Unlock()
			conn.Close()
			return errors.New("oncrpc: server closed")
		}
		s.conns[conn] = struct{}{}
		s.lnMu.Unlock()
		go func() {
			serve := s.Handshake
			if serve == nil {
				serve = s.ServeConn
			}
			serve(conn)
			conn.Close() // a failed handshake leaves it open
			s.lnMu.Lock()
			delete(s.conns, conn)
			s.lnMu.Unlock()
		}()
	}
}

// Close shuts down all listeners and open connections.
func (s *Server) Close() {
	s.lnMu.Lock()
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.lnMu.Unlock()
}

// ServeConn handles RPC traffic on a single established transport
// until it fails or is closed. It may be invoked directly for
// transports not produced by a listener (e.g. secure channels).
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	var writeMu sync.Mutex
	// Handlers observe connection teardown through ctx, so work for a
	// departed peer can stop instead of running to completion.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var hdr [4]byte // per-connection readRecord header scratch
	for {
		// Each iteration owns one pooled record buffer: released here on
		// the sequential and error paths, or by the dispatch goroutine
		// once the record is fully consumed (the decoder copies, the
		// reply is written).
		bp := recGet()
		rec, err := readRecord(conn, (*bp)[:0], &hdr)
		if err != nil {
			recPut(bp)
			return // EOF or transport failure; nothing to report to peer
		}
		*bp = rec
		if s.Sequential {
			s.dispatch(ctx, conn, &writeMu, rec)
			recPut(bp)
			continue
		}
		go func(bp *[]byte) {
			s.dispatch(ctx, conn, &writeMu, *bp)
			recPut(bp)
		}(bp)
	}
}

func (s *Server) dispatch(ctx context.Context, conn net.Conn, writeMu *sync.Mutex, rec []byte) {
	db := dispatchBufPool.Get().(*dispatchBufs)
	db.in.SetBytes(rec)
	db.dec.Reset(&db.in)
	d := &db.dec
	defer func() {
		db.in.SetBytes(nil)
		dispatchBufPool.Put(db)
	}()
	var hdr callHeader
	hdr.XDR(d.Codec())
	if err := d.Err(); err != nil {
		if errors.Is(err, errRPCVersion) {
			s.reply(conn, writeMu, hdr.XID, func(e *xdr.Encoder) {
				e.Uint32(msgDenied)
				e.Uint32(uint32(RPCMismatch))
				e.Uint32(RPCVersion)
				e.Uint32(RPCVersion)
			})
			return
		}
		s.logf("oncrpc: bad call header: %v", err)
		return
	}

	// The Call lives in the pooled dispatch state: handlers only use it
	// for the duration of the invocation (see the Call doc comment), so
	// no per-call allocation is needed.
	call := &db.call
	*call = Call{Prog: hdr.Prog, Vers: hdr.Vers, Proc: hdr.Proc, Conn: conn, args: d}
	call.Cred = Cred{Flavor: hdr.Cred.Flavor, Raw: hdr.Cred.Body}
	if hdr.Cred.Flavor == AuthFlavorSys {
		var sys AuthSys
		if err := xdr.Unmarshal(hdr.Cred.Body, &sys); err == nil {
			call.Cred.Sys = &sys
		} else {
			s.denyAuth(conn, writeMu, hdr.XID, AuthBadCred)
			return
		}
	}
	if s.Auth != nil {
		if stat := s.Auth(call); stat != AuthOK {
			s.denyAuth(conn, writeMu, hdr.XID, stat)
			return
		}
	}

	s.mu.RLock()
	procs, progOK := s.handlers[progVers{hdr.Prog, hdr.Vers}]
	vers := s.versions[hdr.Prog]
	s.mu.RUnlock()

	if !progOK {
		s.mu.RLock()
		_, progKnown := s.versions[hdr.Prog]
		s.mu.RUnlock()
		if progKnown {
			s.accepted(conn, writeMu, hdr.XID, ProgMismatch, func(e *xdr.Encoder) {
				e.Uint32(vers[0])
				e.Uint32(vers[1])
			})
		} else {
			s.accepted(conn, writeMu, hdr.XID, ProgUnavail, nil)
		}
		return
	}

	h, ok := procs[hdr.Proc]
	if !ok {
		if hdr.Proc == 0 { // NULL procedure: always succeeds
			s.accepted(conn, writeMu, hdr.XID, Success, nil)
			return
		}
		s.accepted(conn, writeMu, hdr.XID, ProcUnavail, nil)
		return
	}

	result, stat := h(ctx, call)
	if stat != Success {
		s.accepted(conn, writeMu, hdr.XID, stat, nil)
		return
	}
	s.acceptedResult(conn, writeMu, hdr.XID, result)
}

func (s *Server) denyAuth(conn net.Conn, writeMu *sync.Mutex, xid uint32, stat AuthStat) {
	s.reply(conn, writeMu, xid, func(e *xdr.Encoder) {
		e.Uint32(msgDenied)
		e.Uint32(uint32(AuthError))
		e.Uint32(uint32(stat))
	})
}

func (s *Server) accepted(conn net.Conn, writeMu *sync.Mutex, xid uint32, stat AcceptStat, body func(*xdr.Encoder)) {
	s.reply(conn, writeMu, xid, func(e *xdr.Encoder) {
		e.Uint32(msgAccepted)
		AuthNone.XDR(e.Codec()) // verifier
		e.Uint32(uint32(stat))
		if body != nil {
			body(e)
		}
	})
}

// acceptedResult writes an accepted Success reply carrying result (nil
// for void results). It is the hot path of dispatch: unlike accepted
// it takes the result value directly, so no per-reply closure is
// allocated. Cold replies (mismatches, denials) keep the closure form.
func (s *Server) acceptedResult(conn net.Conn, writeMu *sync.Mutex, xid uint32, result xdr.Marshaler) {
	rb := replyBufPool.Get().(*replyBufs)
	defer replyBufPool.Put(rb)
	newRecord(&rb.out)
	rb.enc.Reset(&rb.out)
	e := &rb.enc
	e.Uint32(xid)
	e.Uint32(msgReply)
	e.Uint32(msgAccepted)
	AuthNone.XDR(e.Codec()) // verifier
	e.Uint32(uint32(Success))
	if result != nil {
		result.EncodeXDR(e)
	}
	s.flushReply(conn, writeMu, rb)
}

func (s *Server) reply(conn net.Conn, writeMu *sync.Mutex, xid uint32, body func(*xdr.Encoder)) {
	rb := replyBufPool.Get().(*replyBufs)
	defer replyBufPool.Put(rb)
	newRecord(&rb.out)
	rb.enc.Reset(&rb.out)
	e := &rb.enc
	e.Uint32(xid)
	e.Uint32(msgReply)
	body(e)
	s.flushReply(conn, writeMu, rb)
}

// flushReply writes an encoded reply record to the connection,
// serialized by the connection's write mutex.
func (s *Server) flushReply(conn net.Conn, writeMu *sync.Mutex, rb *replyBufs) {
	if err := rb.enc.Err(); err != nil {
		s.logf("oncrpc: encode reply: %v", err)
		return
	}
	writeMu.Lock()
	err := writeRecord(conn, rb.out.Bytes())
	writeMu.Unlock()
	if err != nil {
		s.logf("oncrpc: write reply: %v", err)
		conn.Close()
	}
}

// Dial connects to addr over TCP and returns a client for prog/vers.
func Dial(network, addr string, prog, vers uint32) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("oncrpc: dial %s: %w", addr, err)
	}
	return NewClient(conn, prog, vers), nil
}

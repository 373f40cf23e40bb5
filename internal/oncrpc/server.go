package oncrpc

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
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
// registered handlers. Handlers run concurrently (on per-connection
// workers, one per in-flight call; see ServeConn) unless Sequential is
// set; replies on a connection are serialized by an internal mutex.
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

	replies replyCache

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
//
// Unless the server is Sequential, calls run on per-connection
// workers: each record goes to a worker that has finished its call,
// and a goroutine is started only when none has. A worker whose stack
// has grown for one call keeps it for the next, so a dispatched call
// does not pay for regrowing a fresh goroutine's stack. Every worker
// exits when the connection ends.
func (s *Server) ServeConn(conn net.Conn) {
	// Handlers observe connection teardown through ctx, so work for a
	// departed peer can stop instead of running to completion; session
	// calls run under detached, which does not end (see replycache.go).
	ctx, cancel := context.WithCancel(context.Background())
	sc := &serverConn{s: s, conn: conn, detached: context.WithoutCancel(ctx)}
	defer sc.end(cancel)
	br := newRecordReader(conn)
	for {
		// Each iteration owns one pooled record buffer: released here on
		// the sequential and error paths, or by the worker once the call
		// is decoded and handled (the decoder copies what it returns).
		bp := recGet()
		rec, err := readRecord(br, (*bp)[:0])
		if err != nil {
			recPut(bp)
			return // EOF or transport failure; nothing to report to peer
		}
		*bp = rec
		if s.Sequential {
			var ref slotRef
			reply := s.dispatch(ctx, sc, rec, &ref)
			recPut(bp)
			sc.send(reply, ref)
			continue
		}
		if mail := sc.idleWorker(); mail != nil {
			mail <- bp
		} else {
			sc.workers.Add(1)
			go sc.work(ctx, bp)
		}
	}
}

// serverConn is one transport that ServeConn serves, with the workers
// that run its calls.
type serverConn struct {
	s        *Server
	conn     net.Conn
	detached context.Context // the context of session calls
	writeMu  sync.Mutex      // keeps each reply whole on the transport
	workers  sync.WaitGroup
	sess     atomic.Pointer[replySession] // the session the peer shows

	mu     sync.Mutex
	idle   []chan *[]byte // mailboxes of the workers waiting for a record
	closed bool           // the transport has ended: workers exit
}

// idleWorker takes the mailbox of the worker that finished its call
// last, or returns nil when every worker is busy. The mailbox holds
// one record, so handing one over never blocks the read loop.
func (sc *serverConn) idleWorker() chan<- *[]byte {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	n := len(sc.idle)
	if n == 0 {
		return nil
	}
	mail := sc.idle[n-1]
	sc.idle = sc.idle[:n-1]
	return mail
}

// work runs the call in bp and then, until the connection ends, the
// calls the read loop hands it. It joins the idle list before writing
// a call's reply: the reply lets the peer send its next call, and that
// call should find this worker rather than start another.
func (sc *serverConn) work(ctx context.Context, bp *[]byte) {
	mail := make(chan *[]byte, 1)
	defer sc.workers.Done()
	for {
		var ref slotRef
		reply := sc.s.dispatch(ctx, sc, *bp, &ref)
		recPut(bp)
		sc.mu.Lock()
		closed := sc.closed
		if !closed {
			sc.idle = append(sc.idle, mail)
		}
		sc.mu.Unlock()
		sc.send(reply, ref)
		if closed {
			return
		}
		var ok bool
		if bp, ok = <-mail; !ok {
			return
		}
	}
}

// end runs when the connection's read loop stops: it cancels the
// calls' context, releases the idle workers and closes the transport,
// then waits for the busy workers to answer their calls, so no handler
// outlives ServeConn. Last, the connection stops counting as a live
// one of its session.
func (sc *serverConn) end(cancel context.CancelFunc) {
	cancel()
	sc.mu.Lock()
	sc.closed = true
	for _, mail := range sc.idle {
		close(mail)
	}
	sc.idle = nil
	sc.mu.Unlock()
	sc.conn.Close()
	sc.workers.Wait()
	if sess := sc.sess.Load(); sess != nil {
		sc.s.replies.detach(sess)
	}
}

// dispatch decodes and runs one call. It returns the reply to send
// (nil for none) and, for a session call that ran, sets *ref to the
// slot that is to keep the reply once it is sent.
func (s *Server) dispatch(ctx context.Context, sc *serverConn, rec []byte, ref *slotRef) *xdr.Encoder {
	db := dispatchBufPool.Get().(*dispatchBufs)
	db.dec.Reset(rec)
	d := &db.dec
	defer func() {
		db.dec.Reset(nil)
		dispatchBufPool.Put(db)
	}()
	var hdr callHeader
	hdr.XDR(d.Codec())
	if err := d.Err(); err != nil {
		if errors.Is(err, errRPCVersion) {
			return encodeReply(hdr.XID, func(e *xdr.Encoder) {
				e.Uint32(msgDenied)
				e.Uint32(uint32(RPCMismatch))
				e.Uint32(RPCVersion)
				e.Uint32(RPCVersion)
			})
		}
		s.logf("oncrpc: bad call header: %v", err)
		return nil
	}

	// The Call lives in the pooled dispatch state: handlers only use it
	// for the duration of the invocation (see the Call doc comment), so
	// no per-call allocation is needed.
	call := &db.call
	*call = Call{Prog: hdr.Prog, Vers: hdr.Vers, Proc: hdr.Proc, Conn: sc.conn, args: d}
	call.Cred = Cred{Flavor: hdr.Cred.Flavor, Raw: hdr.Cred.Body}
	if hdr.Cred.Flavor == AuthFlavorSys {
		var sys AuthSys
		if err := xdr.Unmarshal(hdr.Cred.Body, &sys); err != nil {
			return denyAuth(hdr.XID, AuthBadCred)
		}
		call.Cred.Sys = &sys
	}
	if s.Auth != nil {
		if stat := s.Auth(call); stat != AuthOK {
			return denyAuth(hdr.XID, stat)
		}
	}
	if hdr.Verf.Flavor == AuthSession {
		sess, reply := s.replies.begin(ctx, sc, &hdr)
		if sess == nil {
			return reply
		}
		*ref = slotRef{sess, hdr.XID}
		ctx = sc.detached
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
			return accepted(hdr.XID, ProgMismatch, func(e *xdr.Encoder) {
				e.Uint32(vers[0])
				e.Uint32(vers[1])
			})
		}
		return accepted(hdr.XID, ProgUnavail, nil)
	}

	h, ok := procs[hdr.Proc]
	if !ok {
		if hdr.Proc == 0 { // NULL procedure: always succeeds
			return accepted(hdr.XID, Success, nil)
		}
		return accepted(hdr.XID, ProcUnavail, nil)
	}

	result, stat := h(ctx, call)
	if stat != Success {
		return accepted(hdr.XID, stat, nil)
	}
	return acceptedResult(hdr.XID, result)
}

func denyAuth(xid uint32, stat AuthStat) *xdr.Encoder {
	return encodeReply(xid, func(e *xdr.Encoder) {
		e.Uint32(msgDenied)
		e.Uint32(uint32(AuthError))
		e.Uint32(uint32(stat))
	})
}

func accepted(xid uint32, stat AcceptStat, body func(*xdr.Encoder)) *xdr.Encoder {
	return encodeReply(xid, func(e *xdr.Encoder) {
		e.Uint32(msgAccepted)
		AuthNone.XDR(e.Codec()) // verifier
		e.Uint32(uint32(stat))
		if body != nil {
			body(e)
		}
	})
}

// acceptedResult encodes an accepted Success reply carrying result
// (nil for void results). It is the hot path of dispatch: unlike
// accepted it takes the result value directly, so no per-reply closure
// is allocated. Cold replies (mismatches, denials) keep the closure
// form.
func acceptedResult(xid uint32, result xdr.Marshaler) *xdr.Encoder {
	e := replyPool.Get().(*xdr.Encoder)
	newRecord(e)
	e.Uint32(xid)
	e.Uint32(msgReply)
	e.Uint32(msgAccepted)
	AuthNone.XDR(e.Codec()) // verifier
	e.Uint32(uint32(Success))
	if result != nil {
		result.EncodeXDR(e)
	}
	return e
}

// encodeReply encodes a reply record to xid whose body follows the
// message type.
func encodeReply(xid uint32, body func(*xdr.Encoder)) *xdr.Encoder {
	e := replyPool.Get().(*xdr.Encoder)
	newRecord(e)
	e.Uint32(xid)
	e.Uint32(msgReply)
	body(e)
	return e
}

// send writes an encoded reply record (none when reply is nil) to the
// connection, serialized by its write mutex, and hands the encoder to
// ref (see slotRef.keep).
func (sc *serverConn) send(reply *xdr.Encoder, ref slotRef) {
	if reply == nil {
		return
	}
	sc.writeMu.Lock()
	err := writeRecord(sc.conn, reply.Bytes())
	sc.writeMu.Unlock()
	if err != nil {
		sc.s.logf("oncrpc: write reply: %v", err)
		sc.conn.Close()
	}
	ref.keep(reply)
}

// Dial connects to addr over TCP and returns a client for prog/vers.
func Dial(network, addr string, prog, vers uint32) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("oncrpc: dial %s: %w", addr, err)
	}
	return NewClient(conn, prog, vers), nil
}

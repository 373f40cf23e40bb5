package oncrpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/xdr"
)

// ErrClientClosed is returned by Call after Close, or when the
// underlying transport fails.
var ErrClientClosed = errors.New("oncrpc: client closed")

// TransportError marks an error that broke the client's transport
// (as opposed to an RPC-level rejection or a protocol decode error).
// A fault-tolerant layer can test for it with errors.As to decide
// whether re-dialing the session could help.
type TransportError struct{ Err error }

func (e *TransportError) Error() string { return "oncrpc: transport: " + e.Err.Error() }
func (e *TransportError) Unwrap() error { return e.Err }

// IsTransportError reports whether err indicates transport failure —
// either a tagged read/write error or the sticky closed state a
// failed client hands to late callers.
func IsTransportError(err error) bool {
	var te *TransportError
	return errors.As(err, &te) || errors.Is(err, ErrClientClosed)
}

// callTimeout bounds every call on a Client, so a server or link that
// never answers ends the call with errCallTimeout instead of a hang,
// whatever context the caller passes; the context can end it sooner.
const callTimeout = 2 * time.Minute

// errCallTimeout is the error of a call whose due time passed.
var errCallTimeout = fmt.Errorf("oncrpc: call timed out: %w", context.DeadlineExceeded)

// errNotSent marks a transport error that struck before the call's
// record was written: the server never saw the call.
var errNotSent = errors.New("oncrpc: call not sent")

func notSent(err error) error { return fmt.Errorf("%w: %w", errNotSent, err) }

// inflight is one outstanding call in the pending table. w is the
// waiting call's reply channel: readLoop sends the reply record on it,
// expire sends nil once due has passed, fail closes it. seq is the
// submission order used to detect out-of-order completion.
type inflight struct {
	seq uint64
	due time.Time
	w   chan *[]byte
}

// GatherDepth is how many blocking calls a metadata gather (a stat
// storm, a READDIRPLUS attribute fill) keeps in flight on one
// connection: deep enough to hide a WAN round trip behind 64 small
// calls, shallow enough to cap buffered reply records at a few MiB.
const GatherDepth = 64

// Client is a connection-oriented ONC RPC client bound to one program
// and version on a single transport. It is safe for concurrent use:
// multiple goroutines may issue calls simultaneously and replies are
// matched to callers by transaction ID, so the transport is naturally
// pipelined when callers overlap — many calls in flight per connection,
// completing out of order as the server answers.
type Client struct {
	prog, vers uint32

	conn net.Conn

	writeMu sync.Mutex // serializes record writes

	mu        sync.Mutex
	pending   map[uint32]inflight
	seq       uint64 // submission counter (guarded by mu)
	lastClaim uint64 // highest seq claimed by readLoop (guarded by mu)
	err       error  // sticky transport error
	closed    bool
	done      chan struct{} // closed when the client fails or is closed

	// timeout bounds each call (callTimeout; tests lower it). timer
	// runs expire at armed, the earliest due time in pending, or is
	// idle when armed is zero (both guarded by mu).
	timeout time.Duration
	timer   *time.Timer
	armed   time.Time

	xid atomic.Uint32

	// stats, when set, accumulates pipelining counters (in-flight
	// high-water mark, out-of-order completions).
	stats atomic.Pointer[metrics.ChannelStats]

	// Cred supplies the credential attached to each call. Nil means
	// AUTH_NONE. It may be swapped with SetCred while calls are in
	// flight (SGFS proxies remap credentials per forwarded request, so
	// per-call creds are passed via CallCred instead).
	credMu sync.RWMutex
	cred   OpaqueAuth
}

// NewClient wraps an established transport as an RPC client for the
// given program and version. The client owns the connection and closes
// it on Close or transport error.
func NewClient(conn net.Conn, prog, vers uint32) *Client {
	c := &Client{
		prog:    prog,
		vers:    vers,
		conn:    conn,
		pending: make(map[uint32]inflight),
		cred:    AuthNone,
		done:    make(chan struct{}),
		timeout: callTimeout,
	}
	c.xid.Store(rand.Uint32())
	go c.readLoop()
	return c
}

// SetStats installs the counter sink for pipelining metrics. Safe to
// call concurrently with in-flight calls; nil detaches.
func (c *Client) SetStats(s *metrics.ChannelStats) { c.stats.Store(s) }

// Done returns a channel closed when the client stops working —
// transport failure or Close. Err then reports why.
func (c *Client) Done() <-chan struct{} { return c.done }

// Err returns the sticky error of a failed client, or nil while it is
// healthy.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// SetCred installs the default credential used by Call.
func (c *Client) SetCred(a OpaqueAuth) {
	c.credMu.Lock()
	c.cred = a
	c.credMu.Unlock()
}

func (c *Client) defaultCred() OpaqueAuth {
	c.credMu.RLock()
	defer c.credMu.RUnlock()
	return c.cred
}

// Close tears down the transport and fails all outstanding calls. If
// the client had already failed with a transport error, Close reports
// that error.
func (c *Client) Close() error {
	if err := c.fail(ErrClientClosed); !errors.Is(err, ErrClientClosed) {
		return err
	}
	return nil
}

// fail marks the client broken and wakes all outstanding calls. It
// returns the client's sticky error — the given err on the first
// failure, the original error on later ones — so callers can report
// it without re-reading c.err outside the lock.
func (c *Client) fail(err error) error {
	c.mu.Lock()
	if c.closed {
		err = c.err
		c.mu.Unlock()
		return err
	}
	c.closed = true
	c.err = err
	pend := c.pending
	c.pending = nil
	close(c.done)
	if c.timer != nil {
		c.timer.Stop()
	}
	c.mu.Unlock()
	c.conn.Close()
	for _, inf := range pend {
		close(inf.w)
	}
	return err
}

// registerPending installs w as xid's completion target until due and
// returns nil, or returns the sticky error of a dead client. It also
// maintains the in-flight depth high-water mark.
func (c *Client) registerPending(xid uint32, w chan *[]byte, due time.Time) error {
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.seq++
	c.pending[xid] = inflight{seq: c.seq, due: due, w: w}
	c.arm(due)
	depth := len(c.pending)
	c.mu.Unlock()
	if s := c.stats.Load(); s != nil {
		s.NoteInflight(uint64(depth))
	}
	return nil
}

// arm makes the timer run expire no later than due. Called with mu
// held.
func (c *Client) arm(due time.Time) {
	if !c.armed.IsZero() && !due.Before(c.armed) {
		return
	}
	c.armed = due
	if c.timer == nil {
		c.timer = time.AfterFunc(time.Until(due), c.expire)
	} else {
		c.timer.Reset(time.Until(due))
	}
}

// expire is the client's one deadline sweep. It removes every pending
// call whose due time has passed and wakes it with a nil record, then
// re-arms the timer for the earliest due time left. Removing the entry
// is expire's claim, as it is readLoop's: a reply that arrives later
// finds no entry and is dropped as unsolicited.
func (c *Client) expire() {
	now := time.Now()
	var late []chan *[]byte
	var next time.Time
	c.mu.Lock()
	c.armed = time.Time{}
	for xid, inf := range c.pending {
		if inf.due.After(now) {
			if next.IsZero() || inf.due.Before(next) {
				next = inf.due
			}
			continue
		}
		delete(c.pending, xid)
		late = append(late, inf.w)
	}
	if !next.IsZero() {
		c.arm(next)
	}
	c.mu.Unlock()
	for _, w := range late {
		w <- nil
	}
}

// abandonPending removes xid's pending-table entry on behalf of a
// caller walking away from the call — CallCred's context-cancel and
// write-error paths. It reports whether a late delivery may still
// reach the call's reply channel: false when this caller removed the
// entry itself (no reply can ever be delivered), true when the entry
// was already gone — claimed by the readLoop or expire, or torn down
// wholesale by fail. The "late record must not leak into an unrelated
// call" invariant lives here: when this returns true, the reply
// channel must be abandoned rather than recycled for a later call.
func (c *Client) abandonPending(xid uint32) (lateDelivery bool) {
	c.mu.Lock()
	_, present := c.pending[xid]
	if present {
		delete(c.pending, xid)
	}
	c.mu.Unlock()
	return !present
}

// readLoop delivers reply records to waiting callers.
func (c *Client) readLoop() {
	br := newRecordReader(c.conn)
	for {
		// Each iteration owns one pooled record buffer: recycled here on
		// the error and unsolicited-reply paths, or by the waiter after
		// it decodes the record.
		bp := recGet()
		rec, err := readRecord(br, (*bp)[:0])
		if err != nil {
			recPut(bp)
			c.fail(&TransportError{Err: fmt.Errorf("read: %w", err)})
			return
		}
		*bp = rec
		if len(rec) < 4 {
			recPut(bp)
			c.fail(&TransportError{Err: errors.New("short reply record")})
			return
		}
		xid := uint32(rec[0])<<24 | uint32(rec[1])<<16 | uint32(rec[2])<<8 | uint32(rec[3])
		c.mu.Lock()
		inf, ok := c.pending[xid]
		outOfOrder := false
		if ok {
			delete(c.pending, xid)
			// A reply claiming an earlier submission than one already
			// claimed means the transport completed calls out of order:
			// the pipelining overlapping callers exist to exploit.
			if inf.seq < c.lastClaim {
				outOfOrder = true
			} else {
				c.lastClaim = inf.seq
			}
		}
		c.mu.Unlock()
		if !ok {
			// Unsolicited reply (e.g. for a call abandoned on context
			// cancellation): drop it and recycle the buffer.
			recPut(bp)
			continue
		}
		if outOfOrder {
			if s := c.stats.Load(); s != nil {
				s.OutOfOrder.Add(1)
			}
		}
		// Hand ownership of the record (still boxed in its pool pointer)
		// to the waiter, which decodes it on its own goroutine and then
		// recycles it into recPool.
		inf.w <- bp
	}
}

// Call issues proc with the default credential. See CallCred.
func (c *Client) Call(ctx context.Context, proc uint32, args xdr.Marshaler, reply xdr.Unmarshaler) error {
	return c.CallCred(ctx, proc, c.defaultCred(), args, reply)
}

// CallCred issues an RPC with an explicit credential, blocking until
// the matching reply arrives, the context is done, the call's bound
// (callTimeout) passes, or the transport fails. args may be nil for
// void procedures; reply may be nil when the result body is void or
// should be discarded.
func (c *Client) CallCred(ctx context.Context, proc uint32, cred OpaqueAuth, args xdr.Marshaler, reply xdr.Unmarshaler) error {
	return c.call(ctx, time.Time{}, c.xid.Add(1), c.prog, c.vers, proc, cred, nil, args, reply)
}

// CallProg is Call to another program and version than the client's,
// on the same transport: MOUNT beside NFS needs no second client.
func (c *Client) CallProg(ctx context.Context, prog, vers, proc uint32, args xdr.Marshaler, reply xdr.Unmarshaler) error {
	return c.call(ctx, time.Time{}, c.xid.Add(1), prog, vers, proc, c.defaultCred(), nil, args, reply)
}

// call issues proc of program prog, version vers, under a given xid,
// with sess, when non-nil, sent as the call's AuthSession verifier. It
// fails with errCallTimeout at due, or at the client's own bound when
// that is sooner or due is zero. A transport error that struck before
// the record was written wraps errNotSent.
func (c *Client) call(ctx context.Context, due time.Time, xid, prog, vers, proc uint32, cred OpaqueAuth, sess *sessionVerf, args xdr.Marshaler, reply xdr.Unmarshaler) error {
	cb := callBufPool.Get().(*callBufs)
	newRecord(&cb.enc)
	hdr := callHeader{XID: xid, Prog: prog, Vers: vers, Proc: proc, Cred: cred, Verf: AuthNone}
	if sess != nil {
		hdr.Verf.Flavor, hdr.Session = AuthSession, *sess
	}
	hdr.XDR(cb.enc.Codec())
	if args != nil {
		args.EncodeXDR(&cb.enc)
	}

	if cb.ch == nil {
		cb.ch = make(chan *[]byte, 1)
	}
	ch := cb.ch
	if bound := time.Now().Add(c.timeout); due.IsZero() || bound.Before(due) {
		due = bound
	}
	if err := c.registerPending(xid, ch, due); err != nil {
		callBufPool.Put(cb)
		return notSent(err)
	}

	c.writeMu.Lock()
	err := writeRecord(c.conn, cb.enc.Bytes())
	c.writeMu.Unlock()
	if err != nil {
		// fail closes ch unless we removed the entry first; either way
		// abandonPending decides whether ch may still be touched.
		if c.abandonPending(xid) {
			cb.ch = nil
		}
		callBufPool.Put(cb)
		return notSent(c.fail(&TransportError{Err: fmt.Errorf("write: %w", err)}))
	}

	select {
	case bp, ok := <-ch:
		if bp == nil {
			// expire or fail claimed the entry and woke the call: the
			// channel is theirs, so it is not pooled again.
			cb.ch = nil
			callBufPool.Put(cb)
			if ok {
				return errCallTimeout
			}
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			return err
		}
		cb.dec.Reset(*bp)
		err := decodeReplyFrom(&cb.dec, reply)
		// The decoder copies every value out of the record, so it can be
		// recycled as soon as decoding ends.
		recPut(bp)
		cb.dec.Reset(nil)
		callBufPool.Put(cb)
		return err
	case <-ctx.Done():
		if c.abandonPending(xid) {
			// The readLoop claimed the entry (or fail tore the table
			// down) and may still deliver into or close ch: abandon the
			// channel rather than pooling it.
			cb.ch = nil
		}
		callBufPool.Put(cb)
		return ctx.Err()
	}
}

// decodeReplyFrom parses a reply record from d, a decoder positioned at
// the record's xid, and on success decodes the result body into reply.
func decodeReplyFrom(d *xdr.Decoder, reply xdr.Unmarshaler) error {
	_ = d.Uint32() // xid, already matched
	if mt := d.Uint32(); mt != msgReply {
		return fmt.Errorf("oncrpc: expected REPLY, got message type %d", mt)
	}
	switch stat := d.Uint32(); stat {
	case msgAccepted:
		var verf OpaqueAuth
		verf.XDR(d.Codec())
		astat := AcceptStat(d.Uint32())
		if err := d.Err(); err != nil {
			return fmt.Errorf("oncrpc: decode reply header: %w", err)
		}
		switch astat {
		case Success:
			if reply == nil {
				return nil
			}
			reply.DecodeXDR(d)
			if err := d.Err(); err != nil {
				return fmt.Errorf("oncrpc: decode result: %w", err)
			}
			return nil
		case ProgMismatch:
			_ = d.Uint32() // low
			_ = d.Uint32() // high
			return &RPCError{Accept: astat}
		default:
			return &RPCError{Accept: astat}
		}
	case msgDenied:
		rstat := RejectStat(d.Uint32())
		re := &RPCError{Rejected: true, Reject: rstat}
		switch rstat {
		case RPCMismatch:
			_ = d.Uint32()
			_ = d.Uint32()
		case AuthError:
			re.Auth = AuthStat(d.Uint32())
		}
		if err := d.Err(); err != nil {
			return fmt.Errorf("oncrpc: decode rejection: %w", err)
		}
		return re
	default:
		return fmt.Errorf("oncrpc: bad reply stat %d", stat)
	}
}

package oncrpc

import (
	"context"
	crand "crypto/rand"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/xdr"
)

// ErrSessionLost is returned (wrapped) for a call that had been sent
// and had to be sent again, to a server that no longer knows the
// client's session: it restarted, or the link stayed down past its
// grace period. The call ran at most once, and whether it ran is
// unknown.
var ErrSessionLost = errors.New("oncrpc: server lost the session of a call in flight")

// SessionFactory establishes a ready-to-use client session over one
// connection: dial, optional secure-channel handshake, program binding,
// and any application-level re-establishment as plain calls on that
// same client (SGFS re-issues MOUNT with Client.CallProg). It is
// invoked once per connection attempt and must honour ctx.
type SessionFactory func(ctx context.Context) (*Client, error)

// ReconnectOpts tunes a ReconnectClient. Zero values select defaults
// suited to WAN links.
type ReconnectOpts struct {
	// MaxAttempts bounds both the connection attempts per reconnect
	// round and the issue attempts per call. Default 4.
	MaxAttempts int
	// BaseDelay is the first backoff step (default 50ms); MaxDelay
	// caps the exponential growth (default 2s). Each sleep is jittered
	// to half-to-full of the nominal delay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// AttemptTimeout bounds each call attempt and each factory
	// invocation, so a silently stalled WAN link becomes a timeout
	// instead of a hang. 0 disables per-attempt deadlines.
	AttemptTimeout time.Duration
	// Stats, when non-nil, accumulates fault-tolerance counters.
	Stats *metrics.ChannelStats
}

func (o *ReconnectOpts) attempts() int {
	if o.MaxAttempts > 0 {
		return o.MaxAttempts
	}
	return 4
}

func (o *ReconnectOpts) base() time.Duration {
	if o.BaseDelay > 0 {
		return o.BaseDelay
	}
	return 50 * time.Millisecond
}

func (o *ReconnectOpts) cap() time.Duration {
	if o.MaxDelay > 0 {
		return o.MaxDelay
	}
	return 2 * time.Second
}

// ReconnectClient is a fault-tolerant RPC client: it owns a current
// connection produced by a SessionFactory and, when the transport
// fails, re-establishes it with exponential backoff and sends the calls
// caught by the failure again. It is one session of the server's reply
// cache (replycache.go), so every call runs at most once, and exactly
// once when the link recovers within the retry budget. It is safe for
// concurrent use; reconnection is single-flight across callers.
//
// A call holds one of the session's GatherDepth slots for its whole
// life, the lowest free one (so calls that never overlap share a slot),
// and sends the same xid, slot + GatherDepth*(calls the slot carried),
// on every attempt. Calls on any connection but the one their session
// began on carry the sessionBind flag: a server that has lost the
// session refuses them with AUTH_REJECTEDVERF, running nothing, and the
// client draws a new session. A call already sent under the old one
// then fails with ErrSessionLost; one that was not goes out again.
type ReconnectClient struct {
	factory SessionFactory
	opts    ReconnectOpts

	held chan struct{}       // one token per slot in use
	busy atomic.Uint64       // one bit per slot in use
	seq  [GatherDepth]uint32 // per slot; touched only by its holder

	mu       sync.Mutex
	sess     *sessionVerf // replaced when the server lost the session
	sessGen  uint64       // the connection sess began on
	cur      *Client
	gen      uint64 // bumped on every established session
	dialing  bool
	dialDone chan struct{} // closed when the in-flight round ends
	dialErr  error         // result of the last completed round
	closed   bool
}

// NewReconnectClient wraps factory as a reconnecting client. initial,
// when non-nil, seeds the first session (so the caller can fail fast
// on misconfiguration before constructing the reconnect layer).
func NewReconnectClient(initial *Client, factory SessionFactory, opts ReconnectOpts) *ReconnectClient {
	r := &ReconnectClient{factory: factory, opts: opts, cur: initial, held: make(chan struct{}, GatherDepth), sess: newSession(), sessGen: 1}
	if initial != nil {
		initial.SetStats(opts.Stats)
		r.gen = 1
		r.watch(initial, r.gen)
	}
	return r
}

// newSession draws a session id.
func newSession() *sessionVerf {
	s := new(sessionVerf)
	crand.Read(s.ID[:])
	return s
}

// watch invalidates the session as soon as its client fails, so
// Connected() flips promptly on link death (degraded mode engages
// without waiting for the next call to trip over the dead transport).
func (r *ReconnectClient) watch(cl *Client, gen uint64) {
	go func() {
		<-cl.Done()
		r.invalidate(cl, gen)
	}()
}

// Connected reports whether a live session is currently established.
// It is advisory: the link can drop immediately after it returns.
func (r *ReconnectClient) Connected() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cur != nil && !r.closed
}

// Close tears down the current session and fails future calls.
func (r *ReconnectClient) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	cl := r.cur
	r.cur = nil
	r.mu.Unlock()
	if cl != nil {
		cl.Close()
	}
	return nil
}

// link is what one attempt of a call goes out on: the connection and
// its generation, the session, and whether the session began on an
// earlier connection.
type link struct {
	cl     *Client
	gen    uint64
	sess   *sessionVerf
	rebind bool
}

// session returns the current link, establishing a connection if
// necessary. Only one caller dials at a time; the rest wait for its
// round.
func (r *ReconnectClient) session(ctx context.Context) (link, error) {
	r.mu.Lock()
	for {
		if r.closed {
			r.mu.Unlock()
			return link{}, ErrClientClosed
		}
		if r.cur != nil {
			l := link{r.cur, r.gen, r.sess, r.gen != r.sessGen}
			r.mu.Unlock()
			return l, nil
		}
		if !r.dialing {
			r.dialing = true
			r.dialDone = make(chan struct{})
			done := r.dialDone
			r.mu.Unlock()
			cl, err := r.redial(ctx)
			r.mu.Lock()
			r.dialing = false
			r.dialErr = err
			close(done)
			if cl == nil {
				r.mu.Unlock()
				return link{}, err
			}
			if r.closed {
				r.mu.Unlock()
				cl.Close()
				return link{}, ErrClientClosed
			}
			cl.SetStats(r.opts.Stats)
			r.cur = cl
			r.gen++
			r.watch(cl, r.gen)
			continue
		}
		done := r.dialDone
		r.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return link{}, ctx.Err()
		}
		r.mu.Lock()
		if r.cur == nil && r.dialErr != nil {
			err := r.dialErr
			// The dialer's round can fail with its *own* context error;
			// that says nothing about our ctx, so run our own round.
			if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				r.mu.Unlock()
				return link{}, err
			}
		}
	}
}

// redial runs one reconnection round: up to MaxAttempts factory
// invocations with jittered exponential backoff between them.
func (r *ReconnectClient) redial(ctx context.Context) (*Client, error) {
	attempts := r.opts.attempts()
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(r.backoff(attempt)):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		dctx, cancel := ctx, func() {}
		if r.opts.AttemptTimeout > 0 {
			dctx, cancel = context.WithTimeout(ctx, r.opts.AttemptTimeout)
		}
		var cl *Client
		cl, err = r.factory(dctx)
		cancel()
		if err == nil {
			if s := r.opts.Stats; s != nil {
				s.Reconnects.Add(1)
			}
			return cl, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	if s := r.opts.Stats; s != nil {
		s.ReconnectFailures.Add(1)
	}
	return nil, fmt.Errorf("oncrpc: reconnect failed after %d attempts: %w", attempts, err)
}

// renew draws a new session after the server refused old on
// connection gen, unless another call has already done so.
func (r *ReconnectClient) renew(old *sessionVerf, gen uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sess == old {
		r.sess, r.sessGen = newSession(), gen
	}
}

// backoff returns the jittered delay before the given (1-based) retry.
func (r *ReconnectClient) backoff(attempt int) time.Duration {
	d := r.opts.base() << (attempt - 1)
	if max := r.opts.cap(); d > max || d <= 0 {
		d = max
	}
	// Jitter to [d/2, d] so simultaneous reconnecting sessions do not
	// thunder at the server proxy in lockstep.
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// invalidate drops the session identified by gen (if still current)
// and closes cl, waking its in-flight calls.
func (r *ReconnectClient) invalidate(cl *Client, gen uint64) {
	r.mu.Lock()
	if r.gen == gen && r.cur == cl {
		r.cur = nil
		if s := r.opts.Stats; s != nil {
			s.Disconnects.Add(1)
		}
	}
	r.mu.Unlock()
	cl.Close()
}

// takeSlot waits for a free slot, takes the lowest and returns it.
func (r *ReconnectClient) takeSlot(ctx context.Context) (uint32, error) {
	select {
	case r.held <- struct{}{}:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	for {
		m := r.busy.Load()
		if slot := uint32(bits.TrailingZeros64(^m)); r.busy.CompareAndSwap(m, m|1<<slot) {
			return slot, nil
		}
	}
}

func (r *ReconnectClient) releaseSlot(slot uint32) {
	for m := r.busy.Load(); !r.busy.CompareAndSwap(m, m&^(1<<slot)); m = r.busy.Load() {
	}
	<-r.held
}

// Call issues proc under the connection's default credential, on a
// slot of the session, and sends it again under the same xid after
// each transport failure, until it is answered or MaxAttempts attempts
// have failed.
func (r *ReconnectClient) Call(ctx context.Context, proc uint32, args xdr.Marshaler, reply xdr.Unmarshaler) error {
	slot, err := r.takeSlot(ctx)
	if err != nil {
		return err
	}
	defer r.releaseSlot(slot)
	r.seq[slot]++
	xid := slot + GatherDepth*r.seq[slot]
	var sent *sessionVerf // the session the call may have run under
	attempts := r.opts.attempts()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		l, err := r.session(ctx)
		if err != nil {
			return err
		}
		if sent != nil {
			if l.sess != sent {
				if s := r.opts.Stats; s != nil {
					s.SessionLost.Add(1)
				}
				return fmt.Errorf("%w: %v", ErrSessionLost, lastErr)
			}
			if s := r.opts.Stats; s != nil {
				s.Replays.Add(1)
			}
		}
		actx, cancel := ctx, func() {}
		if r.opts.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, r.opts.AttemptTimeout)
		}
		v := *l.sess
		if l.rebind {
			v.Flags = sessionBind
		}
		err = l.cl.call(actx, xid, l.cl.prog, l.cl.vers, proc, l.cl.defaultCred(), &v, args, reply)
		cancel()
		if err == nil {
			return nil
		}
		lastErr = err
		var re *RPCError
		switch {
		case l.rebind && errors.As(err, &re) && re.Rejected && re.Auth == AuthRejectedVerf:
			// The server does not know the session, and ran nothing.
			r.renew(l.sess, l.gen)
			continue
		case IsTransportError(err):
			r.invalidate(l.cl, l.gen)
		case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
			// Our per-attempt deadline fired while the caller's context
			// is alive: the link stalled. Kill the connection so the
			// next attempt re-dials instead of queueing behind the stall.
			if s := r.opts.Stats; s != nil {
				s.Timeouts.Add(1)
			}
			r.invalidate(l.cl, l.gen)
		default:
			// RPC-level result, decode error, or caller cancellation:
			// the transport is fine, nothing to recover.
			return err
		}
		sent = l.sess
	}
	return lastErr
}

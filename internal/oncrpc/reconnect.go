package oncrpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/xdr"
)

// ErrNonIdempotentReplay is returned (wrapped) when the transport
// fails while a non-idempotent call is in flight. The call may or may
// not have executed on the server, so it cannot be replayed safely;
// the caller must decide (NFS clients surface this as an I/O error,
// applications may re-check state and retry themselves).
var ErrNonIdempotentReplay = errors.New("oncrpc: transport failed with non-idempotent call in flight")

// SessionFactory establishes a ready-to-use client session: dial,
// optional secure-channel handshake, program binding, and any
// application-level re-establishment (SGFS re-issues MOUNT). It is
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
	// Idempotent classifies procedures that may be transparently
	// replayed on a fresh session after a transport failure. Nil
	// means nothing is replayed.
	Idempotent func(proc uint32) bool
	// ProcName, when non-nil, resolves procedure numbers to protocol
	// names so refusal errors say which call blocked replay ("WRITE"
	// rather than "proc 7"). Nil falls back to the bare number.
	ProcName func(proc uint32) string
	// Stats, when non-nil, accumulates fault-tolerance counters.
	Stats *metrics.ChannelStats
}

// procLabel renders a procedure for error messages: "WRITE (proc 7)"
// when a ProcName resolver is configured and knows the number, else
// "proc 7".
func (o *ReconnectOpts) procLabel(proc uint32) string {
	if o.ProcName != nil {
		if name := o.ProcName(proc); name != "" {
			return fmt.Sprintf("%s (proc %d)", name, proc)
		}
	}
	return fmt.Sprintf("proc %d", proc)
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
// session produced by a SessionFactory and, when the transport fails,
// re-establishes it with exponential backoff and replays idempotent
// calls. Non-idempotent calls caught by a failure are refused with
// ErrNonIdempotentReplay. It is safe for concurrent use; reconnection
// is single-flight across callers.
type ReconnectClient struct {
	factory SessionFactory
	opts    ReconnectOpts

	mu       sync.Mutex
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
	r := &ReconnectClient{factory: factory, opts: opts, cur: initial}
	if initial != nil {
		initial.SetStats(opts.Stats)
		r.gen = 1
		r.watch(initial, r.gen)
	}
	return r
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

// Stats returns the channel counters (nil when none were configured).
func (r *ReconnectClient) Stats() *metrics.ChannelStats { return r.opts.Stats }

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

// session returns the current client, establishing one if necessary.
// Only one caller dials at a time; the rest wait for its round.
func (r *ReconnectClient) session(ctx context.Context) (*Client, uint64, error) {
	r.mu.Lock()
	for {
		if r.closed {
			r.mu.Unlock()
			return nil, 0, ErrClientClosed
		}
		if r.cur != nil {
			cl, gen := r.cur, r.gen
			r.mu.Unlock()
			return cl, gen, nil
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
				return nil, 0, err
			}
			if r.closed {
				r.mu.Unlock()
				cl.Close()
				return nil, 0, ErrClientClosed
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
			return nil, 0, ctx.Err()
		}
		r.mu.Lock()
		if r.cur == nil && r.dialErr != nil {
			err := r.dialErr
			// The dialer's round can fail with its *own* context error;
			// that says nothing about our ctx, so run our own round.
			if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				r.mu.Unlock()
				return nil, 0, err
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

// Call issues proc under the session's default credential, reconnecting
// and replaying as permitted by the idempotency classification.
func (r *ReconnectClient) Call(ctx context.Context, proc uint32, args xdr.Marshaler, reply xdr.Unmarshaler) error {
	return r.do(ctx, proc, nil, args, reply)
}

// CallCred issues an RPC with an explicit credential. See Call.
func (r *ReconnectClient) CallCred(ctx context.Context, proc uint32, cred OpaqueAuth, args xdr.Marshaler, reply xdr.Unmarshaler) error {
	return r.do(ctx, proc, &cred, args, reply)
}

// do runs the session/replay loop around one call (cred nil: the
// session's default credential): transport failures trigger
// reconnection plus replay for idempotent procedures only.
func (r *ReconnectClient) do(ctx context.Context, proc uint32, cred *OpaqueAuth, args xdr.Marshaler, reply xdr.Unmarshaler) error {
	idem := r.opts.Idempotent != nil && r.opts.Idempotent(proc)
	attempts := r.opts.attempts()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		cl, gen, err := r.session(ctx)
		if err != nil {
			return err
		}
		if attempt > 0 {
			if s := r.opts.Stats; s != nil {
				s.Replays.Add(1)
			}
		}
		actx, cancel := ctx, func() {}
		if r.opts.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, r.opts.AttemptTimeout)
		}
		if cred != nil {
			err = cl.CallCred(actx, proc, *cred, args, reply)
		} else {
			err = cl.Call(actx, proc, args, reply)
		}
		cancel()
		if err == nil {
			return nil
		}
		switch {
		case IsTransportError(err):
			r.invalidate(cl, gen)
		case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
			// Our per-attempt deadline fired while the caller's context
			// is alive: the link stalled. Kill the session so the next
			// attempt re-dials instead of queueing behind the stall.
			if s := r.opts.Stats; s != nil {
				s.Timeouts.Add(1)
			}
			r.invalidate(cl, gen)
		default:
			// RPC-level result, decode error, or caller cancellation:
			// the transport is fine, nothing to recover.
			return err
		}
		if !idem {
			if s := r.opts.Stats; s != nil {
				s.NonIdempotentFailures.Add(1)
			}
			return fmt.Errorf("%w: %s: %v", ErrNonIdempotentReplay, r.opts.procLabel(proc), err)
		}
		lastErr = err
	}
	return lastErr
}

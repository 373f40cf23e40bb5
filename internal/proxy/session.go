package proxy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/mountd"
	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/securechan"
	"repro/internal/xdr"
)

// The upstream session. The client proxy reaches every server-side
// proxy it talks to — the one server, or each replica backend — through
// one upSession: a reconnecting RPC client whose session factory opens
// one connection (a dial, a handshake) and sends MOUNT on it before NFS.
// A link failure never ends a session: the next call re-establishes it,
// and the calls in flight are sent again, each to run once at the
// server proxy (its reply cache answers a call it already ran; see
// oncrpc.ReconnectClient).

// RecoveryConfig tunes how upstream sessions recover: re-dial with
// jittered exponential backoff after a link failure, and the bounds the
// session's RPC client puts on every upstream call so WAN stalls become
// timeouts instead of hangs. Zero fields, or a nil config, select the
// defaults.
type RecoveryConfig struct {
	// MaxAttempts bounds dial attempts per reconnect round and issue
	// attempts per call (default 4).
	MaxAttempts int
	// BaseDelay/MaxDelay shape the jittered exponential backoff
	// between attempts (defaults 50ms / 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// AttemptTimeout bounds each call attempt and each session
	// establishment (default 15s).
	AttemptTimeout time.Duration
	// OpTimeout bounds a whole upstream operation across all retries
	// (default 60s).
	OpTimeout time.Duration
}

func (r *RecoveryConfig) attemptTimeout() time.Duration {
	return positiveOr(r.AttemptTimeout, 15*time.Second)
}

func (r *RecoveryConfig) opTimeout() time.Duration { return positiveOr(r.OpTimeout, 60*time.Second) }

// positiveOr is v when it is positive, else the default def: how every
// tuning field of the proxy's configs reads.
func positiveOr[T int | time.Duration](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// upstream is the client proxy's side of the server-side proxies: one
// upSession, or a replicaSet of them.
type upstream interface {
	Call(ctx context.Context, proc uint32, args xdr.Marshaler, reply xdr.Unmarshaler) error
	Close() error
	// exportRoot is the export root handed to the local NFS client.
	exportRoot() nfs3.FH3
	// degraded reports disconnected operation: cached reads only.
	degraded() bool
}

// upSession is one upstream session: the dialer that reaches the
// server-side proxy, the reconnecting RPC client, and what the current
// connection established — the export root, which must not change
// across reconnects, and the transport.
type upSession struct {
	p    *ClientProxy
	dial Dialer
	rc   *oncrpc.ReconnectClient

	mu   sync.Mutex
	root nfs3.FH3 // empty until the first connection
	conn net.Conn
}

// newSession builds the session to the server-side proxy dial reaches
// and establishes its first connection. When that fails the error comes
// back with a session whose next call tries again.
func (p *ClientProxy) newSession(ctx context.Context, dial Dialer) (*upSession, error) {
	s := &upSession{p: p, dial: dial}
	first, err := s.establish(ctx)
	r := &p.recovery
	s.rc = oncrpc.NewReconnectClient(first, s.establish, oncrpc.ReconnectOpts{
		MaxAttempts:    r.MaxAttempts,
		BaseDelay:      r.BaseDelay,
		MaxDelay:       r.MaxDelay,
		AttemptTimeout: r.attemptTimeout(),
		OpTimeout:      r.opTimeout(),
		Stats:          &p.chs,
	})
	return s, err
}

// establish is the session factory, run on every (re)connect: one dial,
// the optional secure-channel handshake, then MNT as the first call on
// the channel that carries NFS after it. MNT is idempotent and goes
// without a session verifier; the reply cache's session binds on the
// first NFS call.
func (s *upSession) establish(ctx context.Context) (*oncrpc.Client, error) {
	cfg := &s.p.cfg
	conn, err := s.dial()
	if err != nil {
		return nil, fmt.Errorf("proxy: dial server proxy: %w", err)
	}
	if cfg.Channel != nil {
		sc, err := securechan.Client(conn, cfg.Channel)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("proxy: secure channel: %w", err)
		}
		if cfg.RekeyInterval > 0 {
			sc.StartAutoRekey(cfg.RekeyInterval)
		}
		conn = sc
	}
	cl := oncrpc.NewClient(conn, nfs3.Program, nfs3.Version)
	root, err := mountd.Mount(ctx, cl, cfg.ExportPath)
	if err != nil {
		cl.Close()
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.root.Data) > 0 && !bytes.Equal(root.Data, s.root.Data) {
		// Handles the local client holds would dangle: refuse the session.
		cl.Close()
		return nil, errors.New("proxy: export root changed across reconnect")
	}
	s.root, s.conn = root, conn
	return cl, nil
}

func (s *upSession) Call(ctx context.Context, proc uint32, args xdr.Marshaler, reply xdr.Unmarshaler) error {
	return s.rc.Call(ctx, proc, args, reply)
}

func (s *upSession) Close() error { return s.rc.Close() }

func (s *upSession) exportRoot() nfs3.FH3 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.root
}

func (s *upSession) degraded() bool { return !s.rc.Connected() }

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
// one upSession: a reconnecting RPC client whose session factory dials,
// runs the secure-channel handshake and re-issues MOUNT. A link failure
// never ends a session: the next call re-establishes it, idempotent
// calls in flight are replayed, and non-idempotent ones are refused
// with oncrpc.ErrNonIdempotentReplay.

// RecoveryConfig tunes how upstream sessions recover: re-dial with
// jittered exponential backoff after a link failure, and deadlines on
// every upstream operation so WAN stalls become timeouts instead of
// hangs. Zero fields, or a nil config, select the defaults.
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
		Idempotent:     nfs3Idempotent,
		ProcName:       nfs3.ProcName,
		Stats:          &p.chs,
	})
	return s, err
}

// establish is the session factory: transport dial, the optional
// secure-channel handshake, and MOUNT through a short-lived channel of
// its own (the NFS and MOUNT programs of the server proxy share one
// transport; MOUNT needs its own RPC client for the program binding).
// It runs on every reconnect, so it issues only these idempotent steps.
func (s *upSession) establish(ctx context.Context) (*oncrpc.Client, error) {
	cfg := &s.p.cfg
	conn, err := cfg.channelVia(s.dial)
	if err != nil {
		return nil, err
	}
	if sc, ok := conn.(*securechan.Conn); ok && cfg.RekeyInterval > 0 {
		sc.StartAutoRekey(cfg.RekeyInterval)
	}
	root, err := mountd.Mount(ctx, func() (net.Conn, error) { return cfg.channelVia(s.dial) }, cfg.ExportPath)
	if err != nil {
		conn.Close()
		return nil, err
	}
	s.mu.Lock()
	changed := len(s.root.Data) > 0 && !bytes.Equal(root.Data, s.root.Data)
	if !changed {
		s.root, s.conn = root, conn
	}
	s.mu.Unlock()
	if changed {
		// Handles the local client holds would dangle: refuse the session.
		conn.Close()
		return nil, errors.New("proxy: export root changed across reconnect")
	}
	return oncrpc.NewClient(conn, nfs3.Program, nfs3.Version), nil
}

// channelVia dials one transport and, when configured, runs the
// secure-channel handshake over it.
func (c *ClientConfig) channelVia(dial Dialer) (net.Conn, error) {
	raw, err := dial()
	if err != nil {
		return nil, fmt.Errorf("proxy: dial server proxy: %w", err)
	}
	if c.Channel == nil {
		return raw, nil
	}
	sc, err := securechan.Client(raw, c.Channel)
	if err != nil {
		raw.Close()
		return nil, fmt.Errorf("proxy: secure channel: %w", err)
	}
	return sc, nil
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

// nfs3ReplayClass classifies every NFSv3 procedure for replay on a
// fresh session after a transport failure: true = safe to replay
// (pure reads, and COMMIT — re-committing already-stable data is
// harmless), false = refused back to the caller instead, because the
// proxy cannot know whether the lost call executed. (FlushAll makes
// its own finer-grained decision for FILE_SYNC writes; see there.)
// The sgfs-vet replay-table-sync analyzer enforces that this table
// names every nfs3.Proc* constant, so adding a procedure without
// deciding its replay class breaks the build rather than the WAN
// recovery path.
//
//sgfsvet:replay-table repro/internal/nfs3
var nfs3ReplayClass = map[uint32]bool{
	nfs3.ProcNull:        true,
	nfs3.ProcGetAttr:     true,
	nfs3.ProcSetAttr:     false,
	nfs3.ProcLookup:      true,
	nfs3.ProcAccess:      true,
	nfs3.ProcReadLink:    true,
	nfs3.ProcRead:        true,
	nfs3.ProcWrite:       false,
	nfs3.ProcCreate:      false,
	nfs3.ProcMkdir:       false,
	nfs3.ProcSymlink:     false,
	nfs3.ProcMknod:       false,
	nfs3.ProcRemove:      false,
	nfs3.ProcRmdir:       false,
	nfs3.ProcRename:      false,
	nfs3.ProcLink:        false,
	nfs3.ProcReadDir:     true,
	nfs3.ProcReadDirPlus: true,
	nfs3.ProcFSStat:      true,
	nfs3.ProcFSInfo:      true,
	nfs3.ProcPathConf:    true,
	nfs3.ProcCommit:      true,
}

func nfs3Idempotent(proc uint32) bool {
	return nfs3ReplayClass[proc]
}

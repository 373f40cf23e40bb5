package sfs

import (
	"context"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/gridsec"
	"repro/internal/idmap"
	"repro/internal/metrics"
	"repro/internal/mountd"
	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/securechan"
	"repro/internal/xdr"
)

// Dialer opens a transport.
type Dialer func() (net.Conn, error)

// ServerConfig configures an SFS server daemon.
type ServerConfig struct {
	// UpstreamDial connects to the NFS server being exported.
	UpstreamDial Dialer
	// ExportPath is the exported file system.
	ExportPath string
	// Credential is the server's self-signed key; its fingerprint is
	// the HostID clients embed in pathnames.
	Credential *gridsec.Credential
	// Users maps authorized user key fingerprints to local accounts
	// (the role of the SFS authserver).
	Users map[string]idmap.Account
	// Meter, when non-nil, accumulates the daemon's processing time.
	Meter *metrics.Meter
}

// Server is the SFS server daemon: it authenticates users by public
// key, terminates the RC4+SHA1 channel, and forwards NFS RPCs to the
// local server under the mapped account.
type Server struct {
	cfg   ServerConfig
	rpc   *oncrpc.Server
	relay nfs3.Relay
	up    *oncrpc.Client
	root  nfs3.FH3

	sessions sync.Map // net.Conn -> oncrpc.OpaqueAuth
}

// NewServer mounts the upstream export over the connection that then
// carries NFS, and returns a daemon ready to serve.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Credential == nil {
		return nil, errors.New("sfs: server requires a credential")
	}
	ctx, cancel := context.WithTimeout(context.Background(), sfsMountTimeout)
	defer cancel()
	upConn, err := cfg.UpstreamDial()
	if err != nil {
		return nil, err
	}
	up := oncrpc.NewClient(upConn, nfs3.Program, nfs3.Version)
	root, err := mountd.Mount(ctx, up, cfg.ExportPath)
	if err != nil {
		up.Close()
		return nil, err
	}
	s := &Server{
		cfg:  cfg,
		rpc:  oncrpc.NewServer(),
		up:   up,
		root: root,
	}
	s.relay = nfs3.Relay{Up: s, Meter: cfg.Meter}
	s.rpc.Handshake = s.handleConn
	mountd.RegisterRelay(s.rpc, func(path string) (nfs3.FH3, bool) {
		// SFS clients name the export by self-certifying path or the
		// raw export; accept both.
		return s.root, path == cfg.ExportPath || isSelfCertifying(path)
	})
	// Nothing to intercept: the daemon only authenticates and remaps.
	s.relay.Register(s.rpc, nil)
	return s, nil
}

// HostID returns the server's self-certifying identifier.
func (s *Server) HostID() string { return HostID(s.cfg.Credential) }

// Serve accepts SFS client connections.
func (s *Server) Serve(l net.Listener) error { return s.rpc.Serve(l) }

// handleConn is the RPC server's Handshake step: it authenticates the
// user key on one accepted transport, then serves RPC on it.
func (s *Server) handleConn(raw net.Conn) {
	var account idmap.Account
	cfg := &securechan.Config{
		Credential:     s.cfg.Credential,
		Suites:         []securechan.Suite{securechan.SuiteRC4SHA1},
		Meter:          s.cfg.Meter,
		SelfCertifying: true,
		VerifyPeer: func(_ string, chain []*x509.Certificate) error {
			fp := gridsec.KeyFingerprint(chain[0])
			acct, ok := s.cfg.Users[fp]
			if !ok {
				return fmt.Errorf("sfs: unknown user key %s", fp[:12])
			}
			account = acct
			return nil
		},
	}
	sc, err := securechan.Server(raw, cfg)
	if err != nil {
		return
	}
	cred, err := (&oncrpc.AuthSys{MachineName: "sfs", UID: account.UID, GID: account.GID, GIDs: account.GIDs}).Auth()
	if err != nil {
		sc.Close()
		return
	}
	s.sessions.Store(net.Conn(sc), cred)
	defer s.sessions.Delete(net.Conn(sc))
	s.rpc.ServeConn(sc)
}

// Close shuts the daemon down.
func (s *Server) Close() {
	s.rpc.Close()
	s.up.Close()
}

// UpCall implements nfs3.Upstream: the RPC runs under the account
// mapped to the user key of call's session.
func (s *Server) UpCall(ctx context.Context, call *oncrpc.Call, proc uint32, args xdr.Marshaler, res xdr.Unmarshaler) error {
	cred := oncrpc.AuthNone
	if v, ok := s.sessions.Load(call.Conn); ok {
		cred = v.(oncrpc.OpaqueAuth)
	}
	return s.up.CallCred(ctx, proc, cred, args, res)
}

func isSelfCertifying(p string) bool {
	_, _, err := ParsePath(p)
	return err == nil
}

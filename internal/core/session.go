package core

import (
	"context"
	"fmt"
	"net"

	"repro/internal/cache"
	"repro/internal/gridmap"
	"repro/internal/gridsec"
	"repro/internal/idmap"
	"repro/internal/metrics"
	"repro/internal/proxy"
	"repro/internal/securechan"
)

// loadChannel builds the secure-channel configuration from a session
// config, loading credentials from disk.
func loadChannel(cfg *Config) (*securechan.Config, error) {
	if !cfg.Secure() {
		return nil, nil
	}
	suite, err := cfg.Suite()
	if err != nil {
		return nil, err
	}
	cred, err := gridsec.LoadPEM(cfg.CertPath, cfg.KeyPath)
	if err != nil {
		return nil, fmt.Errorf("core: load credential: %w", err)
	}
	roots, err := gridsec.LoadCAPool(cfg.CAPath)
	if err != nil {
		return nil, fmt.Errorf("core: load CA pool: %w", err)
	}
	return &securechan.Config{
		Credential: cred,
		Roots:      roots,
		Suites:     []securechan.Suite{suite},
	}, nil
}

// The defaults a zero value selects, decided here and nowhere else.
const (
	defaultListen     = "127.0.0.1:0"
	defaultBlockSize  = 32 * 1024
	defaultCacheBytes = 4 << 30
)

func listenOn(addr string) (net.Listener, error) {
	if addr == "" {
		addr = defaultListen
	}
	return net.Listen("tcp", addr)
}

// GridmapPolicy is what a session does with a DN its gridmap does not
// list: deny it, or map it to the anonymous account when anonymousOK.
func GridmapPolicy(anonymousOK bool) gridmap.Policy {
	if anonymousOK {
		return gridmap.Anonymous
	}
	return gridmap.Deny
}

// ServerSession is a running server-side SGFS session.
type ServerSession struct {
	proxy *proxy.ServerProxy
	gmap  *gridmap.Map
	ln    net.Listener
}

// StartServer is the one assembly of a session's server side: it
// listens on listen (an ephemeral loopback port when empty), builds
// the server proxy pcfg describes and serves it there. On any failure
// whatever was started is torn down again.
func StartServer(pcfg proxy.ServerConfig, listen string) (*ServerSession, error) {
	ln, err := listenOn(listen)
	if err != nil {
		return nil, err
	}
	s := &ServerSession{gmap: pcfg.Gridmap, ln: ln}
	if s.proxy, err = proxy.NewServerProxy(pcfg); err != nil {
		s.Close()
		return nil, err
	}
	go s.proxy.Serve(ln)
	return s, nil
}

// StartServerSession loads the files cfg names (credentials, gridmap,
// accounts) and starts the server side they describe on cfg.Listen.
func StartServerSession(cfg *Config) (*ServerSession, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Role != RoleServer {
		return nil, fmt.Errorf("core: config role is %q, want server", cfg.Role)
	}
	channel, err := loadChannel(cfg)
	if err != nil {
		return nil, err
	}
	var gmap *gridmap.Map
	if cfg.GridmapPath != "" {
		gmap, err = gridmap.Load(cfg.GridmapPath, GridmapPolicy(cfg.AnonymousOK))
		if err != nil {
			return nil, fmt.Errorf("core: load gridmap: %w", err)
		}
	}
	var accounts *idmap.Table
	if cfg.AccountsPath != "" {
		accounts, err = idmap.LoadFile(cfg.AccountsPath)
		if err != nil {
			return nil, err
		}
	}
	return StartServer(proxy.ServerConfig{
		UpstreamDial: dialTo(cfg.Upstream),
		ExportPath:   cfg.Export,
		Channel:      channel,
		Gridmap:      gmap,
		Accounts:     accounts,
		FineGrained:  cfg.FineGrained,
	}, cfg.Listen)
}

func dialTo(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// Addr returns the session's listen address.
func (s *ServerSession) Addr() string { return s.ln.Addr().String() }

// Proxy exposes the underlying proxy (for ACL management).
func (s *ServerSession) Proxy() *proxy.ServerProxy { return s.proxy }

// Gridmap exposes the live gridmap for per-session sharing updates.
func (s *ServerSession) Gridmap() *gridmap.Map { return s.gmap }

// Reconfigure reloads the gridmap file cfg names into the live
// session's gridmap, which decides the connections accepted from then
// on. That is all it does: every other setting of cfg, credentials and
// suite included, takes a new session.
func (s *ServerSession) Reconfigure(cfg *Config) error {
	if cfg.GridmapPath != "" && s.gmap != nil {
		fresh, err := gridmap.Load(cfg.GridmapPath, GridmapPolicy(cfg.AnonymousOK))
		if err != nil {
			return fmt.Errorf("core: reload gridmap: %w", err)
		}
		s.gmap.ReplaceAll(fresh)
	}
	return nil
}

// Close shuts the session down, newest part first. It is also the
// unwinding of a start that failed part-way, so every part may be
// missing.
func (s *ServerSession) Close() {
	if s.ln != nil {
		s.ln.Close()
	}
	if s.proxy != nil {
		s.proxy.Close()
	}
}

// ClientSession is a running client-side SGFS session.
type ClientSession struct {
	proxy *proxy.ClientProxy
	dc    *cache.DiskCache
	ln    net.Listener
}

// StartClient is the one assembly of a session's client side: with
// cacheDir set it opens the disk cache there (blockSize and cacheBytes
// zero meaning 32 KiB blocks and 4 GiB) and hands it to the proxy as
// pcfg.DiskCache; it listens on listen (an ephemeral loopback port
// when empty), builds the client proxy pcfg describes, which
// establishes the session with the server side, and serves it there
// for the local NFS client. On any failure whatever was started is
// torn down again.
func StartClient(pcfg proxy.ClientConfig, listen, cacheDir string, blockSize int, cacheBytes int64) (*ClientSession, error) {
	s := &ClientSession{}
	if cacheDir != "" {
		if blockSize == 0 {
			blockSize = defaultBlockSize
		}
		if cacheBytes == 0 {
			cacheBytes = defaultCacheBytes
		}
		dc, err := cache.New(cacheDir, blockSize, cacheBytes)
		if err != nil {
			return nil, err
		}
		s.dc, pcfg.DiskCache = dc, dc
	}
	ln, err := listenOn(listen)
	if err == nil {
		s.ln = ln
		s.proxy, err = proxy.NewClientProxy(pcfg)
	}
	if err != nil {
		s.Close()
		return nil, err
	}
	go s.proxy.Serve(ln)
	return s, nil
}

// StartClientSession loads the credentials cfg names and starts the
// client side it describes on cfg.Listen.
func StartClientSession(cfg *Config) (*ClientSession, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Role != RoleClient {
		return nil, fmt.Errorf("core: config role is %q, want client", cfg.Role)
	}
	channel, err := loadChannel(cfg)
	if err != nil {
		return nil, err
	}
	pcfg := proxy.ClientConfig{
		Channel:       channel,
		ExportPath:    cfg.Export,
		RekeyInterval: cfg.RekeyInterval,
	}
	if len(cfg.Servers) > 0 {
		// Replicated session: one dialer per server proxy; the
		// replication layer owns fan-out, quorum and failover.
		backends := make([]proxy.ReplicaBackendDef, len(cfg.Servers))
		for i, addr := range cfg.Servers {
			backends[i] = proxy.ReplicaBackendDef{Addr: addr, Dial: dialTo(addr)}
		}
		pcfg.Replication = &proxy.ReplicationConfig{
			Backends:   backends,
			Quorum:     cfg.Quorum,
			HedgeDelay: cfg.HedgeDelay,
		}
	} else {
		pcfg.ServerDial = dialTo(cfg.Server)
	}
	return StartClient(pcfg, cfg.Listen, cfg.CacheDir, cfg.BlockSize, cfg.CacheBytes)
}

// Addr returns the address the local NFS client should mount.
func (s *ClientSession) Addr() string { return s.ln.Addr().String() }

// Rekey forces an immediate session-key renegotiation.
func (s *ClientSession) Rekey() error {
	if ch, ok := s.proxy.Channel(); ok {
		return ch.Rekey()
	}
	return fmt.Errorf("core: session has no secure channel")
}

// Flush writes back dirty cached data without ending the session.
func (s *ClientSession) Flush(ctx context.Context) error { return s.proxy.FlushAll(ctx) }

// CacheStats reports disk-cache counters.
func (s *ClientSession) CacheStats() (cache.Stats, bool) { return s.proxy.CacheStats() }

// ReplicaStats reports replication counters; ok is false for
// unreplicated sessions.
func (s *ClientSession) ReplicaStats() (metrics.ReplicaSnapshot, bool) {
	return s.proxy.ReplicaStats()
}

// Close flushes write-back data and shuts the session down, newest
// part first. It is also the unwinding of a start that failed
// part-way, so every part may be missing.
func (s *ClientSession) Close() error {
	var err error
	if s.ln != nil {
		s.ln.Close()
	}
	if s.proxy != nil {
		err = s.proxy.Close()
	}
	if s.dc != nil {
		s.dc.Close()
	}
	return err
}

// Package sgfs is a user-level Secure Grid File System: a Go
// implementation of the system described in "A User-level Secure Grid
// File System" (Zhao & Figueiredo, SC'07).
//
// SGFS provides grid-wide data access by virtualizing NFS with
// user-level proxies. The server side fronts an (unmodified) NFS
// server exported only to localhost; the client side presents an NFS
// service the local client mounts. Between them runs an SSL-like
// secure channel authenticated with X.509/GSI certificates, with
// per-session selection of the protection suite:
//
//	SuiteAES256SHA1 — AES-256-CBC + HMAC-SHA1 (strong privacy)
//	SuiteRC4SHA1    — RC4-128 + HMAC-SHA1     (medium privacy)
//	SuiteNullSHA1   — integrity only          (no privacy, fast)
//
// Access control is grid-style: a per-session gridmap file maps
// certificate distinguished names to local accounts, and optional
// per-file ACLs (".name.acl" files, evaluated with inheritance and
// cached by the server proxy) refine access per object. Client-side
// disk caching with write-back hides WAN latency; dirty data flows
// back at session close, and data whose file is removed first never
// crosses the network.
//
// This package is the high-level facade: StartServer assembles the
// whole server side (NFS server + MOUNT daemon + SGFS server proxy)
// and Mount assembles the client side (SGFS client proxy + caching
// NFS client) returning a file-system handle with a POSIX-flavoured
// API. The building blocks live in internal/ packages; management
// services (FSS/DSS) are in internal/services with daemons under
// cmd/.
package sgfs

import (
	"context"
	"crypto/x509"
	"fmt"
	"net"
	"time"

	"repro/internal/acl"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/gridmap"
	"repro/internal/gridsec"
	"repro/internal/idmap"
	"repro/internal/mountd"
	"repro/internal/nfsclient"
	"repro/internal/oncrpc"
	"repro/internal/proxy"
	"repro/internal/securechan"
	"repro/internal/vfs"
)

// Suite selects a channel protection suite.
type Suite = securechan.Suite

// The three security configurations evaluated in the paper.
const (
	SuiteNullSHA1   = securechan.SuiteNullSHA1
	SuiteRC4SHA1    = securechan.SuiteRC4SHA1
	SuiteAES256SHA1 = securechan.SuiteAES256SHA1
)

// Credential is an X.509 certificate (or GSI proxy certificate) with
// its private key.
type Credential = gridsec.Credential

// CA is a certificate authority anchoring a grid trust domain.
type CA = gridsec.CA

// NewCA creates a certificate authority.
func NewCA(org string) (*CA, error) { return gridsec.NewCA(org) }

// LoadCredential reads a PEM credential from disk.
func LoadCredential(certPath, keyPath string) (*Credential, error) {
	return gridsec.LoadPEM(certPath, keyPath)
}

// LoadCAPool reads trusted CA certificates.
func LoadCAPool(paths ...string) (*x509.CertPool, error) { return gridsec.LoadCAPool(paths...) }

// Account maps a local account name to numeric identity.
type Account = idmap.Account

// ACL is a fine-grained access control list.
type ACL = acl.ACL

// NewACL creates an empty ACL. Use Grant(dn, PermRead|...) to
// populate it.
func NewACL() *ACL { return acl.New() }

// Permission masks for ACL entries.
const (
	PermRead  = acl.PermRead
	PermWrite = acl.PermWrite
	PermExec  = acl.PermExec
	PermAll   = acl.PermAll
)

// ServerConfig assembles a complete SGFS server side.
type ServerConfig struct {
	// ExportPath is the logical export name (e.g. "/GFS/alice").
	ExportPath string
	// DataDir, when set, exports that directory of the local file
	// system; otherwise an in-memory file system is exported (useful
	// for tests and demos).
	DataDir string
	// Host is the server's certificate.
	Host *Credential
	// Roots are the trusted CAs for client verification.
	Roots *x509.CertPool
	// Suites lists acceptable channel suites (server preference
	// order); empty accepts all, strongest first.
	Suites []Suite
	// Gridmap maps client DNs to account names. Required.
	Gridmap map[string]string
	// Accounts defines the local accounts gridmap names resolve to.
	Accounts []Account
	// AnonymousOK maps unknown DNs to "nobody" instead of denying.
	AnonymousOK bool
	// FineGrained enables per-file ACL enforcement.
	FineGrained bool
	// Listen is the proxy's listen address ("127.0.0.1:0" if empty).
	Listen string
}

// Server is a running SGFS server side.
type Server struct {
	sess *core.ServerSession
	nfs  *oncrpc.Server
}

// StartServer builds and starts the whole server side: a user-level
// NFS+MOUNT server over the chosen backend (exported to localhost
// only, per §5), fronted by a GSI-authenticating SGFS proxy.
func StartServer(cfg ServerConfig) (*Server, error) {
	if cfg.Host == nil || cfg.Roots == nil {
		return nil, fmt.Errorf("sgfs: server requires host credential and trust roots")
	}
	if cfg.ExportPath == "" {
		return nil, fmt.Errorf("sgfs: server requires an export path")
	}
	var backend vfs.FS = vfs.NewMemFS()
	if cfg.DataDir != "" {
		osfs, err := vfs.NewOSFS(cfg.DataDir)
		if err != nil {
			return nil, err
		}
		backend = osfs
	}
	rpc := oncrpc.NewServer()
	nfsAddr, err := mountd.ServeNFS(rpc, cfg.ExportPath, backend, 1)
	if err != nil {
		return nil, err
	}

	gmap := gridmap.New(core.GridmapPolicy(cfg.AnonymousOK))
	for dn, account := range cfg.Gridmap {
		gmap.Add(dn, account)
	}
	accounts := idmap.NewTable()
	for _, a := range cfg.Accounts {
		accounts.Add(a)
	}
	sess, err := core.StartServer(proxy.ServerConfig{
		UpstreamDial: func() (net.Conn, error) { return net.Dial("tcp", nfsAddr) },
		ExportPath:   cfg.ExportPath,
		Channel:      &securechan.Config{Credential: cfg.Host, Roots: cfg.Roots, Suites: cfg.Suites},
		Gridmap:      gmap,
		Accounts:     accounts,
		FineGrained:  cfg.FineGrained,
	}, cfg.Listen)
	if err != nil {
		rpc.Close()
		return nil, err
	}
	return &Server{sess: sess, nfs: rpc}, nil
}

// Addr returns the address clients connect (and Mount) to.
func (s *Server) Addr() string { return s.sess.Addr() }

// Share adds (or updates) a gridmap entry on the live session — the
// paper's flexible sharing: map a peer's DN to a local account.
func (s *Server) Share(dn, account string) { s.sess.Gridmap().Add(dn, account) }

// Revoke removes a gridmap entry.
func (s *Server) Revoke(dn string) { s.sess.Gridmap().Remove(dn) }

// SetACL installs a fine-grained ACL on the object at path (relative
// to the export root).
func (s *Server) SetACL(ctx context.Context, path string, a *ACL) error {
	return s.sess.Proxy().SetACL(ctx, path, a)
}

// Close shuts the server down.
func (s *Server) Close() {
	s.sess.Close()
	s.nfs.Close()
}

// MountConfig assembles a complete SGFS client side.
type MountConfig struct {
	// ServerAddr is the SGFS server's address (Server.Addr()).
	ServerAddr string
	// ExportPath names the export to attach.
	ExportPath string
	// User is the grid user's credential — an identity certificate or
	// a delegated proxy certificate.
	User *Credential
	// Roots are the trusted CAs for server verification.
	Roots *x509.CertPool
	// Suites lists offered channel suites; empty offers all.
	Suites []Suite
	// DiskCacheDir enables the client proxy's disk cache (write-back)
	// when non-empty.
	DiskCacheDir string
	// DiskCacheBytes bounds the cache (default 4 GiB).
	DiskCacheBytes int64
	// RekeyInterval enables periodic session-key renegotiation.
	RekeyInterval time.Duration
	// StorageKey enables at-rest encryption when non-empty: file
	// blocks are encrypted before they reach the server, protecting
	// data from untrusted servers and administrators.
	StorageKey []byte
	// MemoryCacheBytes bounds the client's page cache (default
	// 32 MiB).
	MemoryCacheBytes int64
	// UID and GID form the local AUTH_SYS credential (the job
	// account; the server remaps it).
	UID, GID uint32
}

// FileSystem is a mounted secure grid file system.
type FileSystem struct {
	*nfsclient.FileSystem
	sess *core.ClientSession
}

// Mount establishes a secure session to an SGFS server and returns a
// mounted file system.
func Mount(ctx context.Context, cfg MountConfig) (*FileSystem, error) {
	if cfg.User == nil || cfg.Roots == nil {
		return nil, fmt.Errorf("sgfs: mount requires user credential and trust roots")
	}
	sess, err := core.StartClient(proxy.ClientConfig{
		ServerDial:    func() (net.Conn, error) { return net.Dial("tcp", cfg.ServerAddr) },
		Channel:       &securechan.Config{Credential: cfg.User, Roots: cfg.Roots, Suites: cfg.Suites},
		ExportPath:    cfg.ExportPath,
		RekeyInterval: cfg.RekeyInterval,
		StorageKey:    cfg.StorageKey,
	}, "", cfg.DiskCacheDir, 0, cfg.DiskCacheBytes)
	if err != nil {
		return nil, err
	}
	addr := sess.Addr()
	fs, err := nfsclient.Mount(ctx,
		func() (net.Conn, error) { return net.Dial("tcp", addr) },
		cfg.ExportPath,
		nfsclient.Options{CacheBytes: cfg.MemoryCacheBytes, UID: cfg.UID, GID: cfg.GID})
	if err != nil {
		sess.Close()
		return nil, err
	}
	return &FileSystem{FileSystem: fs, sess: sess}, nil
}

// Flush writes back dirty cached data without unmounting.
func (f *FileSystem) Flush(ctx context.Context) error { return f.sess.Flush(ctx) }

// Rekey forces an immediate session-key renegotiation.
func (f *FileSystem) Rekey() error { return f.sess.Rekey() }

// CacheStats reports disk-cache counters when caching is enabled.
func (f *FileSystem) CacheStats() (cache.Stats, bool) { return f.sess.CacheStats() }

// Unmount flushes write-back data and tears the session down.
func (f *FileSystem) Unmount() error {
	ferr := f.FileSystem.Close()
	perr := f.sess.Close()
	if ferr != nil {
		return ferr
	}
	return perr
}

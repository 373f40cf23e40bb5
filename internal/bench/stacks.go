package bench

import (
	"context"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/gridmap"
	"repro/internal/gridsec"
	"repro/internal/idmap"
	"repro/internal/metrics"
	"repro/internal/mountd"
	"repro/internal/netem"
	"repro/internal/nfs4"
	"repro/internal/nfsclient"
	"repro/internal/oncrpc"
	"repro/internal/proxy"
	"repro/internal/securechan"
	"repro/internal/sfs"
	"repro/internal/sshtun"
	"repro/internal/vfs"
)

// Setup names a file system configuration from the paper's evaluation.
type Setup string

// The setups of §6.1.
const (
	SetupNFSv3   Setup = "nfs-v3"
	SetupNFSv4   Setup = "nfs-v4"
	SetupGFS     Setup = "gfs"
	SetupSGFSSHA Setup = "sgfs-sha"
	SetupSGFSRC  Setup = "sgfs-rc"
	SetupSGFSAES Setup = "sgfs-aes"
	SetupGFSSSH  Setup = "gfs-ssh"
	SetupSFS     Setup = "sfs"
)

// AllLANSetups are the setups of Figure 4, in the paper's order.
var AllLANSetups = []Setup{
	SetupNFSv3, SetupNFSv4, SetupSFS, SetupGFS,
	SetupSGFSSHA, SetupSGFSRC, SetupSGFSAES, SetupGFSSSH,
}

// StackConfig parameterizes a built stack.
type StackConfig struct {
	// Setup selects the file system configuration.
	Setup Setup
	// RTT is the emulated WAN round-trip time on the client-server
	// link (0 = LAN).
	RTT time.Duration
	// ClientCacheBytes bounds the NFS client's memory page cache
	// (scaled stand-in for the paper's 256 MB client VM). Default
	// 32 MiB.
	ClientCacheBytes int64
	// DiskCache enables the SGFS client proxy's disk cache (the
	// paper's WAN configuration).
	DiskCache bool
	// FineGrained enables per-file ACLs on the SGFS server proxy.
	FineGrained bool
	// DisableACLCache turns off ACL caching (ablation).
	DisableACLCache bool
	// Sequential forces the server proxy to handle one RPC at a time,
	// mirroring the paper's blocking prototype (ablation; default
	// false = the multithreaded implementation "under development").
	Sequential bool
	// RekeyInterval enables periodic renegotiation (ablation).
	RekeyInterval time.Duration
}

// Stack is a fully assembled file system deployment.
type Stack struct {
	// FS is the workload-facing file system.
	FS FS
	// Backend is the server-side storage, for preloading data.
	Backend *vfs.MemFS
	// ClientMeter and ServerMeter accumulate proxy/daemon work time
	// (Figures 5 and 6); nil for kernel-only setups.
	ClientMeter *metrics.Meter
	ServerMeter *metrics.Meter
	// Flush writes back dirty disk-cache data (SGFS write-back); the
	// paper reports this time separately. Nil when not applicable.
	Flush func(ctx context.Context) error
	// CacheStats reports disk-cache statistics, when enabled.
	CacheStats func() cache.Stats

	closers []func()
}

// Close tears the stack down (flushing SGFS write-back first).
func (s *Stack) Close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

func (s *Stack) onClose(f func()) { s.closers = append(s.closers, f) }

// dialer opens a connection to one component of the stack.
type dialer = func() (net.Conn, error)

func dialTo(addr string) dialer {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// serve runs an already built daemon's accept loop on a loopback port
// of its own and returns a dialer to it; the stack closes the daemon.
func (s *Stack) serve(serve func(net.Listener) error, stop func()) (dialer, error) {
	s.onClose(stop)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go serve(l)
	return dialTo(l.Addr().String()), nil
}

const exportPath = "/GFS/bench"

// BuildStack assembles the stack for cfg. All components run
// in-process over loopback TCP; the WAN link is emulated with netem on
// the client-to-server connection, like the NIST Net router between
// the paper's VMs.
func BuildStack(cfg StackConfig) (*Stack, error) {
	st := &Stack{Backend: vfs.NewMemFS()}
	if err := st.build(cfg); err != nil {
		st.Close()
		return nil, err
	}
	return st, nil
}

// build starts cfg's components in order, queueing each one's teardown
// as it starts, so BuildStack unwinds a failed build with Close.
func (st *Stack) build(cfg StackConfig) error {
	// The "kernel" NFS server, always present: NFSv3 and MOUNT, with
	// NFSv4 on the same port.
	rpc := oncrpc.NewServer()
	st.onClose(rpc.Close)
	nfs4.NewServer(st.Backend, 1).Register(rpc)
	nfsAddr, err := mountd.ServeNFS(rpc, exportPath, st.Backend, 1)
	if err != nil {
		return err
	}

	// mountAt is what the workload's NFS client mounts: the kernel
	// server across the WAN, or the setup's client-side daemon, which
	// has the WAN behind it.
	wan := netem.Config{RTT: cfg.RTT}
	mountAt := netem.Dialer(dialTo(nfsAddr), wan)
	switch cfg.Setup {
	case SetupNFSv3:
	case SetupNFSv4:
		c, err := nfs4.Dial(mountAt, nfs4.Options{CacheBytes: cfg.ClientCacheBytes, UID: 1000, GID: 1000})
		if err != nil {
			return err
		}
		st.onClose(func() { c.Close() })
		st.FS = V4FS{c}
		return nil
	case SetupSFS:
		mountAt, err = st.buildSFS(nfsAddr, wan)
	default:
		mountAt, err = st.buildProxies(cfg, nfsAddr, wan)
	}
	if err != nil {
		return err
	}
	fs, err := nfsclient.Mount(context.Background(), mountAt, exportPath,
		nfsclient.Options{CacheBytes: cfg.ClientCacheBytes, UID: 1000, GID: 1000})
	if err != nil {
		return err
	}
	st.onClose(func() { fs.Close() })
	st.FS = V3FS{fs}
	return nil
}

// sgfsSuites are the channel suites of the three secure SGFS setups.
var sgfsSuites = map[Setup]securechan.Suite{
	SetupSGFSSHA: securechan.SuiteNullSHA1,
	SetupSGFSRC:  securechan.SuiteRC4SHA1,
	SetupSGFSAES: securechan.SuiteAES256SHA1,
}

// buildProxies starts the proxy pair of gfs, sgfs-{sha,rc,aes} and
// gfs-ssh through the one assembly in internal/core and returns a
// dialer to the client proxy. What is decided here is only what the
// figures vary: the suite, the meters, and what sits on the WAN link.
func (st *Stack) buildProxies(cfg StackConfig, nfsAddr string, wan netem.Config) (dialer, error) {
	st.ClientMeter, st.ServerMeter = &metrics.Meter{}, &metrics.Meter{}
	ca, err := gridsec.NewCA("Bench Grid")
	if err != nil {
		return nil, err
	}
	user, err := ca.IssueUser("bench-user")
	if err != nil {
		return nil, err
	}
	host, err := ca.IssueHost("bench-server")
	if err != nil {
		return nil, err
	}
	accounts := idmap.NewTable()
	accounts.Add(idmap.Account{Name: "bench", UID: 1000, GID: 1000})
	scfg := proxy.ServerConfig{
		UpstreamDial:    dialTo(nfsAddr),
		ExportPath:      exportPath,
		Accounts:        accounts,
		FineGrained:     cfg.FineGrained,
		DisableACLCache: cfg.DisableACLCache,
		Sequential:      cfg.Sequential,
		Meter:           st.ServerMeter,
	}
	ccfg := proxy.ClientConfig{
		ExportPath:    exportPath,
		Meter:         st.ClientMeter,
		RekeyInterval: cfg.RekeyInterval,
	}
	if suite, secure := sgfsSuites[cfg.Setup]; secure {
		suites := []securechan.Suite{suite}
		scfg.Channel = &securechan.Config{Credential: host, Roots: ca.Pool(), Suites: suites, Meter: st.ServerMeter}
		ccfg.Channel = &securechan.Config{Credential: user, Roots: ca.Pool(), Suites: suites, Meter: st.ClientMeter}
		scfg.Gridmap = gridmap.New(gridmap.Deny)
		scfg.Gridmap.Add(user.DN(), "bench")
	} else {
		// gfs and gfs-ssh: basic GFS proxies with no channel security;
		// all traffic maps to the bench account.
		accounts.Add(idmap.Account{Name: "nobody", UID: 1000, GID: 1000})
	}
	srv, err := core.StartServer(scfg, "")
	if err != nil {
		return nil, err
	}
	st.onClose(srv.Close)

	// The WAN link sits between the client side and the server proxy.
	ccfg.ServerDial = netem.Dialer(dialTo(srv.Addr()), wan)
	if cfg.Setup == SetupGFSSSH {
		// Interpose the SSH tunnel: client proxy -> tunnel client ->
		// (WAN) -> tunnel daemon -> server proxy. Both tunnel hops are
		// extra user-level forwarders.
		tunSrv := sshtun.NewServer(&securechan.Config{Credential: host, Roots: ca.Pool()}, dialTo(srv.Addr()))
		toTunSrv, err := st.serve(tunSrv.Serve, tunSrv.Close)
		if err != nil {
			return nil, err
		}
		tunCli := sshtun.NewClient(&securechan.Config{Credential: user, Roots: ca.Pool()}, netem.Dialer(toTunSrv, wan))
		if ccfg.ServerDial, err = st.serve(tunCli.Serve, tunCli.Close); err != nil {
			return nil, err
		}
	}

	var cacheDir string
	if cfg.DiskCache {
		if cacheDir, err = os.MkdirTemp("", "sgfs-cache-*"); err != nil {
			return nil, err
		}
		st.onClose(func() { os.RemoveAll(cacheDir) })
	}
	cli, err := core.StartClient(ccfg, "", cacheDir, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("bench: client proxy: %w", err)
	}
	st.onClose(func() { cli.Close() })
	st.Flush = cli.Flush
	if cfg.DiskCache {
		st.CacheStats = func() cache.Stats { s, _ := cli.CacheStats(); return s }
	}
	return dialTo(cli.Addr()), nil
}

// buildSFS starts the daemon pair of the sfs baseline and returns a
// dialer to the client daemon.
func (st *Stack) buildSFS(nfsAddr string, wan netem.Config) (dialer, error) {
	st.ClientMeter, st.ServerMeter = &metrics.Meter{}, &metrics.Meter{}
	serverCred, err := gridsec.NewSelfSigned("sfs-server")
	if err != nil {
		return nil, err
	}
	userCred, err := gridsec.NewSelfSigned("sfs-user")
	if err != nil {
		return nil, err
	}
	srv, err := sfs.NewServer(sfs.ServerConfig{
		UpstreamDial: dialTo(nfsAddr),
		ExportPath:   exportPath,
		Credential:   serverCred,
		Users: map[string]idmap.Account{
			gridsec.KeyFingerprint(userCred.Cert): {Name: "bench", UID: 1000, GID: 1000},
		},
		Meter: st.ServerMeter,
	})
	if err != nil {
		return nil, err
	}
	toSrv, err := st.serve(srv.Serve, srv.Close)
	if err != nil {
		return nil, err
	}
	cli, err := sfs.NewClient(sfs.ClientConfig{
		ServerDial: netem.Dialer(toSrv, wan),
		HostID:     sfs.HostID(serverCred),
		Credential: userCred,
		ExportPath: exportPath,
		Meter:      st.ClientMeter,
	})
	if err != nil {
		return nil, err
	}
	return st.serve(cli.Serve, cli.Close)
}

package bench

import (
	"context"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/cache"
	"repro/internal/gridmap"
	"repro/internal/gridsec"
	"repro/internal/idmap"
	"repro/internal/metrics"
	"repro/internal/mountd"
	"repro/internal/netem"
	"repro/internal/nfs3"
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
	// DiskCacheDir is where cache blocks live (a temp dir when empty).
	DiskCacheDir string
	// BlockSize is the transfer size (default 32 KiB, the paper's).
	BlockSize int
	// Readahead blocks in the NFS client (default 2; -1 disables).
	Readahead int
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
	// Recovery, when non-nil, makes the client proxy's WAN channel
	// fault tolerant (reconnect + idempotent replay + degraded cached
	// reads) — the configuration chaos benchmarks run under injected
	// link failures.
	Recovery *proxy.RecoveryConfig
	// Faulter, when non-nil, interposes fault injection on the WAN
	// link between the client side and the server proxy.
	Faulter *netem.Faulter
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

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func dialTo(addr string) proxy.Dialer {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// BuildStack assembles the stack for cfg. All components run
// in-process over loopback TCP; the WAN link is emulated with netem on
// the client-to-server connection, like the NIST Net router between
// the paper's VMs.
func BuildStack(cfg StackConfig) (*Stack, error) {
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 32 * 1024
	}
	if cfg.ClientCacheBytes == 0 {
		cfg.ClientCacheBytes = 32 << 20
	}
	st := &Stack{Backend: vfs.NewMemFS()}

	// The "kernel" NFS server, always present (except pure v4).
	const exportPath = "/GFS/bench"
	rpc := oncrpc.NewServer()
	nfs3.NewServer(st.Backend, 1).Register(rpc)
	nfs4.NewServer(st.Backend, 1).Register(rpc)
	md := mountd.NewServer()
	md.AddExport(&mountd.Export{Path: exportPath, FS: st.Backend, AllowedHosts: []string{"127.0.0.1"}})
	md.Register(rpc)
	nfsL, err := listen()
	if err != nil {
		return nil, err
	}
	go rpc.Serve(nfsL)
	st.onClose(rpc.Close)
	nfsAddr := nfsL.Addr().String()

	wan := netem.Config{RTT: cfg.RTT}
	clientOpts := nfsclient.Options{
		BlockSize:  cfg.BlockSize,
		CacheBytes: cfg.ClientCacheBytes,
		Readahead:  cfg.Readahead,
		UID:        1000, GID: 1000,
	}

	ctx := context.Background()
	switch cfg.Setup {
	case SetupNFSv3:
		dial := netem.Dialer(dialTo(nfsAddr), wan)
		fs, err := nfsclient.Mount(ctx, dial, exportPath, clientOpts)
		if err != nil {
			st.Close()
			return nil, err
		}
		st.onClose(func() { fs.Close() })
		st.FS = V3FS{fs}
		return st, nil

	case SetupNFSv4:
		dial := netem.Dialer(dialTo(nfsAddr), wan)
		c, err := nfs4.Dial(dial, nfs4.Options{
			BlockSize:  cfg.BlockSize,
			CacheBytes: cfg.ClientCacheBytes,
			UID:        1000, GID: 1000,
		})
		if err != nil {
			st.Close()
			return nil, err
		}
		st.onClose(func() { c.Close() })
		st.FS = V4FS{c}
		return st, nil

	case SetupSFS:
		return buildSFSStack(st, cfg, nfsAddr, exportPath, wan, clientOpts)

	default:
		return buildProxyStack(st, cfg, nfsAddr, exportPath, wan, clientOpts)
	}
}

// buildProxyStack assembles gfs, sgfs-{sha,rc,aes} and gfs-ssh.
func buildProxyStack(st *Stack, cfg StackConfig, nfsAddr, exportPath string, wan netem.Config, clientOpts nfsclient.Options) (*Stack, error) {
	ctx := context.Background()
	st.ClientMeter = &metrics.Meter{}
	st.ServerMeter = &metrics.Meter{}

	var chanServer, chanClient *securechan.Config
	var gmap *gridmap.Map
	accounts := idmap.NewTable()
	accounts.Add(idmap.Account{Name: "bench", UID: 1000, GID: 1000})

	secure := cfg.Setup == SetupSGFSSHA || cfg.Setup == SetupSGFSRC || cfg.Setup == SetupSGFSAES
	var suite securechan.Suite
	switch cfg.Setup {
	case SetupSGFSSHA:
		suite = securechan.SuiteNullSHA1
	case SetupSGFSRC:
		suite = securechan.SuiteRC4SHA1
	case SetupSGFSAES:
		suite = securechan.SuiteAES256SHA1
	}

	ca, err := gridsec.NewCA("Bench Grid")
	if err != nil {
		st.Close()
		return nil, err
	}
	user, err := ca.IssueUser("bench-user")
	if err != nil {
		st.Close()
		return nil, err
	}
	host, err := ca.IssueHost("bench-server")
	if err != nil {
		st.Close()
		return nil, err
	}
	if secure {
		chanServer = &securechan.Config{Credential: host, Roots: ca.Pool(), Suites: []securechan.Suite{suite}, Meter: st.ServerMeter}
		chanClient = &securechan.Config{Credential: user, Roots: ca.Pool(), Suites: []securechan.Suite{suite}, Meter: st.ClientMeter}
		gmap = gridmap.New(gridmap.Deny)
		gmap.Add(user.DN(), "bench")
	} else {
		// gfs and gfs-ssh: basic GFS proxies with no channel security;
		// all traffic maps to the bench account.
		accounts.Add(idmap.Account{Name: "nobody", UID: 1000, GID: 1000})
	}

	sp, err := proxy.NewServerProxy(proxy.ServerConfig{
		UpstreamDial:    dialTo(nfsAddr),
		ExportPath:      exportPath,
		Channel:         chanServer,
		Gridmap:         gmap,
		Accounts:        accounts,
		FineGrained:     cfg.FineGrained,
		DisableACLCache: cfg.DisableACLCache,
		Sequential:      cfg.Sequential,
		Meter:           st.ServerMeter,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	spL, err := listen()
	if err != nil {
		st.Close()
		return nil, err
	}
	go sp.Serve(spL)
	st.onClose(sp.Close)
	spAddr := spL.Addr().String()

	// The WAN link sits between the client side and the server proxy.
	serverDial := netem.Dialer(dialTo(spAddr), wan)
	if cfg.Faulter != nil {
		serverDial = cfg.Faulter.Dialer(serverDial)
	}

	if cfg.Setup == SetupGFSSSH {
		// Interpose the SSH tunnel: client proxy -> tunnel client ->
		// (WAN) -> tunnel daemon -> server proxy. Both tunnel hops are
		// extra user-level forwarders.
		tunSrv := sshtun.NewServer(
			&securechan.Config{Credential: host, Roots: ca.Pool()},
			func() (net.Conn, error) { return net.Dial("tcp", spAddr) },
		)
		tsL, err := listen()
		if err != nil {
			st.Close()
			return nil, err
		}
		go tunSrv.Serve(tsL)
		st.onClose(tunSrv.Close)

		tunCli := sshtun.NewClient(
			&securechan.Config{Credential: user, Roots: ca.Pool()},
			netem.Dialer(dialTo(tsL.Addr().String()), wan),
		)
		tcL, err := listen()
		if err != nil {
			st.Close()
			return nil, err
		}
		go tunCli.Serve(tcL)
		st.onClose(tunCli.Close)
		serverDial = dialTo(tcL.Addr().String())
	}

	ccfg := proxy.ClientConfig{
		ServerDial:    serverDial,
		Channel:       chanClient,
		ExportPath:    exportPath,
		Meter:         st.ClientMeter,
		RekeyInterval: cfg.RekeyInterval,
		Recovery:      cfg.Recovery,
	}
	if cfg.DiskCache {
		dir := cfg.DiskCacheDir
		if dir == "" {
			var err error
			dir, err = os.MkdirTemp("", "sgfs-cache-*")
			if err != nil {
				st.Close()
				return nil, err
			}
			st.onClose(func() { os.RemoveAll(dir) })
		}
		dc, err := cache.New(dir, cfg.BlockSize, 4<<30)
		if err != nil {
			st.Close()
			return nil, err
		}
		st.onClose(func() { dc.Close() })
		ccfg.DiskCache = dc
		st.CacheStats = dc.Stats
	}
	cp, err := proxy.NewClientProxy(ccfg)
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("bench: client proxy: %w", err)
	}
	cpL, err := listen()
	if err != nil {
		st.Close()
		return nil, err
	}
	go cp.Serve(cpL)
	st.onClose(func() { cp.Close() })
	st.Flush = cp.FlushAll

	fs, err := nfsclient.Mount(ctx, nfsclient.Dialer(dialTo(cpL.Addr().String())), exportPath, clientOpts)
	if err != nil {
		st.Close()
		return nil, err
	}
	st.onClose(func() { fs.Close() })
	st.FS = V3FS{fs}
	return st, nil
}

// buildSFSStack assembles the sfs baseline.
func buildSFSStack(st *Stack, cfg StackConfig, nfsAddr, exportPath string, wan netem.Config, clientOpts nfsclient.Options) (*Stack, error) {
	ctx := context.Background()
	st.ClientMeter = &metrics.Meter{}
	st.ServerMeter = &metrics.Meter{}
	serverCred, err := gridsec.NewSelfSigned("sfs-server")
	if err != nil {
		st.Close()
		return nil, err
	}
	userCred, err := gridsec.NewSelfSigned("sfs-user")
	if err != nil {
		st.Close()
		return nil, err
	}
	srv, err := sfs.NewServer(sfs.ServerConfig{
		UpstreamDial: func() (net.Conn, error) { return net.Dial("tcp", nfsAddr) },
		ExportPath:   exportPath,
		Credential:   serverCred,
		Users: map[string]idmap.Account{
			gridsec.KeyFingerprint(userCred.Cert): {Name: "bench", UID: 1000, GID: 1000},
		},
		Meter: st.ServerMeter,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	srvL, err := listen()
	if err != nil {
		st.Close()
		return nil, err
	}
	go srv.Serve(srvL)
	st.onClose(srv.Close)

	cli, err := sfs.NewClient(sfs.ClientConfig{
		ServerDial: netem.Dialer(func() (net.Conn, error) { return net.Dial("tcp", srvL.Addr().String()) }, wan),
		HostID:     sfs.HostID(serverCred),
		Credential: userCred,
		ExportPath: exportPath,
		Meter:      st.ClientMeter,
	})
	if err != nil {
		st.Close()
		return nil, err
	}
	cliL, err := listen()
	if err != nil {
		st.Close()
		return nil, err
	}
	go cli.Serve(cliL)
	st.onClose(cli.Close)

	fs, err := nfsclient.Mount(ctx, nfsclient.Dialer(dialTo(cliL.Addr().String())), exportPath, clientOpts)
	if err != nil {
		st.Close()
		return nil, err
	}
	st.onClose(func() { fs.Close() })
	st.FS = V3FS{fs}
	return st, nil
}

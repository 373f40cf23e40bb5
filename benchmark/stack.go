package main

import (
	"context"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"os"
	pathpkg "path"
	"strings"
	"time"

	"repro/internal/acl"
	"repro/internal/cache"
	"repro/internal/gridmap"
	"repro/internal/gridsec"
	"repro/internal/idmap"
	"repro/internal/metrics"
	"repro/internal/mountd"
	"repro/internal/nfs3"
	"repro/internal/nfsclient"
	"repro/internal/oncrpc"
	"repro/internal/proxy"
	"repro/internal/securechan"
	"repro/internal/vfs"
)

// The benchmark assembles the real stack in one process from the
// product packages' public constructors:
//
//	nfsclient -> client proxy [+ disk cache] -> securechan -> (link)
//	          -> server proxy [gridmap, ACL] -> nfs3 server -> vfs.MemFS
//
// with one TCP connection per hop over loopback. It carries its own
// wiring (not internal/bench's) so later edits there cannot move the
// baseline.

const (
	exportPath = "/GFS/bench"
	workRoot   = "w" // the directory every workload lives under; it carries the inherited ACL
	blockSize  = 32 << 10
	benchUID   = 1000
	benchGID   = 1000
)

// pki is the grid trust domain: made once per process, outside set-up
// timing, like certificates that already sit on disk.
type pki struct {
	roots      *x509.CertPool
	user, host *gridsec.Credential
}

func newPKI() (*pki, error) {
	ca, err := gridsec.NewCA("Benchmark Grid")
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
	return &pki{roots: ca.Pool(), user: user, host: host}, nil
}

// stackConfig is what varies between workloads.
type stackConfig struct {
	rtt       time.Duration // 0 = LAN: no link wrapper at all
	diskCache bool          // client proxy disk cache with write-back
	pageCache int64         // nfsclient page cache bytes
	tr        *tracer       // nil = untraced: no tap, wrapper or Meter is installed
	// wrapFS, when set, wraps the backend the nfs3 server sees; tests use
	// it to inject corruption and prove the audits catch it.
	wrapFS func(vfs.FS) vfs.FS
}

// meters are the four product busy-time hooks, one per component so
// the channel's time is not folded into its proxy's.
type meters struct {
	proxyClient, proxyServer, chanClient, chanServer *metrics.Meter
}

type stack struct {
	fs      *nfsclient.FileSystem
	backend *vfs.MemFS
	cp      *proxy.ClientProxy
	sp      *proxy.ServerProxy
	dc      *cache.DiskCache
	link    *delayLink
	m       *meters // nil when untraced
	closers []func() error
	scratch []byte // preload and audit buffer, made on first use
}

// buf returns the stack's 1 MiB scratch buffer. Preloading and
// auditing thousands of small files must not allocate (and zero) one
// each: set-up time is a gated metric.
func (s *stack) buf() []byte {
	if s.scratch == nil {
		s.scratch = make([]byte, 1<<20)
	}
	return s.scratch
}

func (s *stack) onClose(f func() error) { s.closers = append(s.closers, f) }

// close tears the stack down, client side first; the client proxy
// flushes any write-back data on the way. It is safe to call twice.
func (s *stack) close() error {
	var errs []error
	for i := len(s.closers) - 1; i >= 0; i-- {
		errs = append(errs, s.closers[i]())
	}
	s.closers = nil
	return errors.Join(errs...)
}

// noError adapts a Close that cannot fail.
func noError(f func()) func() error {
	return func() error { f(); return nil }
}

func dialTo(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// build assembles the stack into st. On error the caller closes st,
// which releases whatever was built so far.
func (st *stack) build(cfg stackConfig, p *pki) error {
	st.backend = vfs.NewMemFS()
	var err error
	tr := cfg.tr
	suites := []securechan.Suite{securechan.SuiteAES256SHA1}
	chanServer := &securechan.Config{Credential: p.host, Roots: p.roots, Suites: suites}
	chanClient := &securechan.Config{Credential: p.user, Roots: p.roots, Suites: suites}
	var proxyClientMeter, proxyServerMeter *metrics.Meter
	if tr != nil {
		st.m = &meters{&metrics.Meter{}, &metrics.Meter{}, &metrics.Meter{}, &metrics.Meter{}}
		proxyClientMeter, proxyServerMeter = st.m.proxyClient, st.m.proxyServer
		chanClient.Meter, chanServer.Meter = st.m.chanClient, st.m.chanServer
	}

	// The NFS server the server proxy fronts.
	var served vfs.FS = st.backend
	if cfg.wrapFS != nil {
		served = cfg.wrapFS(served)
	}
	if tr != nil {
		served = &timedFS{inner: served, tr: tr}
	}
	rpc := oncrpc.NewServer()
	nfs3.NewServer(served, 1).Register(rpc)
	md := mountd.NewServer()
	md.AddExport(&mountd.Export{Path: exportPath, FS: served})
	md.Register(rpc)
	nfsL, err := listenLoopback()
	if err != nil {
		return err
	}
	go rpc.Serve(nfsL)
	st.onClose(noError(rpc.Close))

	mode := uint32(0755)
	uid, gid := uint32(benchUID), uint32(benchGID)
	if _, _, err := st.backend.Mkdir(st.backend.Root(), workRoot, vfs.SetAttr{Mode: &mode, UID: &uid, GID: &gid}); err != nil {
		return fmt.Errorf("mkdir %s: %w", workRoot, err)
	}

	// Server proxy: gridmap-mapped user, fine-grained ACLs on.
	upstream := dialTo(nfsL.Addr().String())
	if tr != nil {
		upstream = (&rpcTap{tr: tr, layer: layerServer}).dialer(upstream)
	}
	gmap := gridmap.New(gridmap.Deny)
	gmap.Add(p.user.DN(), "bench")
	accounts := idmap.NewTable()
	accounts.Add(idmap.Account{Name: "bench", UID: benchUID, GID: benchGID})
	sp, err := proxy.NewServerProxy(proxy.ServerConfig{
		UpstreamDial: upstream,
		ExportPath:   exportPath,
		Channel:      chanServer,
		Gridmap:      gmap,
		Accounts:     accounts,
		FineGrained:  true,
		Meter:        proxyServerMeter,
	})
	if err != nil {
		return fmt.Errorf("server proxy: %w", err)
	}
	st.sp = sp
	st.onClose(noError(sp.Close))
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	grant := acl.New()
	grant.Grant(p.user.DN(), acl.PermAll)
	if err := st.sp.SetACL(ctx, workRoot, grant); err != nil {
		return fmt.Errorf("set ACL: %w", err)
	}
	spL, err := listenLoopback()
	if err != nil {
		return err
	}
	go st.sp.Serve(spL)

	// The hop the secure channel crosses: securechan -> tap -> link -> TCP.
	st.link = newDelayLink(cfg.rtt)
	toServer := dialTo(spL.Addr().String())
	serverDial := func() (net.Conn, error) {
		c, err := toServer()
		if err != nil {
			return nil, err
		}
		if cfg.rtt > 0 {
			c = st.link.wrap(c)
		}
		if tr != nil {
			c = &wanTapConn{Conn: c, tr: tr}
		}
		return c, nil
	}

	ccfg := proxy.ClientConfig{
		ServerDial: serverDial,
		Channel:    chanClient,
		ExportPath: exportPath,
		Meter:      proxyClientMeter,
	}
	if cfg.diskCache {
		dir, err := os.MkdirTemp("", "sgfs-benchmark-cache-*")
		if err != nil {
			return err
		}
		st.onClose(func() error { return os.RemoveAll(dir) })
		st.dc, err = cache.New(dir, blockSize, 4<<30)
		if err != nil {
			return err
		}
		st.onClose(st.dc.Close)
		ccfg.DiskCache = st.dc
	}
	st.cp, err = proxy.NewClientProxy(ccfg)
	if err != nil {
		return fmt.Errorf("client proxy: %w", err)
	}
	st.onClose(st.cp.Close)
	cpL, err := listenLoopback()
	if err != nil {
		return err
	}
	go st.cp.Serve(cpL)

	local := dialTo(cpL.Addr().String())
	if tr != nil {
		local = (&rpcTap{tr: tr, layer: layerClient}).dialer(local)
	}
	fs, err := nfsclient.Mount(ctx, nfsclient.Dialer(local), exportPath, nfsclient.Options{
		BlockSize:  blockSize,
		CacheBytes: cfg.pageCache,
		UID:        benchUID,
		GID:        benchGID,
	})
	if err != nil {
		return fmt.Errorf("mount: %w", err)
	}
	st.fs = fs
	st.onClose(fs.Close)
	return nil
}

// Direct backend access: preloading before a run and auditing after it
// bypass the stack, so neither costs RPCs nor warms any cache.

// backendDir resolves (creating as needed) a slash path of directories
// under the export root.
func (s *stack) backendDir(path string) (vfs.Handle, error) {
	h := s.backend.Root()
	mode := uint32(0755)
	uid, gid := uint32(benchUID), uint32(benchGID)
	for _, name := range strings.FieldsFunc(path, func(r rune) bool { return r == '/' }) {
		next, _, err := s.backend.Lookup(h, name)
		if errors.Is(err, vfs.ErrNoEnt) {
			next, _, err = s.backend.Mkdir(h, name, vfs.SetAttr{Mode: &mode, UID: &uid, GID: &gid})
		}
		if err != nil {
			return h, fmt.Errorf("backend dir %s: %w", path, err)
		}
		h = next
	}
	return h, nil
}

// preload creates path in the backend with the model content for
// (seed, path). The file is sized with one write at its final offset
// first, so MemFS's copy-on-extend runs once, not per block.
func (s *stack) preload(seed uint64, path string, size int64) error {
	dirPath, name := pathpkg.Split(path)
	dir, err := s.backendDir(dirPath)
	if err != nil {
		return err
	}
	mode := uint32(0644)
	uid, gid := uint32(benchUID), uint32(benchGID)
	h, _, err := s.backend.Create(dir, name, vfs.SetAttr{Mode: &mode, UID: &uid, GID: &gid}, true)
	if err != nil {
		return fmt.Errorf("preload %s: %w", path, err)
	}
	key := contentKey(seed, path)
	buf := s.buf()
	if size > 8 {
		fillContent(buf[:8], key, size-8)
		if err := s.backend.Write(h, uint64(size-8), buf[:8]); err != nil {
			return err
		}
	}
	for off := int64(0); off < size; off += int64(len(buf)) {
		n := int64(len(buf))
		if size-off < n {
			n = size - off
		}
		fillContent(buf[:n], key, off)
		if err := s.backend.Write(h, uint64(off), buf[:n]); err != nil {
			return err
		}
	}
	return nil
}

// auditFile compares every byte of path in the backend against the
// model and returns a description of the first difference, or "".
func (s *stack) auditFile(seed uint64, path string, size int64) string {
	dirPath, name := pathpkg.Split(path)
	dir, err := s.backendDir(dirPath)
	if err != nil {
		return err.Error()
	}
	h, attr, err := s.backend.Lookup(dir, name)
	if err != nil {
		return fmt.Sprintf("%s: %v", path, err)
	}
	if int64(attr.Size) != size {
		return fmt.Sprintf("%s: size %d, model says %d", path, attr.Size, size)
	}
	key := contentKey(seed, path)
	buf := s.buf()
	for off := int64(0); off < size; {
		n, _, err := s.backend.Read(h, uint64(off), buf)
		if err != nil || n == 0 {
			return fmt.Sprintf("%s: read at %d: n=%d err=%v", path, off, n, err)
		}
		if bad := checkContent(buf[:n], key, off, 1); bad > 0 {
			return fmt.Sprintf("%s: %d corrupt words in [%d,%d)", path, bad, off, off+int64(n))
		}
		off += int64(n)
	}
	return ""
}

// backendRemove unlinks path in the backend directly.
func (s *stack) backendRemove(path string) error {
	dirPath, name := pathpkg.Split(path)
	dir, err := s.backendDir(dirPath)
	if err != nil {
		return err
	}
	return s.backend.Remove(dir, name)
}

// auditAbsent reports whether path is gone from the backend.
func (s *stack) auditAbsent(path string) string {
	dirPath, name := pathpkg.Split(path)
	dir, err := s.backendDir(dirPath)
	if err != nil {
		return err.Error()
	}
	if _, _, err := s.backend.Lookup(dir, name); !errors.Is(err, vfs.ErrNoEnt) {
		return fmt.Sprintf("%s: removed by the workload but Lookup says %v", path, err)
	}
	return ""
}

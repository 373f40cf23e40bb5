package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/gridsec"
	"repro/internal/mountd"
	"repro/internal/nfs3"
	"repro/internal/nfsclient"
	"repro/internal/oncrpc"
	"repro/internal/proxy"
	"repro/internal/vfs"
)

const sampleConfig = `
# SGFS client session
role = client
export = /GFS/alice
server = 127.0.0.1:4000
security = aes256cbc-sha1
cert = /tmp/cert.pem
key = /tmp/key.pem
ca = /tmp/ca.pem
disk_cache = /tmp/cache
cache_size = 1048576
rekey_interval = 30m
`

func TestParseConfig(t *testing.T) {
	cfg, err := Parse(strings.NewReader(sampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Role != RoleClient || cfg.Export != "/GFS/alice" || cfg.Server != "127.0.0.1:4000" {
		t.Fatalf("parsed %+v", cfg)
	}
	if cfg.CacheBytes != 1048576 || cfg.RekeyInterval != 30*time.Minute {
		t.Fatalf("numeric fields: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if !cfg.Secure() {
		t.Fatal("secure config not detected")
	}
}

func TestParseRejectsUnknownKey(t *testing.T) {
	if _, err := Parse(strings.NewReader("bogus = 1\n")); err == nil {
		t.Fatal("unknown key accepted")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []string{
		"role = client\nexport = /x\n",                             // no server
		"role = server\nexport = /x\n",                             // no upstream
		"role = banana\nexport = /x\n",                             // bad role
		"role = client\nserver = a:1\n",                            // no export
		"role = client\nexport = /x\nserver = a:1\nsecurity = des", // bad suite
		"role = server\nexport = /x\nupstream = a:1\nsecurity = aes\ncert = c\nkey = k\nca = a\n", // secure server, no gridmap
		"role = client\nexport = /x\nserver = a:1\nblock_size = -1\n",                             // negative block size
		"role = client\nexport = /x\nserver = a:1\ndisk_cache = /c\ncache_size = -4096\n",         // negative capacity
	}
	for _, src := range cases {
		cfg, err := Parse(strings.NewReader(src))
		if err != nil {
			continue // parse-level rejection also acceptable
		}
		if err := cfg.Validate(); err == nil {
			t.Errorf("validated bad config %q", src)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	cfg, _ := Parse(strings.NewReader(sampleConfig))
	out, err := Parse(bytes.NewReader(cfg.Serialize()))
	if err != nil {
		t.Fatal(err)
	}
	if out.Server != cfg.Server || out.Security != cfg.Security || out.CacheBytes != cfg.CacheBytes ||
		out.RekeyInterval != cfg.RekeyInterval {
		t.Fatalf("round trip: %+v vs %+v", out, cfg)
	}
}

const replicatedConfig = `
role = client
export = /GFS/alice
servers = fs1:4000, fs2:4000, fs3:4000
replicas = 3
quorum = 2
hedge_delay = 25ms
`

func TestParseReplicatedConfig(t *testing.T) {
	cfg, err := Parse(strings.NewReader(replicatedConfig))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Servers) != 3 || cfg.Servers[1] != "fs2:4000" {
		t.Fatalf("servers: %+v", cfg.Servers)
	}
	if cfg.Replicas != 3 || cfg.Quorum != 2 || cfg.HedgeDelay != 25*time.Millisecond {
		t.Fatalf("replication knobs: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}

	// Serialize must round-trip the replication fields.
	out, err := Parse(bytes.NewReader(cfg.Serialize()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Servers) != 3 || out.Replicas != 3 || out.Quorum != 2 || out.HedgeDelay != cfg.HedgeDelay {
		t.Fatalf("round trip: %+v", out)
	}

	// Validation sanity: replication knobs need a server list, and
	// quorum/replicas cannot exceed what the list can hold.
	bad := []string{
		"role = client\nexport = /x\nserver = a:1\nreplicas = 2\n",
		"role = client\nexport = /x\nservers = a:1,b:1\nreplicas = 3\n",
		"role = client\nexport = /x\nservers = a:1,b:1\nquorum = 3\n",
		"role = client\nexport = /x\nservers = a:1,b:1,c:1\nreplicas = 2\nquorum = 3\n",
	}
	for _, src := range bad {
		cfg, err := Parse(strings.NewReader(src))
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if err := cfg.Validate(); err == nil {
			t.Errorf("validated bad config %q", src)
		}
	}
}

// TestReplicatedSessionFromConfig starts three server sessions and a
// replicated client session purely from Config structs and checks a
// write lands on every backend.
func TestReplicatedSessionFromConfig(t *testing.T) {
	backends := make([]*vfs.MemFS, 3)
	addrs := make([]string, 3)
	for i := range backends {
		backends[i] = vfs.NewMemFS()
		addrs[i] = plainServer(t, backends[i], uint64(i+1)).Addr()
	}

	cli, err := StartClientSession(&Config{
		Role: RoleClient, Export: "/GFS/alice",
		Servers: addrs, Replicas: 3, Quorum: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })

	payload := []byte("replicated from config")
	put(t, mountSession(t, cli), "conf.txt", payload)
	if err := cli.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Quorum acks at 2 of 3; poll for the straggler.
	for i, be := range backends {
		deadline := time.Now().Add(10 * time.Second)
		for !bytes.Equal(stored(be, "conf.txt"), payload) {
			if time.Now().After(deadline) {
				t.Fatalf("backend %d never converged: %q", i, stored(be, "conf.txt"))
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	if snap, ok := cli.ReplicaStats(); !ok || snap.QuorumWrites == 0 {
		t.Fatalf("replica stats: ok=%v %+v", ok, snap)
	}
}

// TestSessionsEndToEnd drives the full config-file path: write certs,
// gridmap and accounts to disk, start both sessions from Config
// structs, mount through them, and reconfigure live.
func TestSessionsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ca, err := gridsec.NewCA("Core Grid")
	if err != nil {
		t.Fatal(err)
	}
	alice, _ := ca.IssueUser("alice")
	bob, _ := ca.IssueUser("bob")
	host, _ := ca.IssueHost("fs")
	caPath := filepath.Join(dir, "ca.pem")
	ca.SaveCertPEM(caPath)
	aliceCert, aliceKey := filepath.Join(dir, "alice.pem"), filepath.Join(dir, "alice.key")
	alice.SavePEM(aliceCert, aliceKey)
	bobCert, bobKey := filepath.Join(dir, "bob.pem"), filepath.Join(dir, "bob.key")
	bob.SavePEM(bobCert, bobKey)
	hostCert, hostKey := filepath.Join(dir, "host.pem"), filepath.Join(dir, "host.key")
	host.SavePEM(hostCert, hostKey)

	gridmapPath := filepath.Join(dir, "gridmap")
	writeFile(t, gridmapPath, `"`+alice.DN()+`" alice`+"\n")
	accountsPath := filepath.Join(dir, "accounts")
	writeFile(t, accountsPath, "alice 5001 500\n")

	// NFS server.
	backend := vfs.NewMemFS()
	nfsAddr := serveNFS(t, backend, 9)

	srv, err := StartServerSession(&Config{
		Role: RoleServer, Export: "/GFS/alice",
		Upstream: nfsAddr,
		Security: "aes", CertPath: hostCert, KeyPath: hostKey, CAPath: caPath,
		GridmapPath: gridmapPath, AccountsPath: accountsPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	cli, err := StartClientSession(&Config{
		Role: RoleClient, Export: "/GFS/alice",
		Server:   srv.Addr(),
		Security: "aes", CertPath: aliceCert, KeyPath: aliceKey, CAPath: caPath,
		CacheDir: filepath.Join(dir, "cache"), CacheBytes: 1 << 20, BlockSize: 32 * 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })

	ctx := context.Background()
	fs := mountSession(t, cli)
	put(t, fs, "hello", []byte("through config files"))

	// Force a rekey on the live session.
	if err := cli.Rekey(); err != nil {
		t.Fatal(err)
	}
	g, err := fs.Open(ctx, "hello")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	n, _ := g.Read(ctx, buf)
	if string(buf[:n]) != "through config files" {
		t.Fatalf("read after rekey: %q", buf[:n])
	}

	// Flush the write-back data and check the server got it under
	// alice's mapped uid.
	if err := cli.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	_, attr, err := backend.Lookup(backend.Root(), "hello")
	if err != nil {
		t.Fatal(err)
	}
	if attr.UID != 5001 {
		t.Fatalf("server-side uid %d", attr.UID)
	}

	// Bob is not in the gridmap yet: his session must be refused.
	if _, err := StartClientSession(&Config{
		Role: RoleClient, Export: "/GFS/alice", Server: srv.Addr(),
		Security: "aes", CertPath: bobCert, KeyPath: bobKey, CAPath: caPath,
	}); err == nil {
		t.Fatal("unmapped bob established a session")
	}

	// Reconfigure: alice shares with bob by adding his DN to her
	// gridmap and signalling a reload.
	writeFile(t, gridmapPath,
		`"`+alice.DN()+`" alice`+"\n"+`"`+bob.DN()+`" alice`+"\n")
	if err := srv.Reconfigure(&Config{
		Role: RoleServer, Export: "/GFS/alice", Upstream: nfsAddr,
		Security: "aes", CertPath: hostCert, KeyPath: hostKey, CAPath: caPath,
		GridmapPath: gridmapPath, AccountsPath: accountsPath,
	}); err != nil {
		t.Fatal(err)
	}
	bobSess, err := StartClientSession(&Config{
		Role: RoleClient, Export: "/GFS/alice", Server: srv.Addr(),
		Security: "aes", CertPath: bobCert, KeyPath: bobKey, CAPath: caPath,
	})
	if err != nil {
		t.Fatalf("bob denied after gridmap reload: %v", err)
	}
	bobSess.Close()
}

// serveNFS starts an NFS server exporting backend at /GFS/alice for
// the length of the test and returns its address.
func serveNFS(t *testing.T, backend vfs.FS, fsid uint64) string {
	t.Helper()
	rpc := oncrpc.NewServer()
	t.Cleanup(rpc.Close)
	addr, err := mountd.ServeNFS(rpc, "/GFS/alice", backend, fsid)
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

// TestClientSessionZeroCacheDefaults: a hand-built Config that names a
// cache directory and leaves BlockSize and CacheBytes zero gets the
// documented defaults. A zero block size reaching the client proxy is a
// division by zero on the first WRITE.
func TestClientSessionZeroCacheDefaults(t *testing.T) {
	backend := vfs.NewMemFS()
	cli, err := StartClientSession(&Config{
		Role: RoleClient, Export: "/GFS/alice", Server: plainServer(t, backend, 3).Addr(),
		CacheDir: filepath.Join(t.TempDir(), "cache"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })

	ctx := context.Background()
	fs := mountSession(t, cli)
	payload := bytes.Repeat([]byte("zero-default "), 8000) // spans blocks
	put(t, fs, "z.dat", payload)
	g, err := fs.Open(ctx, "z.dat")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload)+1)
	if n, err := g.ReadAt(ctx, got, 0); !bytes.Equal(got[:n], payload) {
		t.Fatalf("read back %d bytes (err %v), want the %d written", n, err, len(payload))
	}
	if err := cli.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if got := stored(backend, "z.dat"); !bytes.Equal(got, payload) {
		t.Fatalf("backend holds %d bytes after Flush, want %d", len(got), len(payload))
	}
	if st, ok := cli.CacheStats(); !ok || st.FlushedBytes == 0 {
		t.Fatalf("cache stats after flush: ok=%v %+v", ok, st)
	}
}

// TestClientSessionSurvivesServerRestart: a client session started
// from a config outlives a restart of its server side on the same
// address. The next call after the restart re-establishes the session
// and goes through.
func TestClientSessionSurvivesServerRestart(t *testing.T) {
	backend := vfs.NewMemFS()
	nfsAddr := serveNFS(t, backend, 5)
	scfg := &Config{Role: RoleServer, Export: "/GFS/alice", Upstream: nfsAddr}
	srv, err := StartServerSession(scfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg.Listen = srv.Addr()
	cli, err := StartClientSession(&Config{Role: RoleClient, Export: "/GFS/alice", Server: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	fs := mountSession(t, cli)
	put(t, fs, "before", []byte("first server"))

	srv.Close()
	if srv, err = StartServerSession(scfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	put(t, fs, "after", []byte("restarted server"))
	if got := stored(backend, "after"); string(got) != "restarted server" {
		t.Fatalf("backend holds %q after the restart", got)
	}
}

// TestClientStartFailureClosesCache: the client side's last step
// failing (its listen address is in use) unwinds through the session's
// one teardown, and that teardown closes a disk cache whichever other
// parts are missing.
func TestClientStartFailureClosesCache(t *testing.T) {
	srv := plainServer(t, vfs.NewMemFS(), 4)
	pcfg := proxy.ClientConfig{ServerDial: dialTo(srv.Addr()), ExportPath: "/GFS/alice"}
	if cli, err := StartClient(pcfg, srv.Addr(), t.TempDir(), 0, 0); err == nil {
		cli.Close()
		t.Fatal("client side started on an address in use")
	}

	dir := t.TempDir()
	dc, err := cache.New(dir, 4096, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := dc.PutBlock(nfs3.FH3{Data: []byte("fh")}, 0, make([]byte, 4096), true); err != nil {
		t.Fatal(err)
	}
	if err := (&ClientSession{dc: dc}).Close(); err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Fatalf("%d cache file(s) left open after the teardown of a half-started session", len(left))
	}
}

// plainServer starts an insecure server session over an NFS server
// exporting backend, for the length of the test.
func plainServer(t *testing.T, backend vfs.FS, fsid uint64) *ServerSession {
	t.Helper()
	srv, err := StartServerSession(&Config{
		Role: RoleServer, Export: "/GFS/alice", Upstream: serveNFS(t, backend, fsid),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// mountSession mounts the export through the client session's proxy.
func mountSession(t *testing.T, cli *ClientSession) *nfsclient.FileSystem {
	t.Helper()
	fs, err := nfsclient.Mount(context.Background(), dialTo(cli.Addr()), "/GFS/alice", nfsclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

// put writes payload into a new file through the mount.
func put(t *testing.T, fs *nfsclient.FileSystem, name string, payload []byte) {
	t.Helper()
	ctx := context.Background()
	f, err := fs.Create(ctx, name, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(ctx, payload); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// stored returns what the backend holds of a root-level file, nil when
// it is not there.
func stored(be *vfs.MemFS, name string) []byte {
	h, attr, err := be.Lookup(be.Root(), name)
	if err != nil {
		return nil
	}
	buf := make([]byte, attr.Size)
	n, _, _ := be.Read(h, 0, buf)
	return buf[:n]
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0644); err != nil {
		t.Fatal(err)
	}
}

package sgfs

import (
	"context"
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/vfs"
)

type fixture struct {
	ca    *CA
	alice *Credential
	bob   *Credential
	host  *Credential
	srv   *Server
}

func newFixture(t *testing.T, cfgMod func(*ServerConfig)) *fixture {
	t.Helper()
	ca, err := NewCA("Facade Grid")
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{ca: ca}
	f.alice, _ = ca.IssueUser("alice")
	f.bob, _ = ca.IssueUser("bob")
	f.host, _ = ca.IssueHost("fs1")
	cfg := ServerConfig{
		ExportPath: "/GFS/alice",
		Host:       f.host,
		Roots:      ca.Pool(),
		Gridmap:    map[string]string{f.alice.DN(): "alice"},
		Accounts:   []Account{{Name: "alice", UID: 5001, GID: 500}},
	}
	if cfgMod != nil {
		cfgMod(&cfg)
	}
	srv, err := StartServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	f.srv = srv
	return f
}

func (f *fixture) mount(t *testing.T, user *Credential, mod func(*MountConfig)) *FileSystem {
	t.Helper()
	cfg := MountConfig{
		ServerAddr: f.srv.Addr(),
		ExportPath: "/GFS/alice",
		User:       user,
		Roots:      f.ca.Pool(),
	}
	if mod != nil {
		mod(&cfg)
	}
	fs, err := Mount(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Unmount() })
	return fs
}

func TestFacadeEndToEnd(t *testing.T) {
	f := newFixture(t, nil)
	fs := f.mount(t, f.alice, nil)
	ctx := context.Background()
	file, err := fs.Create(ctx, "results.dat", 0644)
	if err != nil {
		t.Fatal(err)
	}
	file.Write(ctx, []byte("facade data"))
	if err := file.Close(ctx); err != nil {
		t.Fatal(err)
	}
	g, err := fs.Open(ctx, "results.dat")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	n, err := g.Read(ctx, buf)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf[:n]) != "facade data" {
		t.Fatalf("got %q", buf[:n])
	}
}

func TestFacadeDeniesUnmappedUser(t *testing.T) {
	f := newFixture(t, nil)
	_, err := Mount(context.Background(), MountConfig{
		ServerAddr: f.srv.Addr(), ExportPath: "/GFS/alice",
		User: f.bob, Roots: f.ca.Pool(),
	})
	if err == nil {
		t.Fatal("unmapped bob mounted")
	}
}

func TestFacadeShareAndRevoke(t *testing.T) {
	f := newFixture(t, nil)
	f.srv.Share(f.bob.DN(), "alice")
	fs := f.mount(t, f.bob, nil)
	ctx := context.Background()
	file, err := fs.Create(ctx, "from-bob", 0644)
	if err != nil {
		t.Fatal(err)
	}
	file.Close(ctx)
	// Revocation is checked at the handshake, so it stops new
	// connections, a live session's next reconnect among them. A
	// connection already open keeps its mapped account until it ends:
	// neither revocation, cert expiry nor reconfiguration closes it.
	f.srv.Revoke(f.bob.DN())
	if _, err := Mount(context.Background(), MountConfig{
		ServerAddr: f.srv.Addr(), ExportPath: "/GFS/alice",
		User: f.bob, Roots: f.ca.Pool(),
	}); err == nil {
		t.Fatal("revoked bob mounted")
	}
}

func TestFacadeProxyDelegation(t *testing.T) {
	f := newFixture(t, nil)
	proxyCred, err := f.alice.IssueProxy(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	fs := f.mount(t, proxyCred, nil)
	ctx := context.Background()
	file, err := fs.Create(ctx, "delegated", 0644)
	if err != nil {
		t.Fatal(err)
	}
	file.Close(ctx)
}

func TestFacadeFineGrainedACL(t *testing.T) {
	f := newFixture(t, func(c *ServerConfig) { c.FineGrained = true })
	fs := f.mount(t, f.alice, nil)
	ctx := context.Background()
	file, _ := fs.Create(ctx, "controlled", 0666)
	file.Close(ctx)
	a := NewACL()
	a.Grant(f.alice.DN(), PermRead)
	if err := f.srv.SetACL(ctx, "controlled", a); err != nil {
		t.Fatal(err)
	}
	granted, err := fs.Access(ctx, "controlled", vfs.AccessRead|vfs.AccessModify)
	if err != nil {
		t.Fatal(err)
	}
	if granted != vfs.AccessRead|vfs.AccessLookup&granted {
		if granted&vfs.AccessModify != 0 {
			t.Fatalf("write granted despite read-only ACL: %x", granted)
		}
	}
}

func TestFacadeDiskCacheAndFlush(t *testing.T) {
	f := newFixture(t, nil)
	fs := f.mount(t, f.alice, func(c *MountConfig) {
		c.DiskCacheDir = t.TempDir()
	})
	ctx := context.Background()
	file, _ := fs.Create(ctx, "cached", 0644)
	file.Write(ctx, make([]byte, 100000))
	file.Close(ctx)
	if err := fs.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	stats, ok := fs.CacheStats()
	if !ok || stats.FlushedBytes == 0 {
		t.Fatalf("flush stats %+v ok=%v", stats, ok)
	}
}

func TestFacadeRekey(t *testing.T) {
	f := newFixture(t, nil)
	fs := f.mount(t, f.alice, nil)
	if err := fs.Rekey(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	file, err := fs.Create(ctx, "after-rekey", 0644)
	if err != nil {
		t.Fatal(err)
	}
	file.Close(ctx)
}

func TestFacadeRequiresCredentials(t *testing.T) {
	if _, err := StartServer(ServerConfig{ExportPath: "/x"}); err == nil {
		t.Fatal("server started without credentials")
	}
	if _, err := Mount(context.Background(), MountConfig{}); err == nil {
		t.Fatal("mount without credentials")
	}
}

func TestFacadeOSFSBackend(t *testing.T) {
	dir := t.TempDir()
	// With a real directory backend, the mapped file account must own
	// the exported files — map alice to the test process's identity.
	uid, gid := uint32(os.Getuid()), uint32(os.Getgid())
	f := newFixture(t, func(c *ServerConfig) {
		c.DataDir = dir
		c.Accounts = []Account{{Name: "alice", UID: uid, GID: gid}}
	})
	fs := f.mount(t, f.alice, nil)
	ctx := context.Background()
	file, err := fs.Create(ctx, "ondisk.txt", 0644)
	if err != nil {
		t.Fatal(err)
	}
	file.Write(ctx, []byte("real disk"))
	if err := file.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// The file must exist on the host file system.
	data, err := readHostFile(dir + "/ondisk.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "real disk" {
		t.Fatalf("host file %q", data)
	}
}

func readHostFile(path string) ([]byte, error) { return os.ReadFile(path) }

package services

import (
	"context"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/gridsec"
	"repro/internal/mountd"
	"repro/internal/nfsclient"
	"repro/internal/oncrpc"
	"repro/internal/vfs"
)

// testGrid is a full service deployment: CA, DSS, two FSSs, an NFS
// server, and user credentials.
type testGrid struct {
	ca      *gridsec.CA
	caPEM   string
	admin   *gridsec.Credential
	alice   *gridsec.Credential
	dssCred *gridsec.Credential
	fssCred *gridsec.Credential
	dss     *DSS
	dssURL  string
	fssURL  string // one FSS plays both client and server host
	fss     *FSS
	backend *vfs.MemFS
	nfsAddr string
}

func newGrid(t *testing.T) *testGrid {
	t.Helper()
	g := &testGrid{}
	var err error
	g.ca, err = gridsec.NewCA("Services Grid")
	if err != nil {
		t.Fatal(err)
	}
	caPath := filepath.Join(t.TempDir(), "ca.pem")
	g.ca.SaveCertPEM(caPath)
	caPEM, _ := os.ReadFile(caPath)
	g.caPEM = string(caPEM)
	g.admin, _ = g.ca.IssueUser("admin")
	g.alice, _ = g.ca.IssueUser("alice")
	g.dssCred, _ = g.ca.IssueHost("dss.grid")
	g.fssCred, _ = g.ca.IssueHost("fss.grid")

	// NFS backend.
	g.backend, g.nfsAddr = newNFSBackend(t, 5)

	// FSS: authorizes the DSS and admin.
	g.fss, err = NewFSS(FSSConfig{
		Credential: g.fssCred,
		Roots:      g.ca.Pool(),
		Authorize: func(dn string) bool {
			return dn == g.dssCred.DN() || dn == g.admin.DN()
		},
		WorkDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.fss.Close)
	fssSrv := httptest.NewServer(g.fss)
	t.Cleanup(fssSrv.Close)
	g.fssURL = fssSrv.URL

	// DSS.
	g.dss, err = NewDSS(DSSConfig{
		Credential:  g.dssCred,
		Roots:       g.ca.Pool(),
		Admins:      []string{g.admin.DN()},
		DBPath:      filepath.Join(t.TempDir(), "dss.json"),
		CABundlePEM: g.caPEM,
	})
	if err != nil {
		t.Fatal(err)
	}
	dssSrv := httptest.NewServer(g.dss)
	t.Cleanup(dssSrv.Close)
	g.dssURL = dssSrv.URL
	return g
}

func (g *testGrid) grantAlice(t *testing.T) {
	t.Helper()
	if _, err := Call(g.dssURL, "GrantAccess", &GrantAccessRequest{
		Export: "/GFS/alice", DN: g.alice.DN(), Account: "alice", UID: 5001, GID: 500,
	}, g.admin, g.ca.Pool(), nil); err != nil {
		t.Fatal(err)
	}
}

func (g *testGrid) schedule(t *testing.T) *ScheduleSessionResponse {
	t.Helper()
	proxy, err := g.alice.IssueProxy(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	certPEM, keyPEM, err := credentialPEM(proxy)
	if err != nil {
		t.Fatal(err)
	}
	var res ScheduleSessionResponse
	if _, err := Call(g.dssURL, "ScheduleSession", &ScheduleSessionRequest{
		Export:       "/GFS/alice",
		ServerFSS:    g.fssURL,
		ClientFSS:    g.fssURL,
		Upstream:     g.nfsAddr,
		Suite:        "aes",
		ProxyCertPEM: certPEM,
		ProxyKeyPEM:  keyPEM,
	}, g.alice, g.ca.Pool(), &res); err != nil {
		t.Fatal(err)
	}
	return &res
}

// newNFSBackend starts an NFS server exporting /GFS/alice.
func newNFSBackend(t *testing.T, fsid uint64) (*vfs.MemFS, string) {
	t.Helper()
	be := vfs.NewMemFS()
	rpc := oncrpc.NewServer()
	t.Cleanup(rpc.Close)
	addr, err := mountd.ServeNFS(rpc, "/GFS/alice", be, fsid)
	if err != nil {
		t.Fatal(err)
	}
	return be, addr
}

func TestScheduleReplicatedSessionEndToEnd(t *testing.T) {
	g := newGrid(t)
	g.grantAlice(t)
	be2, addr2 := newNFSBackend(t, 6)
	be3, addr3 := newNFSBackend(t, 7)
	backends := []*vfs.MemFS{g.backend, be2, be3}

	proxy, err := g.alice.IssueProxy(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	certPEM, keyPEM, err := credentialPEM(proxy)
	if err != nil {
		t.Fatal(err)
	}
	var res ScheduleSessionResponse
	if _, err := Call(g.dssURL, "ScheduleSession", &ScheduleSessionRequest{
		Export:       "/GFS/alice",
		ServerFSSs:   []string{g.fssURL, g.fssURL, g.fssURL},
		Upstreams:    []string{g.nfsAddr, addr2, addr3},
		ClientFSS:    g.fssURL,
		Suite:        "aes",
		Quorum:       2,
		ProxyCertPEM: certPEM,
		ProxyKeyPEM:  keyPEM,
		DiskCache:    true,
	}, g.alice, g.ca.Pool(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.ServerIDs) != 3 || len(res.ServerAddrs) != 3 {
		t.Fatalf("got %d server IDs / %d addrs, want 3/3", len(res.ServerIDs), len(res.ServerAddrs))
	}
	if res.MountAddr == "" {
		t.Fatal("no mount address")
	}

	// Mount through the replicated session and write through the
	// write-back cache.
	ctx := context.Background()
	addr := res.MountAddr
	fs, err := nfsclient.Mount(ctx, func() (net.Conn, error) { return net.Dial("tcp", addr) },
		"/GFS/alice", nfsclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	payload := []byte("replicated via DSS and three FSS-scheduled proxies")
	f, err := fs.Create(ctx, "replicated.txt", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(ctx, payload); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := Call(g.fssURL, "FlushSession", &FlushSessionRequest{ID: res.ClientID},
		g.admin, g.ca.Pool(), nil); err != nil {
		t.Fatal(err)
	}

	// The flush acks at quorum (2 of 3); the straggler leg drains in
	// the background, so poll each backend for convergence.
	for i, be := range backends {
		var got []byte
		deadline := time.Now().Add(10 * time.Second)
		for {
			if h, _, err := be.Lookup(be.Root(), "replicated.txt"); err == nil {
				buf := make([]byte, len(payload)+16)
				if n, _, err := be.Read(h, 0, buf); err == nil {
					got = buf[:n]
				}
			}
			if string(got) == string(payload) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("backend %d never converged: got %q", i, got)
			}
			time.Sleep(20 * time.Millisecond)
		}
		// Identity mapping applies on every replica.
		if _, attr, err := be.Lookup(be.Root(), "replicated.txt"); err != nil || attr.UID != 5001 {
			t.Fatalf("backend %d: uid %d err %v, want 5001", i, attr.UID, err)
		}
	}

	for _, id := range append([]string{res.ClientID}, res.ServerIDs...) {
		if _, err := Call(g.fssURL, "DestroySession", &DestroySessionRequest{ID: id},
			g.admin, g.ca.Pool(), nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestScheduleReplicatedRollsBackOnFailure(t *testing.T) {
	g := newGrid(t)
	g.grantAlice(t)
	proxy, _ := g.alice.IssueProxy(time.Hour)
	certPEM, keyPEM, _ := credentialPEM(proxy)

	// Second replica's FSS endpoint is dead: the whole schedule must
	// fault and the session created on the first FSS must be rolled
	// back, not leaked as a half-provisioned replica set.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + l.Addr().String()
	l.Close()
	if _, err := Call(g.dssURL, "ScheduleSession", &ScheduleSessionRequest{
		Export:       "/GFS/alice",
		ServerFSSs:   []string{g.fssURL, dead},
		Upstreams:    []string{g.nfsAddr, g.nfsAddr},
		ClientFSS:    g.fssURL,
		Suite:        "aes",
		ProxyCertPEM: certPEM,
		ProxyKeyPEM:  keyPEM,
	}, g.alice, g.ca.Pool(), &ScheduleSessionResponse{}); err == nil {
		t.Fatal("schedule with a dead replica FSS succeeded")
	}
	g.fss.mu.Lock()
	leaked := len(g.fss.sessions)
	g.fss.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("rollback leaked %d sessions", leaked)
	}

	// Mismatched FSS/upstream lists fault before any session exists.
	if _, err := Call(g.dssURL, "ScheduleSession", &ScheduleSessionRequest{
		Export:       "/GFS/alice",
		ServerFSSs:   []string{g.fssURL, g.fssURL},
		Upstreams:    []string{g.nfsAddr},
		ClientFSS:    g.fssURL,
		Suite:        "aes",
		ProxyCertPEM: certPEM,
		ProxyKeyPEM:  keyPEM,
	}, g.alice, g.ca.Pool(), &ScheduleSessionResponse{}); err == nil {
		t.Fatal("schedule with mismatched upstream list succeeded")
	}
}

func TestGrantRequiresAdmin(t *testing.T) {
	g := newGrid(t)
	_, err := Call(g.dssURL, "GrantAccess", &GrantAccessRequest{
		Export: "/GFS/alice", DN: g.alice.DN(), Account: "alice",
	}, g.alice, g.ca.Pool(), nil)
	if err == nil {
		t.Fatal("non-admin grant succeeded")
	}
}

func TestScheduleDeniedWithoutGrant(t *testing.T) {
	g := newGrid(t)
	proxy, _ := g.alice.IssueProxy(time.Hour)
	certPEM, keyPEM, _ := credentialPEM(proxy)
	var res ScheduleSessionResponse
	_, err := Call(g.dssURL, "ScheduleSession", &ScheduleSessionRequest{
		Export: "/GFS/alice", ServerFSS: g.fssURL, ClientFSS: g.fssURL,
		Upstream: g.nfsAddr, Suite: "aes",
		ProxyCertPEM: certPEM, ProxyKeyPEM: keyPEM,
	}, g.alice, g.ca.Pool(), &res)
	if err == nil {
		t.Fatal("unauthorized schedule succeeded")
	}
}

func TestScheduleSessionEndToEnd(t *testing.T) {
	g := newGrid(t)
	g.grantAlice(t)
	res := g.schedule(t)
	if res.MountAddr == "" {
		t.Fatal("no mount address")
	}

	// Mount through the scheduled session and do real I/O.
	ctx := context.Background()
	addr := res.MountAddr
	fs, err := nfsclient.Mount(ctx, func() (net.Conn, error) { return net.Dial("tcp", addr) },
		"/GFS/alice", nfsclient.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	f, err := fs.Create(ctx, "scheduled.txt", 0644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(ctx, []byte("via DSS and FSS"))
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Flush via the management service, then verify server-side
	// content and identity mapping.
	if _, err := Call(g.fssURL, "FlushSession", &FlushSessionRequest{ID: res.ClientID},
		g.admin, g.ca.Pool(), nil); err != nil {
		t.Fatal(err)
	}
	h, attr, err := g.backend.Lookup(g.backend.Root(), "scheduled.txt")
	_ = h
	if err != nil {
		t.Fatal(err)
	}
	if attr.UID != 5001 {
		t.Fatalf("mapped uid %d, want 5001", attr.UID)
	}

	// Rekey through the service.
	if _, err := Call(g.fssURL, "RekeySession", &RekeySessionRequest{ID: res.ClientID},
		g.admin, g.ca.Pool(), nil); err != nil {
		t.Fatal(err)
	}

	// Destroy both sessions.
	for _, id := range []string{res.ClientID, res.ServerID} {
		if _, err := Call(g.fssURL, "DestroySession", &DestroySessionRequest{ID: id},
			g.admin, g.ca.Pool(), nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFSSRejectsUnauthorizedCaller(t *testing.T) {
	g := newGrid(t)
	_, err := Call(g.fssURL, "CreateSession", &CreateSessionRequest{Role: "client"},
		g.alice /* not authorized on FSS */, g.ca.Pool(), nil)
	if err == nil {
		t.Fatal("unauthorized FSS call succeeded")
	}
}

func TestDSSDatabasePersistence(t *testing.T) {
	dir := t.TempDir()
	ca, _ := gridsec.NewCA("P")
	cred, _ := ca.IssueHost("dss")
	dbPath := filepath.Join(dir, "db.json")
	d1, err := NewDSS(DSSConfig{Credential: cred, Roots: ca.Pool(), DBPath: dbPath, CABundlePEM: "x"})
	if err != nil {
		t.Fatal(err)
	}
	d1.mu.Lock()
	d1.db["/e"] = map[string]accessEntry{"/CN=u": {Account: "u", UID: 1, GID: 2}}
	if err := d1.persist(); err != nil {
		t.Fatal(err)
	}
	d1.mu.Unlock()
	d2, err := NewDSS(DSSConfig{Credential: cred, Roots: ca.Pool(), DBPath: dbPath, CABundlePEM: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := d2.db["/e"]["/CN=u"]; !ok || e.UID != 1 {
		t.Fatal("database did not persist")
	}
}

func TestFSSSetACLAndReconfigure(t *testing.T) {
	g := newGrid(t)
	g.grantAlice(t)
	res := g.schedule(t)

	// Install a fine-grained ACL through the management plane. The
	// session was created without FineGrained, but SetACL still writes
	// the ACL file; enforcement needs a fine-grained session, so here
	// we only verify the operation plumbs through and the ACL file
	// lands on the server backend.
	_, err := Call(g.fssURL, "SetACL", &SetACLRequest{
		ID:   res.ServerID,
		Path: "shared.bin",
		Entries: []ACLEntryXML{
			{DN: g.alice.DN(), Perm: "rw"},
		},
	}, g.admin, g.ca.Pool(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.backend.Lookup(g.backend.Root(), ".shared.bin.acl"); err != nil {
		t.Fatalf("ACL file not created on backend: %v", err)
	}

	// Reconfigure the server session's gridmap live.
	bob, _ := g.ca.IssueUser("bob")
	newGridmap := "\"" + g.alice.DN() + "\" alice\n\"" + bob.DN() + "\" alice\n"
	if _, err := Call(g.fssURL, "ReconfigureSession", &ReconfigureSessionRequest{
		ID:      res.ServerID,
		Gridmap: newGridmap,
	}, g.admin, g.ca.Pool(), nil); err != nil {
		t.Fatal(err)
	}

	// Operations against the wrong session kind fault cleanly.
	if _, err := Call(g.fssURL, "SetACL", &SetACLRequest{ID: res.ClientID, Path: "x"},
		g.admin, g.ca.Pool(), nil); err == nil {
		t.Fatal("SetACL on a client session succeeded")
	}
	if _, err := Call(g.fssURL, "RekeySession", &RekeySessionRequest{ID: res.ServerID},
		g.admin, g.ca.Pool(), nil); err == nil {
		t.Fatal("Rekey on a server session succeeded")
	}
	if _, err := Call(g.fssURL, "DestroySession", &DestroySessionRequest{ID: "nonexistent"},
		g.admin, g.ca.Pool(), nil); err == nil {
		t.Fatal("destroy of unknown session succeeded")
	}
}

func TestRevokeAccess(t *testing.T) {
	g := newGrid(t)
	g.grantAlice(t)
	if _, err := Call(g.dssURL, "RevokeAccess", &RevokeAccessRequest{
		Export: "/GFS/alice", DN: g.alice.DN(),
	}, g.admin, g.ca.Pool(), nil); err != nil {
		t.Fatal(err)
	}
	// Scheduling must now fail.
	proxy, _ := g.alice.IssueProxy(time.Hour)
	certPEM, keyPEM, _ := credentialPEM(proxy)
	_, err := Call(g.dssURL, "ScheduleSession", &ScheduleSessionRequest{
		Export: "/GFS/alice", ServerFSS: g.fssURL, ClientFSS: g.fssURL,
		Upstream: g.nfsAddr, Suite: "aes",
		ProxyCertPEM: certPEM, ProxyKeyPEM: keyPEM,
	}, g.alice, g.ca.Pool(), &ScheduleSessionResponse{})
	if err == nil {
		t.Fatal("revoked user scheduled a session")
	}
}

func TestDSSUnknownAction(t *testing.T) {
	g := newGrid(t)
	if _, err := Call(g.dssURL, "FrobnicateGrid", &GrantAccessRequest{}, g.admin, g.ca.Pool(), nil); err == nil {
		t.Fatal("unknown action accepted")
	}
}

func TestCASAuthorizerHook(t *testing.T) {
	// A dedicated community authorization service supplants the DSS
	// database (§4.4).
	ca, _ := gridsec.NewCA("CAS Grid")
	cred, _ := ca.IssueHost("dss")
	alice, _ := ca.IssueUser("alice")
	d, err := NewDSS(DSSConfig{
		Credential:  cred,
		Roots:       ca.Pool(),
		CABundlePEM: "x",
		Authorizer: func(export, dn string) (string, uint32, uint32, bool) {
			return "casacct", 7, 8, dn == alice.DN() && export == "/GFS/cas"
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := d.lookupAccess("/GFS/cas", alice.DN()); !ok || e.Account != "casacct" {
		t.Fatalf("CAS grant: %+v %v", e, ok)
	}
	if _, ok := d.lookupAccess("/GFS/other", alice.DN()); ok {
		t.Fatal("CAS authorized the wrong export")
	}
}

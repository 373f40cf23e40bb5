// Services: session establishment through the WSRF-style management
// plane (§3.2, §4.4 of the paper).
//
// An in-process grid is assembled: a Data Scheduler Service (DSS) with
// a per-filesystem access database, a File System Service (FSS)
// playing both the compute-node and file-server host, and an NFS
// server. An administrator grants alice access over WS-Security-signed
// SOAP; alice then delegates a proxy certificate to the DSS, which
// schedules the whole SGFS session on her behalf — server proxy,
// generated gridmap, client proxy — and hands back a mount address.
//
// Run with: go run ./examples/services
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/gridsec"
	"repro/internal/mountd"
	"repro/internal/nfsclient"
	"repro/internal/oncrpc"
	"repro/internal/services"
	"repro/internal/vfs"
)

func main() {
	// PKI for the demo grid.
	ca, err := gridsec.NewCA("Managed Grid")
	check(err)
	tmp, err := os.MkdirTemp("", "sgfs-services-demo-*")
	check(err)
	defer os.RemoveAll(tmp)
	caPath := filepath.Join(tmp, "ca.pem")
	check(ca.SaveCertPEM(caPath))
	caPEM, err := os.ReadFile(caPath)
	check(err)
	admin, err := ca.IssueUser("admin")
	check(err)
	alice, err := ca.IssueUser("alice")
	check(err)
	dssCred, err := ca.IssueHost("dss.grid")
	check(err)
	fssCred, err := ca.IssueHost("node1.grid")
	check(err)

	// The file server's NFS backend (exported to localhost only).
	backend := vfs.NewMemFS()
	rpc := oncrpc.NewServer()
	nfsAddr, err := mountd.ServeNFS(rpc, "/GFS/alice", backend, 1)
	check(err)
	defer rpc.Close()

	// FSS and DSS endpoints.
	fss, err := services.NewFSS(services.FSSConfig{
		Credential: fssCred,
		Roots:      ca.Pool(),
		Authorize: func(dn string) bool {
			return dn == dssCred.DN() || dn == admin.DN()
		},
	})
	check(err)
	defer fss.Close()
	fssL, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go http.Serve(fssL, fss)
	fssURL := "http://" + fssL.Addr().String()

	dss, err := services.NewDSS(services.DSSConfig{
		Credential:  dssCred,
		Roots:       ca.Pool(),
		Admins:      []string{admin.DN()},
		CABundlePEM: string(caPEM),
	})
	check(err)
	dssL, err := net.Listen("tcp", "127.0.0.1:0")
	check(err)
	go http.Serve(dssL, dss)
	dssURL := "http://" + dssL.Addr().String()
	fmt.Println("DSS at", dssURL, "— FSS at", fssURL)

	// 1. The admin authorizes alice on the export (signed SOAP).
	_, err = services.Call(dssURL, "GrantAccess", &services.GrantAccessRequest{
		Export: "/GFS/alice", DN: alice.DN(), Account: "alice", UID: 5001, GID: 500,
	}, admin, ca.Pool(), nil)
	check(err)
	fmt.Println("admin granted", alice.DN())

	// 2. Alice delegates a 12h proxy certificate and asks the DSS to
	//    schedule a session.
	proxyCred, err := alice.IssueProxy(12 * time.Hour)
	check(err)
	certPath := filepath.Join(tmp, "proxy.pem")
	keyPath := filepath.Join(tmp, "proxy.key")
	check(proxyCred.SavePEM(certPath, keyPath))
	certPEM, err := os.ReadFile(certPath)
	check(err)
	keyPEM, err := os.ReadFile(keyPath)
	check(err)

	var res services.ScheduleSessionResponse
	_, err = services.Call(dssURL, "ScheduleSession", &services.ScheduleSessionRequest{
		Export:       "/GFS/alice",
		ServerFSS:    fssURL,
		ClientFSS:    fssURL,
		Upstream:     nfsAddr,
		Suite:        "aes",
		ProxyCertPEM: string(certPEM),
		ProxyKeyPEM:  string(keyPEM),
	}, alice, ca.Pool(), &res)
	check(err)
	fmt.Printf("DSS scheduled session: server %s, client %s, mount %s\n",
		res.ServerID, res.ClientID, res.MountAddr)

	// 3. Alice's job mounts the session and works normally.
	ctx := context.Background()
	addr := res.MountAddr
	fs, err := nfsclient.Mount(ctx,
		func() (net.Conn, error) { return net.Dial("tcp", addr) },
		"/GFS/alice", nfsclient.Options{})
	check(err)
	f, err := fs.Create(ctx, "job-output.dat", 0644)
	check(err)
	_, err = f.Write(ctx, []byte("computed on the grid\n"))
	check(err)
	check(f.Close(ctx))
	check(fs.Close())
	fmt.Println("alice's job wrote job-output.dat through the managed session")

	// 4. The admin flushes and destroys the session via the FSS.
	_, err = services.Call(fssURL, "FlushSession",
		&services.FlushSessionRequest{ID: res.ClientID}, admin, ca.Pool(), nil)
	check(err)
	for _, id := range []string{res.ClientID, res.ServerID} {
		_, err = services.Call(fssURL, "DestroySession",
			&services.DestroySessionRequest{ID: id}, admin, ca.Pool(), nil)
		check(err)
	}
	fmt.Println("session flushed and destroyed through the management plane")

	// Proof: the data landed on the server under alice's account.
	h, attr, err := backend.Lookup(backend.Root(), "job-output.dat")
	check(err)
	_ = h
	fmt.Printf("server-side file owned by uid %d (alice's mapped account)\n", attr.UID)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// Command sgfs-admin talks to the SGFS management services: granting
// and revoking export access in the DSS database, scheduling sessions,
// and managing running sessions through an FSS.
//
// Usage:
//
//	sgfs-admin grant   -dss http://dss:8400 -export /GFS/alice -dn "/C=.../CN=bob" -account alice -uid 5001 -gid 500
//	sgfs-admin revoke  -dss http://dss:8400 -export /GFS/alice -dn "/C=.../CN=bob"
//	sgfs-admin schedule -dss http://dss:8400 -export /GFS/alice \
//	    -server-fss http://fs:8401 -client-fss http://node:8401 \
//	    -upstream 127.0.0.1:20049 -suite aes -cache
//	sgfs-admin schedule -dss http://dss:8400 -export /GFS/alice \
//	    -server-fss http://fs1:8401,http://fs2:8401,http://fs3:8401 \
//	    -upstream 127.0.0.1:20049,127.0.0.1:20049,127.0.0.1:20049 \
//	    -client-fss http://node:8401 -quorum 2
//	sgfs-admin destroy -fss http://node:8401 -id <session-id>
//	sgfs-admin rekey   -fss http://node:8401 -id <session-id>
//	sgfs-admin flush   -fss http://node:8401 -id <session-id>
//	sgfs-admin setacl  -fss http://fs:8401 -id <session-id> -path data.bin -entry "/C=.../CN=bob=r"
//
// All commands sign their requests with -cert/-key and verify
// responses against -ca.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/gridsec"
	"repro/internal/services"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	certPath := fs.String("cert", "", "signing certificate PEM")
	keyPath := fs.String("key", "", "signing key PEM")
	caPath := fs.String("ca", "", "trusted CA PEM")
	dssURL := fs.String("dss", "", "DSS endpoint URL")
	fssURL := fs.String("fss", "", "FSS endpoint URL")
	export := fs.String("export", "", "export path")
	dn := fs.String("dn", "", "grid user distinguished name")
	account := fs.String("account", "", "local account name")
	uid := fs.Uint("uid", 0, "account uid")
	gid := fs.Uint("gid", 0, "account gid")
	serverFSS := fs.String("server-fss", "", "server-host FSS URL (comma-separate for a replicated session)")
	clientFSS := fs.String("client-fss", "", "client-host FSS URL")
	upstream := fs.String("upstream", "", "NFS server address on the file server (comma-separate to pair with -server-fss)")
	suite := fs.String("suite", "aes", "channel suite")
	cache := fs.Bool("cache", false, "enable disk caching on the client proxy")
	quorum := fs.Int("quorum", 0, "write acks required for a replicated session (0 = majority)")
	id := fs.String("id", "", "session id")
	path := fs.String("path", "", "path within the export (setacl)")
	entries := fs.String("entry", "", "comma-separated DN=perm ACL entries (setacl)")
	fs.Parse(os.Args[2:])

	cred, err := gridsec.LoadPEM(*certPath, *keyPath)
	if err != nil {
		log.Fatalf("sgfs-admin: %v", err)
	}
	roots, err := gridsec.LoadCAPool(*caPath)
	if err != nil {
		log.Fatalf("sgfs-admin: %v", err)
	}

	switch cmd {
	case "grant":
		_, err = services.Call(*dssURL, "GrantAccess", &services.GrantAccessRequest{
			Export: *export, DN: *dn, Account: *account, UID: uint32(*uid), GID: uint32(*gid),
		}, cred, roots, nil)
		report(err, "granted %s on %s", *dn, *export)
	case "revoke":
		_, err = services.Call(*dssURL, "RevokeAccess", &services.RevokeAccessRequest{
			Export: *export, DN: *dn,
		}, cred, roots, nil)
		report(err, "revoked %s on %s", *dn, *export)
	case "schedule":
		// Delegate via a fresh proxy certificate so the services act
		// on this user's behalf without the long-term key.
		proxy, perr := cred.IssueProxy(12 * time.Hour)
		if perr != nil {
			log.Fatalf("sgfs-admin: %v", perr)
		}
		certPEM, keyPEM, perr := credentialToPEM(proxy)
		if perr != nil {
			log.Fatalf("sgfs-admin: %v", perr)
		}
		sreq := &services.ScheduleSessionRequest{
			Export: *export, ClientFSS: *clientFSS, Suite: *suite,
			ProxyCertPEM: certPEM, ProxyKeyPEM: keyPEM,
			DiskCache: *cache,
		}
		if fssList := splitList(*serverFSS); len(fssList) > 1 {
			sreq.ServerFSSs = fssList
			sreq.Upstreams = splitList(*upstream)
			sreq.Quorum = *quorum
		} else {
			sreq.ServerFSS = *serverFSS
			sreq.Upstream = *upstream
		}
		var res services.ScheduleSessionResponse
		_, err = services.Call(*dssURL, "ScheduleSession", sreq, cred, roots, &res)
		if err == nil {
			fmt.Printf("session scheduled:\n  server session %s at %s\n  client session %s\n  mount address %s\n",
				res.ServerID, res.ServerAddr, res.ClientID, res.MountAddr)
			for i := range res.ServerIDs {
				fmt.Printf("  replica %d: session %s at %s\n", i, res.ServerIDs[i], res.ServerAddrs[i])
			}
		}
		report(err, "")
	case "destroy":
		_, err = services.Call(*fssURL, "DestroySession", &services.DestroySessionRequest{ID: *id}, cred, roots, nil)
		report(err, "session %s destroyed", *id)
	case "rekey":
		_, err = services.Call(*fssURL, "RekeySession", &services.RekeySessionRequest{ID: *id}, cred, roots, nil)
		report(err, "session %s rekeyed", *id)
	case "flush":
		_, err = services.Call(*fssURL, "FlushSession", &services.FlushSessionRequest{ID: *id}, cred, roots, nil)
		report(err, "session %s flushed", *id)
	case "setacl":
		req := &services.SetACLRequest{ID: *id, Path: *path}
		for _, e := range strings.Split(*entries, ",") {
			eq := strings.LastIndexByte(e, '=')
			if eq <= 0 {
				log.Fatalf("sgfs-admin: bad ACL entry %q (want DN=perm)", e)
			}
			req.Entries = append(req.Entries, services.ACLEntryXML{DN: e[:eq], Perm: e[eq+1:]})
		}
		_, err = services.Call(*fssURL, "SetACL", req, cred, roots, nil)
		report(err, "ACL set on %s", *path)
	default:
		usage()
	}
}

// splitList parses a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, e := range strings.Split(s, ",") {
		if e = strings.TrimSpace(e); e != "" {
			out = append(out, e)
		}
	}
	return out
}

func report(err error, format string, args ...any) {
	if err != nil {
		log.Fatalf("sgfs-admin: %v", err)
	}
	if format != "" {
		fmt.Printf(format+"\n", args...)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sgfs-admin {grant|revoke|schedule|destroy|rekey|flush|setacl} [flags]")
	os.Exit(2)
}

// credentialToPEM renders a credential inline for delegation.
func credentialToPEM(cred *gridsec.Credential) (string, string, error) {
	dir, err := os.MkdirTemp("", "sgfs-admin-*")
	if err != nil {
		return "", "", err
	}
	defer os.RemoveAll(dir)
	cp, kp := dir+"/c.pem", dir+"/k.pem"
	if err := cred.SavePEM(cp, kp); err != nil {
		return "", "", err
	}
	c, err := os.ReadFile(cp)
	if err != nil {
		return "", "", err
	}
	k, err := os.ReadFile(kp)
	if err != nil {
		return "", "", err
	}
	return string(c), string(k), nil
}

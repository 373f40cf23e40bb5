package services

import (
	"crypto/x509"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"

	"repro/internal/gridsec"
	"repro/internal/soapmsg"
)

// DSSConfig configures a Data Scheduler Service.
type DSSConfig struct {
	// Credential signs the DSS's responses and its calls to FSSs.
	Credential *gridsec.Credential
	// Roots anchors verification of incoming messages and FSS
	// responses.
	Roots *x509.CertPool
	// Admins lists DNs allowed to manage the access database; other
	// trusted DNs may only schedule sessions they are authorized for.
	Admins []string
	// DBPath persists the access database as JSON; empty keeps it in
	// memory only.
	DBPath string
	// Authorizer, when non-nil, supplants the built-in database for
	// access decisions — the hook for a dedicated community
	// authorization service (CAS, §4.4).
	Authorizer func(export, dn string) (account string, uid, gid uint32, ok bool)
	// CABundlePEM is the trust-anchor bundle shipped to FSSs when
	// creating sessions.
	CABundlePEM string
}

// accessEntry is one DSS database record.
type accessEntry struct {
	Account string `json:"account"`
	UID     uint32 `json:"uid"`
	GID     uint32 `json:"gid"`
}

// DSS schedules SGFS sessions: it authorizes grid users against its
// per-filesystem access database (or a CAS), generates session gridmap
// files from it, and drives the client- and server-side FSSs.
type DSS struct {
	cfg DSSConfig

	mu sync.Mutex
	db map[string]map[string]accessEntry // export -> DN -> entry
}

// NewDSS creates a scheduler, loading the database when DBPath exists.
func NewDSS(cfg DSSConfig) (*DSS, error) {
	if cfg.Credential == nil || cfg.Roots == nil {
		return nil, fmt.Errorf("services: DSS requires credential and roots")
	}
	d := &DSS{cfg: cfg, db: make(map[string]map[string]accessEntry)}
	if cfg.DBPath != "" {
		if data, err := os.ReadFile(cfg.DBPath); err == nil {
			if err := json.Unmarshal(data, &d.db); err != nil {
				return nil, fmt.Errorf("services: corrupt DSS database: %w", err)
			}
		}
	}
	return d, nil
}

func (d *DSS) persist() error {
	if d.cfg.DBPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(d.db, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(d.cfg.DBPath, data, 0600)
}

func (d *DSS) isAdmin(dn string) bool {
	for _, a := range d.cfg.Admins {
		if a == dn {
			return true
		}
	}
	return false
}

// lookupAccess resolves a user's authorization for an export.
func (d *DSS) lookupAccess(export, dn string) (accessEntry, bool) {
	if d.cfg.Authorizer != nil {
		account, uid, gid, ok := d.cfg.Authorizer(export, dn)
		return accessEntry{Account: account, UID: uid, GID: gid}, ok
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.db[export][dn]
	return e, ok
}

// ServeHTTP implements the SOAP endpoint.
func (d *DSS) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(io.LimitReader(r.Body, 4<<20))
	if err != nil {
		http.Error(w, "read", http.StatusBadRequest)
		return
	}
	action, body, dn, err := soapmsg.Verify(data, d.cfg.Roots)
	if err != nil {
		d.reply(w, &FaultResponse{Reason: "authentication failed: " + err.Error()})
		return
	}
	d.reply(w, d.dispatch(action, body, dn))
}

func (d *DSS) reply(w http.ResponseWriter, v any) {
	body, err := soapmsg.MarshalBody(v)
	if err != nil {
		http.Error(w, "marshal", http.StatusInternalServerError)
		return
	}
	env, err := soapmsg.Sign("Response", body, d.cfg.Credential)
	if err != nil {
		http.Error(w, "sign", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/soap+xml")
	w.Write(env)
}

func (d *DSS) dispatch(action string, body []byte, dn string) any {
	switch action {
	case "GrantAccess":
		if !d.isAdmin(dn) {
			return &FaultResponse{Reason: "only admins may grant access"}
		}
		var req GrantAccessRequest
		if err := soapmsg.UnmarshalBody(body, &req); err != nil {
			return &FaultResponse{Reason: err.Error()}
		}
		d.mu.Lock()
		if d.db[req.Export] == nil {
			d.db[req.Export] = make(map[string]accessEntry)
		}
		d.db[req.Export][req.DN] = accessEntry{Account: req.Account, UID: req.UID, GID: req.GID}
		err := d.persist()
		d.mu.Unlock()
		if err != nil {
			return &FaultResponse{Reason: err.Error()}
		}
		return &OKResponse{}
	case "RevokeAccess":
		if !d.isAdmin(dn) {
			return &FaultResponse{Reason: "only admins may revoke access"}
		}
		var req RevokeAccessRequest
		if err := soapmsg.UnmarshalBody(body, &req); err != nil {
			return &FaultResponse{Reason: err.Error()}
		}
		d.mu.Lock()
		delete(d.db[req.Export], req.DN)
		err := d.persist()
		d.mu.Unlock()
		if err != nil {
			return &FaultResponse{Reason: err.Error()}
		}
		return &OKResponse{}
	case "ScheduleSession":
		var req ScheduleSessionRequest
		if err := soapmsg.UnmarshalBody(body, &req); err != nil {
			return &FaultResponse{Reason: err.Error()}
		}
		return d.schedule(&req, dn)
	default:
		return &FaultResponse{Reason: "unknown action " + action}
	}
}

// gridmapFor renders the session gridmap for an export from the
// database ("Per-filesystem based ACLs are stored in the DSS database,
// and used to automatically create gridmap files", §4.4).
func (d *DSS) gridmapFor(export string) (gm string, accounts string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	seen := map[string]bool{}
	for dn, e := range d.db[export] {
		gm += fmt.Sprintf("%q %s\n", dn, e.Account)
		if !seen[e.Account] {
			accounts += fmt.Sprintf("%s %d %d\n", e.Account, e.UID, e.GID)
			seen[e.Account] = true
		}
	}
	return gm, accounts
}

// schedule authorizes the user, then builds the session through the
// two FSSs on the user's behalf using the delegated proxy credential.
func (d *DSS) schedule(req *ScheduleSessionRequest, dn string) any {
	if _, ok := d.lookupAccess(req.Export, dn); !ok {
		return &FaultResponse{Reason: fmt.Sprintf("user %s not authorized for %s", dn, req.Export)}
	}
	gm, accounts := d.gridmapFor(req.Export)

	caPEM := d.cfg.CABundlePEM
	if caPEM == "" {
		return &FaultResponse{Reason: "DSS has no CA bundle configured"}
	}

	// Pair server FSS endpoints with upstream NFS addresses; the
	// legacy single-server fields are the one-replica case.
	replicated := len(req.ServerFSSs) > 0
	fssList, upstreams := req.ServerFSSs, req.Upstreams
	if !replicated {
		fssList, upstreams = []string{req.ServerFSS}, []string{req.Upstream}
	}
	if len(upstreams) != len(fssList) {
		return &FaultResponse{Reason: fmt.Sprintf(
			"%d server FSS endpoints but %d upstreams; they must pair up",
			len(fssList), len(upstreams))}
	}

	// 1. One server-side proxy per replica via its FSS, under the
	// DSS's own host credential for the channel endpoint. Any failure
	// rolls back every session already created — a half-provisioned
	// replica set would silently run below its intended redundancy.
	hostCertPEM, hostKeyPEM, err := credentialPEM(d.cfg.Credential)
	if err != nil {
		return &FaultResponse{Reason: err.Error()}
	}
	var serverIDs, serverAddrs []string
	rollback := func() {
		for i, id := range serverIDs {
			Call(fssList[i], "DestroySession", &DestroySessionRequest{ID: id},
				d.cfg.Credential, d.cfg.Roots, nil)
		}
	}
	for i, fss := range fssList {
		var srvRes CreateSessionResponse
		if _, err := Call(fss, "CreateSession", &CreateSessionRequest{
			Role:        "server",
			Export:      req.Export,
			Upstream:    upstreams[i],
			Suite:       req.Suite,
			CertPEM:     hostCertPEM,
			KeyPEM:      hostKeyPEM,
			CAPEM:       caPEM,
			Gridmap:     gm,
			Accounts:    accounts,
			FineGrained: req.FineGrained,
		}, d.cfg.Credential, d.cfg.Roots, &srvRes); err != nil {
			rollback()
			return &FaultResponse{Reason: fmt.Sprintf("server FSS %s: %v", fss, err)}
		}
		serverIDs = append(serverIDs, srvRes.ID)
		serverAddrs = append(serverAddrs, srvRes.Addr)
	}

	// 2. Client-side proxy via the client FSS, configured with the
	// user's delegated proxy credential so the channel authenticates
	// as the user.
	creq := &CreateSessionRequest{
		Role:      "client",
		Export:    req.Export,
		Suite:     req.Suite,
		CertPEM:   req.ProxyCertPEM,
		KeyPEM:    req.ProxyKeyPEM,
		CAPEM:     caPEM,
		DiskCache: req.DiskCache,
	}
	if replicated {
		creq.Servers = serverAddrs
		creq.Quorum = req.Quorum
	} else {
		creq.Server = serverAddrs[0]
	}
	var cliRes CreateSessionResponse
	if _, err := Call(req.ClientFSS, "CreateSession", creq,
		d.cfg.Credential, d.cfg.Roots, &cliRes); err != nil {
		rollback()
		return &FaultResponse{Reason: "client FSS: " + err.Error()}
	}

	res := &ScheduleSessionResponse{
		ServerID:   serverIDs[0],
		ClientID:   cliRes.ID,
		MountAddr:  cliRes.Addr,
		ServerAddr: serverAddrs[0],
	}
	if replicated {
		res.ServerIDs = serverIDs
		res.ServerAddrs = serverAddrs
	}
	return res
}

// credentialPEM renders a credential's chain and key as PEM strings.
func credentialPEM(cred *gridsec.Credential) (certPEM, keyPEM string, err error) {
	dir, err := os.MkdirTemp("", "sgfs-dss-pem-*")
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

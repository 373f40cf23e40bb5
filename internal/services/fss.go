package services

import (
	"context"
	"crypto/rand"
	"crypto/x509"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/acl"
	"repro/internal/core"
	"repro/internal/gridsec"
	"repro/internal/soapmsg"
)

// FSSConfig configures a File System Service.
type FSSConfig struct {
	// Credential signs the FSS's responses and outbound calls.
	Credential *gridsec.Credential
	// Roots anchors verification of incoming messages.
	Roots *x509.CertPool
	// Authorize vets the signer DN of each request; nil admits any DN
	// with a trusted certificate.
	Authorize func(dn string) bool
	// WorkDir holds per-session credential and gridmap files. A temp
	// directory is created when empty.
	WorkDir string
}

// FSS is the per-host File System Service: it starts, configures and
// destroys the SGFS proxy sessions on its host on behalf of
// authorized (WS-Security authenticated) callers.
type FSS struct {
	cfg FSSConfig

	mu       sync.Mutex
	sessions map[string]*fssSession
}

type fssSession struct {
	server *core.ServerSession
	client *core.ClientSession
	dir    string
}

// NewFSS creates a service instance.
func NewFSS(cfg FSSConfig) (*FSS, error) {
	if cfg.Credential == nil || cfg.Roots == nil {
		return nil, fmt.Errorf("services: FSS requires credential and roots")
	}
	if cfg.WorkDir == "" {
		dir, err := os.MkdirTemp("", "sgfs-fss-*")
		if err != nil {
			return nil, err
		}
		cfg.WorkDir = dir
	}
	return &FSS{cfg: cfg, sessions: make(map[string]*fssSession)}, nil
}

// Close destroys all sessions.
func (f *FSS) Close() {
	f.mu.Lock()
	sessions := f.sessions
	f.sessions = make(map[string]*fssSession)
	f.mu.Unlock()
	for _, s := range sessions {
		s.close()
	}
}

func (s *fssSession) close() {
	if s.server != nil {
		s.server.Close()
	}
	if s.client != nil {
		s.client.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// ServeHTTP implements the SOAP endpoint.
func (f *FSS) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(io.LimitReader(r.Body, 4<<20))
	if err != nil {
		http.Error(w, "read", http.StatusBadRequest)
		return
	}
	action, body, dn, err := soapmsg.Verify(data, f.cfg.Roots)
	if err != nil {
		f.reply(w, &FaultResponse{Reason: "authentication failed: " + err.Error()})
		return
	}
	if f.cfg.Authorize != nil && !f.cfg.Authorize(dn) {
		f.reply(w, &FaultResponse{Reason: "authorization denied for " + dn})
		return
	}
	res := f.dispatch(action, body)
	f.reply(w, res)
}

func (f *FSS) reply(w http.ResponseWriter, v any) {
	body, err := soapmsg.MarshalBody(v)
	if err != nil {
		http.Error(w, "marshal", http.StatusInternalServerError)
		return
	}
	env, err := soapmsg.Sign("Response", body, f.cfg.Credential)
	if err != nil {
		http.Error(w, "sign", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/soap+xml")
	w.Write(env)
}

func (f *FSS) dispatch(action string, body []byte) any {
	switch action {
	case "CreateSession":
		var req CreateSessionRequest
		if err := soapmsg.UnmarshalBody(body, &req); err != nil {
			return &FaultResponse{Reason: err.Error()}
		}
		return f.createSession(&req)
	case "DestroySession":
		var req DestroySessionRequest
		if err := soapmsg.UnmarshalBody(body, &req); err != nil {
			return &FaultResponse{Reason: err.Error()}
		}
		return f.destroySession(req.ID)
	case "RekeySession":
		var req RekeySessionRequest
		if err := soapmsg.UnmarshalBody(body, &req); err != nil {
			return &FaultResponse{Reason: err.Error()}
		}
		return f.withSession(req.ID, func(s *fssSession) any {
			if s.client == nil {
				return &FaultResponse{Reason: "not a client session"}
			}
			if err := s.client.Rekey(); err != nil {
				return &FaultResponse{Reason: err.Error()}
			}
			return &OKResponse{}
		})
	case "FlushSession":
		var req FlushSessionRequest
		if err := soapmsg.UnmarshalBody(body, &req); err != nil {
			return &FaultResponse{Reason: err.Error()}
		}
		return f.withSession(req.ID, func(s *fssSession) any {
			if s.client == nil {
				return &FaultResponse{Reason: "not a client session"}
			}
			if err := s.client.Flush(context.Background()); err != nil {
				return &FaultResponse{Reason: err.Error()}
			}
			return &OKResponse{}
		})
	case "ReconfigureSession":
		var req ReconfigureSessionRequest
		if err := soapmsg.UnmarshalBody(body, &req); err != nil {
			return &FaultResponse{Reason: err.Error()}
		}
		return f.reconfigure(&req)
	case "SetACL":
		var req SetACLRequest
		if err := soapmsg.UnmarshalBody(body, &req); err != nil {
			return &FaultResponse{Reason: err.Error()}
		}
		return f.setACL(&req)
	default:
		return &FaultResponse{Reason: "unknown action " + action}
	}
}

func (f *FSS) withSession(id string, fn func(*fssSession) any) any {
	f.mu.Lock()
	s, ok := f.sessions[id]
	f.mu.Unlock()
	if !ok {
		return &FaultResponse{Reason: "no session " + id}
	}
	return fn(s)
}

func newSessionID() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

func (f *FSS) createSession(req *CreateSessionRequest) any {
	id := newSessionID()
	dir := filepath.Join(f.cfg.WorkDir, "sess-"+id)
	sess := &fssSession{dir: dir}
	addr, err := sess.start(req)
	if err != nil {
		os.RemoveAll(dir)
		return &FaultResponse{Reason: err.Error()}
	}
	f.mu.Lock()
	f.sessions[id] = sess
	f.mu.Unlock()
	return &CreateSessionResponse{ID: id, Addr: addr}
}

// start writes the request's credential, gridmap and accounts files
// into the session's directory and starts the proxy session they
// configure, returning its address.
func (s *fssSession) start(req *CreateSessionRequest) (addr string, err error) {
	if err := os.MkdirAll(s.dir, 0700); err != nil {
		return "", err
	}
	// write stores one non-empty file and returns its path; after the
	// first failure it does nothing.
	write := func(name, content string, mode os.FileMode) string {
		if content == "" || err != nil {
			return ""
		}
		p := filepath.Join(s.dir, name)
		err = os.WriteFile(p, []byte(content), mode)
		return p
	}
	cfg := &core.Config{
		Role:         core.Role(req.Role),
		Export:       req.Export,
		Upstream:     req.Upstream,
		Server:       req.Server,
		Servers:      req.Servers,
		Quorum:       req.Quorum,
		HedgeDelay:   time.Duration(req.HedgeDelayMS) * time.Millisecond,
		Security:     req.Suite,
		CertPath:     write("cred.pem", req.CertPEM, 0644),
		KeyPath:      write("cred.key", req.KeyPEM, 0600),
		CAPath:       write("ca.pem", req.CAPEM, 0644),
		GridmapPath:  write("gridmap", req.Gridmap, 0644),
		AccountsPath: write("accounts", req.Accounts, 0644),
		FineGrained:  req.FineGrained,
	}
	if err != nil {
		return "", err
	}
	switch cfg.Role {
	case core.RoleServer:
		if s.server, err = core.StartServerSession(cfg); err != nil {
			return "", err
		}
		return s.server.Addr(), nil
	case core.RoleClient:
		if req.DiskCache {
			cfg.CacheDir = filepath.Join(s.dir, "cache")
		}
		if s.client, err = core.StartClientSession(cfg); err != nil {
			return "", err
		}
		return s.client.Addr(), nil
	default:
		return "", fmt.Errorf("bad role %s", req.Role)
	}
}

func (f *FSS) destroySession(id string) any {
	f.mu.Lock()
	s, ok := f.sessions[id]
	delete(f.sessions, id)
	f.mu.Unlock()
	if !ok {
		return &FaultResponse{Reason: "no session " + id}
	}
	s.close()
	return &OKResponse{}
}

func (f *FSS) reconfigure(req *ReconfigureSessionRequest) any {
	return f.withSession(req.ID, func(s *fssSession) any {
		if s.server == nil {
			return &FaultResponse{Reason: "not a server session"}
		}
		gmPath := filepath.Join(s.dir, "gridmap")
		if err := os.WriteFile(gmPath, []byte(req.Gridmap), 0644); err != nil {
			return &FaultResponse{Reason: err.Error()}
		}
		cfg := &core.Config{Role: core.RoleServer, GridmapPath: gmPath}
		if err := s.server.Reconfigure(cfg); err != nil {
			return &FaultResponse{Reason: err.Error()}
		}
		return &OKResponse{}
	})
}

func (f *FSS) setACL(req *SetACLRequest) any {
	return f.withSession(req.ID, func(s *fssSession) any {
		if s.server == nil {
			return &FaultResponse{Reason: "not a server session"}
		}
		a := acl.New()
		for _, e := range req.Entries {
			mask, err := acl.ParsePerm(e.Perm)
			if err != nil {
				return &FaultResponse{Reason: err.Error()}
			}
			a.Grant(e.DN, mask)
		}
		if err := s.server.Proxy().SetACL(context.Background(), req.Path, a); err != nil {
			return &FaultResponse{Reason: err.Error()}
		}
		return &OKResponse{}
	})
}

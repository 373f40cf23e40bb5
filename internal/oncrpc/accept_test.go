package oncrpc_test

import (
	"context"
	"crypto/x509"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gridsec"
	"repro/internal/idmap"
	"repro/internal/mountd"
	"repro/internal/oncrpc"
	"repro/internal/proxy"
	"repro/internal/securechan"
	"repro/internal/sfs"
	"repro/internal/vfs"
)

// flakyListener fails its first n Accepts with a temporary error.
type flakyListener struct {
	net.Listener
	remaining atomic.Int32
}

type tempAcceptError struct{}

func (tempAcceptError) Error() string   { return "injected temporary accept failure" }
func (tempAcceptError) Timeout() bool   { return true }
func (tempAcceptError) Temporary() bool { return true }

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.remaining.Add(-1) >= 0 {
		return nil, tempAcceptError{}
	}
	return l.Listener.Accept()
}

// TestServeRetriesTemporaryAcceptErrors: transient accept failures
// (EMFILE-style) must not tear the listener down; the server backs
// off, retries, and keeps serving. Every daemon that accepts
// connections shares oncrpc.Server's loop, so each is held to it: the
// RPC server itself and the two that run a handshake first.
func TestServeRetriesTemporaryAcceptErrors(t *testing.T) {
	t.Parallel()
	const export = "/export"
	nfsd := oncrpc.NewServer()
	t.Cleanup(nfsd.Close)
	nfsAddr, err := mountd.ServeNFS(nfsd, export, vfs.NewMemFS(), 1)
	if err != nil {
		t.Fatal(err)
	}
	upstream := func() (net.Conn, error) { return net.Dial("tcp", nfsAddr) }

	sp, err := proxy.NewServerProxy(proxy.ServerConfig{UpstreamDial: upstream, ExportPath: export})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sp.Close)

	serverCred, _ := gridsec.NewSelfSigned("sfs-server")
	userCred, _ := gridsec.NewSelfSigned("alice")
	sfsd, err := sfs.NewServer(sfs.ServerConfig{
		UpstreamDial: upstream,
		ExportPath:   export,
		Credential:   serverCred,
		Users:        map[string]idmap.Account{gridsec.KeyFingerprint(userCred.Cert): {Name: "alice", UID: 700, GID: 700}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sfsd.Close)
	sfsChannel := &securechan.Config{
		Credential:     userCred,
		Suites:         []securechan.Suite{securechan.SuiteRC4SHA1},
		SelfCertifying: true,
		VerifyPeer:     func(string, []*x509.Certificate) error { return nil },
	}

	for _, tc := range []struct {
		name    string
		serve   func(net.Listener) error
		channel *securechan.Config // what a client runs beneath RPC
	}{
		{"oncrpc.Server", nfsd.Serve, nil},
		{"ServerProxy", sp.Serve, nil},
		{"sfs.Server", sfsd.Serve, sfsChannel},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			fl := &flakyListener{Listener: l}
			fl.remaining.Store(3)
			serveDone := make(chan error, 1)
			go func() { serveDone <- tc.serve(fl) }()

			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			dial := func() (net.Conn, error) {
				raw, err := net.Dial("tcp", l.Addr().String())
				if err != nil || tc.channel == nil {
					return raw, err
				}
				return securechan.Client(raw, tc.channel)
			}
			if _, err := mountd.Mount(ctx, dial, export); err != nil {
				t.Fatalf("mount after temporary accept failures: %v", err)
			}
			if got := fl.remaining.Load(); got > 0 {
				t.Fatalf("flaky accepts not consumed: %d left", got)
			}
			// Serve must still be running (it only returns on close or a
			// permanent error).
			select {
			case err := <-serveDone:
				t.Fatalf("Serve returned early: %v", err)
			default:
			}
		})
	}
}

func TestIsTemporaryAcceptError(t *testing.T) {
	t.Parallel()
	if !oncrpc.IsTemporaryAcceptError(tempAcceptError{}) {
		t.Fatal("temporary error not recognised")
	}
	if oncrpc.IsTemporaryAcceptError(errors.New("permanent")) {
		t.Fatal("permanent error misclassified as temporary")
	}
	if oncrpc.IsTemporaryAcceptError(nil) {
		t.Fatal("nil misclassified")
	}
}

package proxy

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"testing/quick"

	"repro/internal/nfs3"
	"repro/internal/nfsclient"
	"repro/internal/securechan"
)

func TestAtRestCryptRoundTrip(t *testing.T) {
	t.Parallel()
	key := bytes.Repeat([]byte{7}, 32)
	fh := nfs3.FH3{Data: []byte("file-1")}
	plain := []byte("confidential seismic traces")
	ct := atRestCrypt(key, fh, 0, plain)
	if bytes.Equal(ct, plain) {
		t.Fatal("ciphertext equals plaintext")
	}
	back := atRestCrypt(key, fh, 0, ct)
	if !bytes.Equal(back, plain) {
		t.Fatal("round trip failed")
	}
}

func TestAtRestCryptOffsetConsistency(t *testing.T) {
	t.Parallel()
	// Encrypting a buffer in one call must equal encrypting it in
	// arbitrary-offset pieces — the property block-at-a-time flush and
	// range reads rely on.
	key := bytes.Repeat([]byte{9}, 32)
	fh := nfs3.FH3{Data: []byte("f")}
	plain := make([]byte, 1000)
	for i := range plain {
		plain[i] = byte(i * 13)
	}
	whole := atRestCrypt(key, fh, 0, plain)
	for _, split := range []int{1, 15, 16, 17, 100, 999} {
		a := atRestCrypt(key, fh, 0, plain[:split])
		b := atRestCrypt(key, fh, uint64(split), plain[split:])
		if !bytes.Equal(append(a, b...), whole) {
			t.Fatalf("split at %d diverges", split)
		}
	}
}

func TestAtRestCryptPerFileKeys(t *testing.T) {
	t.Parallel()
	key := bytes.Repeat([]byte{1}, 32)
	plain := bytes.Repeat([]byte{0}, 64)
	c1 := atRestCrypt(key, nfs3.FH3{Data: []byte("a")}, 0, plain)
	c2 := atRestCrypt(key, nfs3.FH3{Data: []byte("b")}, 0, plain)
	if bytes.Equal(c1, c2) {
		t.Fatal("distinct files share keystream")
	}
}

func TestQuickAtRestRoundTrip(t *testing.T) {
	t.Parallel()
	key := bytes.Repeat([]byte{3}, 32)
	fh := nfs3.FH3{Data: []byte("q")}
	f := func(data []byte, offset uint32) bool {
		off := uint64(offset)
		return bytes.Equal(atRestCrypt(key, fh, off, atRestCrypt(key, fh, off, data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestAtRestEndToEnd drives the full stack with a storage key and
// verifies the server only ever holds ciphertext while the client
// round-trips plaintext — in both cached and uncached modes.
func TestAtRestEndToEnd(t *testing.T) {
	t.Parallel()
	for _, mode := range []string{"nocache", "diskcache"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			st := buildStack(t, stackOpts{})
			storageKey := bytes.Repeat([]byte{42}, 32)
			ccfg := ClientConfig{
				ServerDial: func() (net.Conn, error) { return net.Dial("tcp", st.serverProxyAddr(t)) },
				ExportPath: "/GFS/alice",
				Channel:    &securechan.Config{Credential: st.alice, Roots: st.ca.Pool()},
				StorageKey: storageKey,
			}
			if mode == "diskcache" {
				ccfg.DiskCache = newDiskCache(t)
			}
			cp, err := NewClientProxy(ccfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			addr := serveOn(t, cp.Serve)
			fs, err := nfsclient.Mount(ctx,
				func() (net.Conn, error) { return net.Dial("tcp", addr) },
				"/GFS/alice", nfsclient.Options{})
			if err != nil {
				t.Fatal(err)
			}
			secret := bytes.Repeat([]byte("TOP-SECRET "), 5000) // multi-block
			f, err := fs.Create(ctx, "classified.dat", 0600)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(ctx, secret, 0); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(ctx); err != nil {
				t.Fatal(err)
			}
			if mode == "diskcache" {
				if err := cp.FlushAll(ctx); err != nil {
					t.Fatal(err)
				}
			}

			// The server-side backend must hold ciphertext only.
			h, _, err := st.backend.Lookup(st.backend.Root(), "classified.dat")
			if err != nil {
				t.Fatal(err)
			}
			attr, _ := st.backend.GetAttr(h)
			if attr.Size != uint64(len(secret)) {
				t.Fatalf("at-rest encryption changed the size: %d vs %d", attr.Size, len(secret))
			}
			raw := make([]byte, len(secret))
			n, _, _ := st.backend.Read(h, 0, raw)
			if bytes.Contains(raw[:n], []byte("TOP-SECRET")) {
				t.Fatal("plaintext visible on the server")
			}

			// The client reads plaintext back through the proxy.
			g, err := fs.Open(ctx, "classified.dat")
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(secret))
			if _, err := g.ReadAt(ctx, got, 0); err != nil && err != io.EOF {
				t.Fatal(err)
			}
			if !bytes.Equal(got, secret) {
				t.Fatal("decryption round trip failed")
			}
			fs.Close()
			cp.Close()
		})
	}
}

// TestAtRestWrongKeyYieldsGarbage confirms the data is actually bound
// to the key: a second session with a different storage key reads
// garbage, not plaintext.
func TestAtRestWrongKeyYieldsGarbage(t *testing.T) {
	t.Parallel()
	st := buildStack(t, stackOpts{})
	mountWithKey := func(key []byte) (*nfsclient.FileSystem, *ClientProxy) {
		cp, err := NewClientProxy(ClientConfig{
			ServerDial: func() (net.Conn, error) { return net.Dial("tcp", st.serverProxyAddr(t)) },
			ExportPath: "/GFS/alice",
			Channel:    &securechan.Config{Credential: st.alice, Roots: st.ca.Pool()},
			StorageKey: key,
		})
		if err != nil {
			t.Fatal(err)
		}
		addr := serveOn(t, cp.Serve)
		fs, err := nfsclient.Mount(context.Background(),
			func() (net.Conn, error) { return net.Dial("tcp", addr) },
			"/GFS/alice", nfsclient.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return fs, cp
	}
	ctx := context.Background()
	fs1, cp1 := mountWithKey(bytes.Repeat([]byte{1}, 32))
	f, _ := fs1.Create(ctx, "x", 0644)
	f.WriteAt(ctx, []byte("the real content"), 0)
	f.Close(ctx)
	fs1.Close()
	cp1.Close()

	fs2, cp2 := mountWithKey(bytes.Repeat([]byte{2}, 32))
	defer fs2.Close()
	defer cp2.Close()
	g, err := fs2.Open(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	g.ReadAt(ctx, buf, 0)
	if bytes.Equal(buf, []byte("the real content")) {
		t.Fatal("wrong key decrypted the data")
	}
}

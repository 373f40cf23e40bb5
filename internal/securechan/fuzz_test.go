package securechan

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/xdr"
)

// TestServerHandshakeRobustAgainstGarbage confirms a hostile peer
// sending random bytes cannot crash or wedge the accepting side.
func TestServerHandshakeRobustAgainstGarbage(t *testing.T) {
	pki := newPKI(t)
	cfg := &Config{Credential: pki.server, Roots: pki.ca.Pool(), HandshakeTimeout: 300 * time.Millisecond}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		a, b := net.Pipe()
		// Draw the junk before spawning: a lingering goroutine from a
		// previous iteration must not share the rng.
		junk := make([]byte, rng.Intn(256)+1)
		rng.Read(junk)
		go func() {
			a.Write(junk)
			a.Close()
		}()
		done := make(chan error, 1)
		go func() {
			_, err := Server(b, cfg)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("garbage handshake succeeded")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("handshake hung on garbage")
		}
	}
}

// TestClientHandshakeRobustAgainstGarbage does the same for the
// initiating side (a hostile or broken server).
func TestClientHandshakeRobustAgainstGarbage(t *testing.T) {
	pki := newPKI(t)
	cfg := &Config{Credential: pki.client, Roots: pki.ca.Pool(), HandshakeTimeout: 300 * time.Millisecond}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 8; i++ {
		a, b := net.Pipe()
		junk := make([]byte, rng.Intn(256)+1)
		rng.Read(junk)
		go func() {
			// Swallow the client hello then answer with noise.
			buf := make([]byte, 4096)
			b.Read(buf)
			b.Write(junk)
			b.Close()
		}()
		done := make(chan error, 1)
		go func() {
			_, err := Client(a, cfg)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("client accepted a garbage handshake")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("client hung on garbage server")
		}
	}
}

// FuzzHandshakeDecodeRoundTrip fuzzes the handshake wire codecs. The
// handshake decoders face pre-authentication input — any TCP peer can
// send a hello before proving identity — so they must never panic and
// must bound what they allocate regardless of the length words in the
// input. Accepted input must also re-encode to a canonical fixed point
// (encode → decode → encode).
func FuzzHandshakeDecodeRoundTrip(f *testing.F) {
	seedHello := &hello{
		Version: protocolVersion,
		Suites:  []Suite{SuiteAES256SHA1, SuiteRC4SHA1},
		Chain:   [][]byte{{0x30, 0x82, 0x01}, {0x30, 0x82, 0x02}},
		ECDHPub: bytes.Repeat([]byte{4}, 65),
		Sig:     []byte{0x30, 0x45},
	}
	seedHello.Random[0] = 0xaa
	seedFinished := &finished{Sig: []byte{0x30, 0x44}, MAC: bytes.Repeat([]byte{7}, 32)}
	for kind, msg := range []xdr.Marshaler{seedHello, seedFinished} {
		data, err := xdr.Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(kind, data)
	}
	f.Add(0, []byte{})
	f.Add(1, []byte{0, 0, 0, 0})

	fresh := func(kind int) interface {
		xdr.Marshaler
		xdr.Unmarshaler
	} {
		if kind == 0 {
			return &hello{}
		}
		return &finished{}
	}

	f.Fuzz(func(t *testing.T, kind int, data []byte) {
		if kind < 0 || kind > 1 {
			return
		}
		msg := fresh(kind)
		if err := xdr.Unmarshal(data, msg); err != nil {
			return // rejected input is fine; panics are not
		}
		first, err := xdr.Marshal(msg)
		if err != nil {
			t.Fatalf("re-encode of accepted %T failed: %v", msg, err)
		}
		again := fresh(kind)
		if err := xdr.Unmarshal(first, again); err != nil {
			t.Fatalf("decode of canonical %T encoding failed: %v", msg, err)
		}
		second, err := xdr.Marshal(again)
		if err != nil {
			t.Fatalf("second re-encode of %T failed: %v", msg, err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%T encoding is not a fixed point:\n first=%x\nsecond=%x", msg, first, second)
		}
	})
}

// TestCryptoMeterAccounts verifies the Figures 5/6 hook: a metered
// channel accumulates seal/open time on both endpoints.
func TestCryptoMeterAccounts(t *testing.T) {
	pki := newPKI(t)
	var cm, sm metrics.Meter
	ccfg := &Config{Credential: pki.client, Roots: pki.ca.Pool(), Suites: []Suite{SuiteAES256SHA1}, Meter: &cm}
	scfg := &Config{Credential: pki.server, Roots: pki.ca.Pool(), Suites: []Suite{SuiteAES256SHA1}, Meter: &sm}
	cc, sc := handshakePair(t, pki, ccfg, scfg)
	payload := make([]byte, 256*1024)
	go cc.Write(payload)
	if _, err := io.ReadFull(sc, make([]byte, len(payload))); err != nil {
		t.Fatal(err)
	}
	if cm.Busy() == 0 {
		t.Fatal("client meter recorded no seal time")
	}
	if sm.Busy() == 0 {
		t.Fatal("server meter recorded no open time")
	}
}

// TestForgedHelloLengthDoesNotAllocate sends the server an
// unauthenticated 48-byte hello — version, random, no suites, one
// certificate whose length word claims 64 MiB. The server must refuse
// it without allocating what the length word claims.
func TestForgedHelloLengthDoesNotAllocate(t *testing.T) {
	pki := newPKI(t)
	cfg := &Config{Credential: pki.server, Roots: pki.ca.Pool(), HandshakeTimeout: 5 * time.Second}
	body := make([]byte, 48)
	binary.BigEndian.PutUint32(body[0:], protocolVersion)
	binary.BigEndian.PutUint32(body[40:], 1) // chain length; suites at 36 stay 0
	binary.BigEndian.PutUint32(body[44:], 0x03ffffff)
	a, b := net.Pipe()
	defer b.Close()
	go func() {
		writeFrameCold(a, recHandshake, body)
		a.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Server(b, cfg)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged hello accepted")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("refusing a 48-byte hello allocated %d bytes", n)
	}
}

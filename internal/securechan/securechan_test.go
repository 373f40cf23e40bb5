package securechan

import (
	"bufio"
	"bytes"
	"crypto/aes"
	"crypto/rand"
	"crypto/x509"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/gridsec"
)

type testPKI struct {
	ca     *gridsec.CA
	client *gridsec.Credential
	server *gridsec.Credential
}

func newPKI(t *testing.T) *testPKI {
	t.Helper()
	ca, err := gridsec.NewCA("ChanTest Grid")
	if err != nil {
		t.Fatal(err)
	}
	client, err := ca.IssueUser("alice")
	if err != nil {
		t.Fatal(err)
	}
	server, err := ca.IssueHost("fs1")
	if err != nil {
		t.Fatal(err)
	}
	return &testPKI{ca: ca, client: client, server: server}
}

// handshakePair establishes a channel over an in-memory pipe.
func handshakePair(t *testing.T, pki *testPKI, ccfg, scfg *Config) (*Conn, *Conn) {
	t.Helper()
	cc, sc, cerr, serr := tryHandshake(pki, ccfg, scfg)
	if cerr != nil {
		t.Fatalf("client handshake: %v", cerr)
	}
	if serr != nil {
		t.Fatalf("server handshake: %v", serr)
	}
	t.Cleanup(func() { cc.Close(); sc.Close() })
	return cc, sc
}

func tryHandshake(pki *testPKI, ccfg, scfg *Config) (*Conn, *Conn, error, error) {
	if ccfg == nil {
		ccfg = &Config{Credential: pki.client, Roots: pki.ca.Pool()}
	}
	if scfg == nil {
		scfg = &Config{Credential: pki.server, Roots: pki.ca.Pool()}
	}
	a, b := net.Pipe()
	type res struct {
		c   *Conn
		err error
	}
	sch := make(chan res, 1)
	go func() {
		c, err := Server(b, scfg)
		sch <- res{c, err}
	}()
	cc, cerr := Client(a, ccfg)
	sres := <-sch
	return cc, sres.c, cerr, sres.err
}

var allSuites = []Suite{SuiteNullSHA1, SuiteRC4SHA1, SuiteAES256SHA1}

// kernelPath is one implementation of the record layer's primitives:
// hw's entries while the path is in use.
type kernelPath struct {
	name string
	hmac func(key []byte) hash.Hash
	cbc  func(key []byte) (cbcMode, error)
}

// kernelPaths lists the paths this CPU can run: the standard library,
// and the kernels where the CPU has them.
func kernelPaths() []kernelPath {
	paths := []kernelPath{{name: "stdlib"}}
	if hw.hmac != nil || hw.cbc != nil {
		paths = append(paths, kernelPath{"kernels", hw.hmac, hw.cbc})
	}
	return paths
}

// useKernels puts the record layer on path p until the test ends.
// Sealers pick their primitives when they are made.
func useKernels(t testing.TB, p kernelPath) {
	old := hw
	hw.hmac, hw.cbc = p.hmac, p.cbc
	t.Cleanup(func() { hw = old })
}

// forSuitesAndKernels runs f as a subtest per suite and, within it, per
// kernel path.
func forSuitesAndKernels(t *testing.T, f func(t *testing.T, suite Suite)) {
	for _, suite := range allSuites {
		t.Run(suite.String(), func(t *testing.T) {
			for _, p := range kernelPaths() {
				t.Run(p.name, func(t *testing.T) {
					useKernels(t, p)
					f(t, suite)
				})
			}
		})
	}
}

// suiteConfigs returns client and server configs that agree on suite.
func suiteConfigs(pki *testPKI, suite Suite) (client, server *Config) {
	return &Config{Credential: pki.client, Roots: pki.ca.Pool(), Suites: []Suite{suite}},
		&Config{Credential: pki.server, Roots: pki.ca.Pool(), Suites: []Suite{suite}}
}

func TestHandshakeAllSuites(t *testing.T) {
	pki := newPKI(t)
	for _, suite := range []Suite{SuiteNullSHA1, SuiteRC4SHA1, SuiteAES256SHA1} {
		t.Run(suite.String(), func(t *testing.T) {
			ccfg := &Config{Credential: pki.client, Roots: pki.ca.Pool(), Suites: []Suite{suite}}
			scfg := &Config{Credential: pki.server, Roots: pki.ca.Pool(), Suites: []Suite{suite}}
			cc, sc := handshakePair(t, pki, ccfg, scfg)
			if cc.Suite() != suite || sc.Suite() != suite {
				t.Fatalf("negotiated %v / %v, want %v", cc.Suite(), sc.Suite(), suite)
			}
			if cc.PeerDN() != pki.server.DN() {
				t.Fatalf("client saw peer %q", cc.PeerDN())
			}
			if sc.PeerDN() != pki.client.DN() {
				t.Fatalf("server saw peer %q", sc.PeerDN())
			}
			msg := []byte("sensitive grid data crossing domains")
			go cc.Write(msg)
			got := make([]byte, len(msg))
			if _, err := io.ReadFull(sc, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatal("payload corrupted")
			}
			// And the reverse direction.
			go sc.Write([]byte("reply"))
			rep := make([]byte, 5)
			if _, err := io.ReadFull(cc, rep); err != nil {
				t.Fatal(err)
			}
			if string(rep) != "reply" {
				t.Fatalf("got %q", rep)
			}
		})
	}
}

func TestServerPreferenceWins(t *testing.T) {
	pki := newPKI(t)
	ccfg := &Config{Credential: pki.client, Roots: pki.ca.Pool(),
		Suites: []Suite{SuiteNullSHA1, SuiteAES256SHA1}}
	scfg := &Config{Credential: pki.server, Roots: pki.ca.Pool(),
		Suites: []Suite{SuiteAES256SHA1, SuiteNullSHA1}}
	cc, _ := handshakePair(t, pki, ccfg, scfg)
	if cc.Suite() != SuiteAES256SHA1 {
		t.Fatalf("negotiated %v, want server preference aes", cc.Suite())
	}
}

func TestNoCommonSuite(t *testing.T) {
	pki := newPKI(t)
	ccfg := &Config{Credential: pki.client, Roots: pki.ca.Pool(), Suites: []Suite{SuiteNullSHA1}}
	scfg := &Config{Credential: pki.server, Roots: pki.ca.Pool(), Suites: []Suite{SuiteAES256SHA1}}
	_, _, _, serr := tryHandshake(pki, ccfg, scfg)
	if !errors.Is(serr, ErrNoCommonSuite) {
		t.Fatalf("server error %v, want ErrNoCommonSuite", serr)
	}
}

func TestUntrustedClientRejected(t *testing.T) {
	pki := newPKI(t)
	rogue, _ := gridsec.NewCA("Rogue CA")
	mallory, _ := rogue.IssueUser("mallory")
	ccfg := &Config{Credential: mallory, Roots: pki.ca.Pool()}
	_, _, _, serr := tryHandshake(pki, ccfg, nil)
	if !errors.Is(serr, gridsec.ErrNotTrusted) {
		t.Fatalf("server error %v, want ErrNotTrusted", serr)
	}
}

func TestUntrustedServerRejected(t *testing.T) {
	pki := newPKI(t)
	rogue, _ := gridsec.NewCA("Rogue CA")
	fake, _ := rogue.IssueHost("fs1")
	scfg := &Config{Credential: fake, Roots: pki.ca.Pool()}
	_, _, cerr, _ := tryHandshake(pki, nil, scfg)
	if !errors.Is(cerr, gridsec.ErrNotTrusted) {
		t.Fatalf("client error %v, want ErrNotTrusted", cerr)
	}
}

func TestProxyCertificateAuthenticatesAsUser(t *testing.T) {
	pki := newPKI(t)
	proxy, err := pki.client.IssueProxy(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := &Config{Credential: proxy, Roots: pki.ca.Pool()}
	_, sc := handshakePair(t, pki, ccfg, nil)
	if sc.PeerDN() != pki.client.DN() {
		t.Fatalf("proxy session authenticated as %q, want %q", sc.PeerDN(), pki.client.DN())
	}
}

func TestVerifyPeerPolicyHook(t *testing.T) {
	pki := newPKI(t)
	scfg := &Config{Credential: pki.server, Roots: pki.ca.Pool(),
		VerifyPeer: func(dn string, _ []*x509.Certificate) error {
			return fmt.Errorf("DN %q not in gridmap", dn)
		}}
	_, _, _, serr := tryHandshake(pki, nil, scfg)
	if !errors.Is(serr, ErrPeerRejected) {
		t.Fatalf("got %v, want ErrPeerRejected", serr)
	}
}

// countingConn counts the raw Writes that carry a channel's frames.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestLargeTransfer moves Writes of 32 KiB (one READ reply's payload:
// one record, one frame, one raw Write) and of 300 KiB (five 64 KiB
// records) and counts the raw Writes they take.
func TestLargeTransfer(t *testing.T) {
	pki := newPKI(t)
	for _, tc := range []struct {
		size, frames int
	}{{32 << 10, 1}, {300 << 10, 5}} {
		t.Run(fmt.Sprint(tc.size), func(t *testing.T) {
			ccfg, scfg := suiteConfigs(pki, SuiteAES256SHA1)
			cc, sc := handshakePair(t, pki, ccfg, scfg)
			counted := &countingConn{Conn: cc.raw}
			cc.raw = counted

			payload := make([]byte, tc.size)
			rand.Read(payload)
			go cc.Write(payload)
			got := make([]byte, len(payload))
			if _, err := io.ReadFull(sc, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("payload corrupted")
			}
			if n := counted.writes.Load(); n != int64(tc.frames) {
				t.Errorf("a %d-byte Write took %d raw Writes, want %d", tc.size, n, tc.frames)
			}
		})
	}
}

func TestRekeyMidStream(t *testing.T) {
	pki := newPKI(t)
	forSuitesAndKernels(t, func(t *testing.T, suite Suite) {
		ccfg, scfg := suiteConfigs(pki, suite)
		cc, sc := handshakePair(t, pki, ccfg, scfg)
		done := make(chan error, 1)
		go func() {
			if _, err := cc.Write([]byte("before")); err != nil {
				done <- err
				return
			}
			if err := cc.Rekey(); err != nil {
				done <- err
				return
			}
			_, err := cc.Write([]byte("after-rekey"))
			done <- err
		}()
		buf := make([]byte, 6)
		if _, err := io.ReadFull(sc, buf); err != nil {
			t.Fatal(err)
		}
		buf2 := make([]byte, 11)
		if _, err := io.ReadFull(sc, buf2); err != nil {
			t.Fatal(err)
		}
		if string(buf) != "before" || string(buf2) != "after-rekey" {
			t.Fatalf("got %q / %q", buf, buf2)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		w, _ := cc.Generations()
		if w != 1 {
			t.Fatalf("client write generation %d, want 1", w)
		}
		_, r := sc.Generations()
		if r != 1 {
			t.Fatalf("server read generation %d, want 1", r)
		}
		_, _, rekeys := cc.Stats()
		if rekeys != 1 {
			t.Fatalf("rekeys %d", rekeys)
		}
	})
}

func TestMultipleRekeys(t *testing.T) {
	pki := newPKI(t)
	cc, sc := handshakePair(t, pki, nil, nil)
	go func() {
		for i := 0; i < 5; i++ {
			cc.Write([]byte{byte(i)})
			cc.Rekey()
		}
		cc.Write([]byte{99})
	}()
	got := make([]byte, 6)
	if _, err := io.ReadFull(sc, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0, 1, 2, 3, 4, 99}) {
		t.Fatalf("got %v", got)
	}
}

// frame is one channel frame as a relay on the wire sees it.
type frame struct {
	typ  byte
	body []byte
}

// relayedPair establishes a channel on suite through a hostile
// frame-aware relay on the client-to-server direction. Handshake frames pass untouched;
// every later frame goes to edit, which returns the frames the server
// is to see in its place, and cut to end the raw stream after them
// without a close record. The server-to-client direction passes
// through.
func relayedPair(t *testing.T, suite Suite, edit func(f frame) (out []frame, cut bool)) (client, server *Conn) {
	t.Helper()
	pki := newPKI(t)
	ccfg, scfg := suiteConfigs(pki, suite)
	a, b := net.Pipe()         // server side: a
	mitmA, mitmB := net.Pipe() // client side: mitmA
	go func() {
		defer b.Close()
		br := newFrameReader(mitmB)
		for {
			typ, body, err := readFrame(br)
			if err != nil {
				return
			}
			f := frame{typ, bytes.Clone(body)}
			out, cut := []frame{f}, false
			if f.typ != recHandshake {
				out, cut = edit(f)
			}
			for _, o := range out {
				if writeFrameCold(b, o.typ, o.body) != nil {
					return
				}
			}
			if cut {
				return
			}
		}
	}()
	go io.Copy(mitmB, b) // server -> client direction passes through

	type res struct {
		c   *Conn
		err error
	}
	sch := make(chan res, 1)
	go func() {
		c, err := Server(a, scfg)
		sch <- res{c, err}
	}()
	cc, err := Client(mitmA, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	sres := <-sch
	if sres.err != nil {
		t.Fatal(sres.err)
	}
	t.Cleanup(func() { cc.Close(); sres.c.Close() })
	return cc, sres.c
}

// readErr reads from c until an error and returns it with what was
// read before it.
func readErr(c *Conn) ([]byte, error) {
	var got []byte
	buf := make([]byte, 1024)
	for {
		n, err := c.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			return got, err
		}
	}
}

func TestTamperedRecordDetected(t *testing.T) {
	// The relay flips one ciphertext bit in the first data record; the
	// reader must detect the forgery.
	forSuitesAndKernels(t, func(t *testing.T, suite Suite) {
		cc, sc := relayedPair(t, suite, func(f frame) ([]frame, bool) {
			if f.typ == recData && len(f.body) > 0 {
				f.body[len(f.body)/2] ^= 0x40
			}
			return []frame{f}, false
		})
		go cc.Write(bytes.Repeat([]byte("x"), 512))
		buf := make([]byte, 1024)
		if _, err := sc.Read(buf); !errors.Is(err, ErrRecordMAC) {
			t.Fatalf("tampering produced %v, want ErrRecordMAC", err)
		}
	})
}

// TestReorderedRecordsRefused: the relay delivers two data records in
// swapped order; the reader must refuse the first one it sees.
func TestReorderedRecordsRefused(t *testing.T) {
	forSuitesAndKernels(t, func(t *testing.T, suite Suite) {
		var held []frame
		cc, sc := relayedPair(t, suite, func(f frame) ([]frame, bool) {
			if f.typ == recData && held == nil {
				held = []frame{f}
				return nil, false
			}
			return append([]frame{f}, held...), false
		})
		go func() {
			cc.Write([]byte("first"))
			cc.Write([]byte("second"))
		}()
		if got, err := readErr(sc); !errors.Is(err, ErrRecordMAC) || len(got) != 0 {
			t.Fatalf("swapped records delivered %q, then %v; want nothing, then ErrRecordMAC", got, err)
		}
	})
}

// TestReplayAcrossRekeyRefused: the relay replays a data record sealed
// before a rekey right after the rekey record; the reader must refuse
// it under the new keys.
func TestReplayAcrossRekeyRefused(t *testing.T) {
	forSuitesAndKernels(t, func(t *testing.T, suite Suite) {
		var first *frame
		cc, sc := relayedPair(t, suite, func(f frame) ([]frame, bool) {
			switch {
			case f.typ == recData && first == nil:
				first = &f
			case f.typ == recRekey:
				return []frame{f, *first}, false
			}
			return []frame{f}, false
		})
		go func() {
			cc.Write([]byte("before"))
			cc.Rekey()
		}()
		if got, err := readErr(sc); !errors.Is(err, ErrRecordMAC) || string(got) != "before" {
			t.Fatalf("read %q, then %v; want %q, then ErrRecordMAC", got, err, "before")
		}
	})
}

// TestTruncationIsNotClose: the relay ends the raw stream cleanly after
// a complete data record, with no close record. The reader gets the
// record, then io.ErrUnexpectedEOF: a cut stream must not pass for the
// peer's authenticated close, which alone reads as io.EOF.
func TestTruncationIsNotClose(t *testing.T) {
	cc, sc := relayedPair(t, SuiteAES256SHA1, func(f frame) ([]frame, bool) {
		return []frame{f}, f.typ == recData
	})
	go cc.Write([]byte("all of it?"))
	if got, err := readErr(sc); err != io.ErrUnexpectedEOF || string(got) != "all of it?" {
		t.Fatalf("read %q, then %v; want %q, then io.ErrUnexpectedEOF", got, err, "all of it?")
	}
}

func TestCloseDeliversEOF(t *testing.T) {
	pki := newPKI(t)
	cc, sc := handshakePair(t, pki, nil, nil)
	go cc.Close()
	buf := make([]byte, 8)
	_, err := sc.Read(buf)
	if err != io.EOF {
		t.Fatalf("got %v, want EOF", err)
	}
}

func TestNullSuiteLeavesPlaintextVisible(t *testing.T) {
	// sgfs-sha trades privacy for speed: the wire carries plaintext.
	// This test documents that property (integrity is still enforced).
	s, err := newSealer(SuiteNullSHA1, nil, make([]byte, 20))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.seal(nil, recData, []byte("visible"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(rec, []byte("visible")) {
		t.Fatal("null suite should not hide plaintext")
	}
}

func TestAESSuiteHidesPlaintext(t *testing.T) {
	key := make([]byte, 32)
	rand.Read(key)
	s, err := newSealer(SuiteAES256SHA1, key, make([]byte, 20))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.seal(nil, recData, []byte("secret-seismic-survey"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(rec, []byte("secret")) {
		t.Fatal("AES suite leaked plaintext")
	}
}

func TestSealerReplayRejected(t *testing.T) {
	// Replaying a record fails because the MAC covers the sequence
	// number.
	key := make([]byte, 32)
	mkey := make([]byte, 20)
	rand.Read(key)
	rand.Read(mkey)
	enc, _ := newSealer(SuiteAES256SHA1, key, mkey)
	dec, _ := newSealer(SuiteAES256SHA1, key, mkey)
	r1, _ := enc.seal(nil, recData, []byte("one"))
	if _, err := dec.open(recData, r1); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.open(recData, r1); !errors.Is(err, ErrRecordMAC) {
		t.Fatalf("replay accepted: %v", err)
	}
}

// readCounter counts the reads made of an entropy source.
type readCounter struct {
	r     io.Reader
	reads int
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// A CBC sealer draws its IVs from the CSPRNG a buffer at a time: 1,000
// records cost at most 4 reads of the entropy source, and no two of
// their IVs are equal. A sealer's own source is that buffer over
// crypto/rand.
func TestIVsBuffered(t *testing.T) {
	key := make([]byte, 32)
	s, err := newSealer(SuiteAES256SHA1, key, key[:20])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.seal(nil, recData, nil); err != nil {
		t.Fatal(err)
	}
	if br, ok := s.ivs.(*bufio.Reader); !ok || br.Size() != ivBufSize {
		t.Fatalf("a sealer's IV source is %T, want newIVSource's buffer", s.ivs)
	}
	src := &readCounter{r: rand.Reader}
	s.ivs = newIVSource(src)
	seen := make(map[[aes.BlockSize]byte]bool)
	for i := range 1000 {
		rec, err := s.seal(nil, recData, []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		iv := [aes.BlockSize]byte(rec)
		if seen[iv] {
			t.Fatalf("record %d repeats an IV", i)
		}
		seen[iv] = true
	}
	if src.reads > 4 {
		t.Fatalf("1000 records read the entropy source %d times, want at most 4", src.reads)
	}
}

func TestQuickSealOpenRoundTrip(t *testing.T) {
	forSuitesAndKernels(t, func(t *testing.T, suite Suite) {
		encKey := make([]byte, suite.keyLen())
		macKey := make([]byte, 20)
		rand.Read(encKey)
		rand.Read(macKey)
		enc, err := newSealer(suite, encKey, macKey)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := newSealer(suite, encKey, macKey)
		if err != nil {
			t.Fatal(err)
		}
		f := func(p []byte) bool {
			rec, err := enc.seal(nil, recData, p)
			if err != nil {
				return false
			}
			got, err := dec.open(recData, rec)
			if err != nil {
				return false
			}
			return bytes.Equal(got, p)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestParseSuite(t *testing.T) {
	cases := map[string]Suite{
		"aes": SuiteAES256SHA1, "rc4": SuiteRC4SHA1, "sha": SuiteNullSHA1,
		"aes256cbc-sha1": SuiteAES256SHA1, "rc4128-sha1": SuiteRC4SHA1, "null-sha1": SuiteNullSHA1,
	}
	for name, want := range cases {
		got, err := ParseSuite(name)
		if err != nil || got != want {
			t.Errorf("ParseSuite(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseSuite("des"); err == nil {
		t.Error("expected error for unknown suite")
	}
}

func TestAutoRekey(t *testing.T) {
	pki := newPKI(t)
	cc, sc := handshakePair(t, pki, nil, nil)
	cc.StartAutoRekey(10 * time.Millisecond)
	deadline := time.After(2 * time.Second)
	// Keep traffic flowing so the server processes rekey records.
	for {
		select {
		case <-deadline:
			t.Fatal("no rekey observed within deadline")
		default:
		}
		go cc.Write([]byte("ping"))
		buf := make([]byte, 4)
		if _, err := io.ReadFull(sc, buf); err != nil {
			t.Fatal(err)
		}
		if _, _, rekeys := cc.Stats(); rekeys >= 2 {
			_, r := sc.Generations()
			if r < 2 {
				t.Fatalf("server read generation %d after %d rekeys", r, rekeys)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

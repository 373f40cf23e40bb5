package securechan

import (
	"crypto/ecdh"
	"crypto/ecdsa"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/gridsec"
	"repro/internal/metrics"
	"repro/internal/xdr"
)

// protocolVersion is the handshake protocol version.
const protocolVersion = 1

// Handshake / alert errors.
var (
	ErrNoCommonSuite = errors.New("securechan: no cipher suite in common")
	ErrBadSignature  = errors.New("securechan: handshake signature verification failed")
	ErrBadFinished   = errors.New("securechan: finished MAC verification failed")
	ErrPeerRejected  = errors.New("securechan: peer identity rejected by policy")
)

// hello is the first flight from each side: identity material plus key
// exchange input. The same wire shape serves client and server; the
// server's hello carries exactly one suite (the chosen one) and a
// transcript signature.
type hello struct {
	Version uint32
	Random  [32]byte
	Suites  []Suite
	Chain   [][]byte // DER certificates, leaf first
	ECDHPub []byte   // P-256 uncompressed point
	Sig     []byte   // server only: ECDSA over transcript
}

// XDR describes a hello: a peer offers at most 16 suites and a chain
// at most 8 certificates deep.
func (h *hello) XDR(c *xdr.Codec) {
	c.Uint32(&h.Version)
	c.FixedOpaque(h.Random[:])
	xdr.Array(c, &h.Suites, 16, func(s *Suite, c *xdr.Codec) { xdr.Enum(c, s) })
	xdr.Array(c, &h.Chain, 8, func(b *[]byte, c *xdr.Codec) { c.Opaque(b, xdr.MaxElementSize) })
	c.Opaque(&h.ECDHPub, xdr.MaxElementSize)
	c.Opaque(&h.Sig, xdr.MaxElementSize)
}

// finished closes the handshake from each side: a signature proving
// possession of the presented certificate's key (client only; the
// server signs inside its hello) and a MAC binding the whole
// transcript to the derived master secret.
type finished struct {
	Sig []byte
	MAC []byte
}

// XDR describes a finished message.
func (f *finished) XDR(c *xdr.Codec) {
	c.Opaque(&f.Sig, xdr.MaxElementSize)
	c.Opaque(&f.MAC, xdr.MaxElementSize)
}

// Both handshake messages travel on their own (writeHandshakeMsg,
// readHandshakeMsg), so each runs its description as an xdr.Marshaler
// and xdr.Unmarshaler.

func (h *hello) EncodeXDR(e *xdr.Encoder)    { h.XDR(e.Codec()) }
func (h *hello) DecodeXDR(d *xdr.Decoder)    { h.XDR(d.Codec()) }
func (f *finished) EncodeXDR(e *xdr.Encoder) { f.XDR(e.Codec()) }
func (f *finished) DecodeXDR(d *xdr.Decoder) { f.XDR(d.Codec()) }

// Config configures one endpoint of a secure channel.
type Config struct {
	// Credential is the local identity (or proxy) certificate and key.
	Credential *gridsec.Credential
	// Roots are the trusted CA certificates for verifying the peer.
	Roots *x509.CertPool
	// Suites lists acceptable suites in preference order. The server's
	// preference wins. Empty means all suites, strongest first.
	Suites []Suite
	// SelfCertifying skips CA chain validation: the peer's leaf
	// certificate is accepted as-is and VerifyPeer (which becomes
	// mandatory) must authenticate it by key fingerprint. This is the
	// trust model of the SFS baseline, where the server's public key
	// hash is embedded in the self-certifying pathname.
	SelfCertifying bool
	// HandshakeTimeout bounds the handshake (default 30s; negative
	// disables). It protects servers from peers that connect and
	// stall, and clients from unresponsive or hostile servers.
	HandshakeTimeout time.Duration
	// Meter, when non-nil, accumulates time spent in record
	// cryptography (seal/open) — the proxy CPU cost the paper's
	// Figures 5 and 6 chart.
	Meter *metrics.Meter
	// VerifyPeer, when non-nil, is invoked with the peer's effective
	// grid DN and verified chain after certificate validation; a
	// non-nil return aborts the handshake. SGFS's server-side proxy
	// uses this to enforce the session gridmap at connection time.
	VerifyPeer func(dn string, chain []*x509.Certificate) error
}

func (c *Config) suites() []Suite {
	if len(c.Suites) > 0 {
		return c.Suites
	}
	return []Suite{SuiteAES256SHA1, SuiteRC4SHA1, SuiteNullSHA1}
}

func (c *Config) check() error {
	if c.Credential == nil {
		return errors.New("securechan: config missing credential")
	}
	if c.SelfCertifying {
		if c.VerifyPeer == nil {
			return errors.New("securechan: self-certifying mode requires VerifyPeer")
		}
		return nil
	}
	if c.Roots == nil {
		return errors.New("securechan: config missing trust roots")
	}
	return nil
}

// handshakeState accumulates the transcript and key exchange.
type handshakeState struct {
	transcript *transcript
	ecdhKey    *ecdh.PrivateKey
	master     []byte
	peerChain  []*x509.Certificate
	peerDN     string
	suite      Suite
	clientRand [32]byte
	serverRand [32]byte
}

type transcript struct{ h [][]byte }

func (t *transcript) add(b []byte) { t.h = append(t.h, b) }
func (t *transcript) sum() []byte {
	h := sha256.New()
	for _, m := range t.h {
		h.Write(m)
	}
	return h.Sum(nil)
}

// writeHandshakeMsg frames a handshake message with a 4-byte length.
func writeHandshakeMsg(conn net.Conn, v xdr.Marshaler) ([]byte, error) {
	b, err := xdr.Marshal(v)
	if err != nil {
		return nil, err
	}
	if err := writeFrameCold(conn, recHandshake, b); err != nil {
		return nil, err
	}
	return b, nil
}

func readHandshakeMsg(conn net.Conn, v xdr.Unmarshaler) ([]byte, error) {
	var hdr [5]byte
	typ, b, err := readFrame(conn, nil, &hdr)
	if err != nil {
		return nil, err
	}
	if typ != recHandshake {
		return nil, fmt.Errorf("securechan: expected handshake record, got type %d", typ)
	}
	if err := xdr.Unmarshal(b, v); err != nil {
		return nil, err
	}
	return b, nil
}

func newECDH() (*ecdh.PrivateKey, error) {
	return ecdh.P256().GenerateKey(rand.Reader)
}

func verifyPeerChain(cfg *Config, raw [][]byte) ([]*x509.Certificate, string, error) {
	if len(raw) == 0 {
		return nil, "", gridsec.ErrEmptyChain
	}
	chain := make([]*x509.Certificate, len(raw))
	for i, der := range raw {
		c, err := x509.ParseCertificate(der)
		if err != nil {
			return nil, "", fmt.Errorf("securechan: parse peer certificate: %w", err)
		}
		chain[i] = c
	}
	var dn string
	if cfg.SelfCertifying {
		dn = gridsec.DN(chain[0])
	} else {
		var err error
		dn, err = gridsec.VerifyChain(chain, cfg.Roots)
		if err != nil {
			return nil, "", err
		}
	}
	if cfg.VerifyPeer != nil {
		if err := cfg.VerifyPeer(dn, chain); err != nil {
			return nil, "", fmt.Errorf("%w: %v", ErrPeerRejected, err)
		}
	}
	return chain, dn, nil
}

// hkdfExpand derives length bytes from secret and label using the
// HMAC-SHA256 expand construction (RFC 5869 without the extract step;
// the ECDH shared secret already has full entropy).
func hkdfExpand(secret []byte, label string, context []byte, length int) []byte {
	var out []byte
	var prev []byte
	counter := byte(1)
	for len(out) < length {
		h := hmac.New(sha256.New, secret)
		h.Write(prev)
		io.WriteString(h, label)
		h.Write(context)
		h.Write([]byte{counter})
		prev = h.Sum(nil)
		out = append(out, prev...)
		counter++
	}
	return out[:length]
}

// deriveMaster turns the ECDH shared secret into the master secret and
// consumes it: the input is zeroed and the ephemeral key dropped, so
// after derivation the master is the only handshake secret still live.
func (hs *handshakeState) deriveMaster(shared []byte) {
	ctx := append(append([]byte{}, hs.clientRand[:]...), hs.serverRand[:]...)
	hs.master = hkdfExpand(shared, "sgfs master secret", ctx, 48)
	clear(shared)
	hs.ecdhKey = nil
}

// directionKeys derives the encryption and MAC keys for one direction
// and generation.
func (hs *handshakeState) directionKeys(client bool, generation uint32) (encKey, macKey []byte) {
	dir := "server write"
	if client {
		dir = "client write"
	}
	ctx := []byte{byte(generation >> 24), byte(generation >> 16), byte(generation >> 8), byte(generation)}
	material := hkdfExpand(hs.master, "sgfs keys "+dir, ctx, hs.suite.keyLen()+32)
	return material[:hs.suite.keyLen()], material[hs.suite.keyLen():]
}

func (hs *handshakeState) finishedMAC(label string) []byte {
	h := hmac.New(sha256.New, hs.master)
	io.WriteString(h, label)
	h.Write(hs.transcript.sum())
	return h.Sum(nil)
}

// sign produces an ECDSA signature over the current transcript hash.
func sign(cred *gridsec.Credential, t *transcript) ([]byte, error) {
	return ecdsa.SignASN1(rand.Reader, cred.Key, t.sum())
}

// verifySig checks an ECDSA signature over the transcript hash against
// the peer's leaf certificate.
func verifySig(leaf *x509.Certificate, t *transcript, sig []byte) error {
	pub, ok := leaf.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		return errors.New("securechan: peer certificate key is not ECDSA")
	}
	if !ecdsa.VerifyASN1(pub, t.sum(), sig) {
		return ErrBadSignature
	}
	return nil
}

// chooseSuite picks the first of the server's preferences that the
// client offered.
func chooseSuite(serverPrefs, clientOffer []Suite) (Suite, error) {
	for _, s := range serverPrefs {
		for _, c := range clientOffer {
			if s == c {
				return s, nil
			}
		}
	}
	return 0, ErrNoCommonSuite
}

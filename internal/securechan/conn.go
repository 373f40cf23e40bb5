package securechan

import (
	"bufio"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/xdr"
)

// Record types on the wire.
const (
	recHandshake = 1
	recData      = 2
	recRekey     = 3
	recClose     = 4
)

// maxRecordPlaintext is the largest plaintext carried in one record:
// room for a 32 KiB READ reply or WRITE call and its RPC headers, so
// each RPC message of the data path is one record.
const maxRecordPlaintext = 64 * 1024

// maxFrame bounds an incoming frame body.
const maxFrame = maxRecordPlaintext + 1024

// frameHeader is the [type u8 | len u32] prefix of every frame.
const frameHeader = 5

// ErrChannelClosed is returned after the channel is closed locally or
// by the peer.
var ErrChannelClosed = errors.New("securechan: channel closed")

// framePool holds write buffers for one frame: frameHeader bytes of
// header room, then a sealed record of up to maxFrame bytes.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, frameHeader+maxFrame)
	return &b
}}

// newFrameReader buffers a connection's incoming frames. Its buffer
// holds a whole frame, so readFrame can hand out bodies in place.
func newFrameReader(conn net.Conn) *bufio.Reader {
	return bufio.NewReaderSize(conn, frameHeader+maxFrame)
}

// writeFrame fills in the header of frame, whose first frameHeader
// bytes are room for it, and sends header and record in one Write.
func writeFrame(w io.Writer, typ byte, frame []byte) error {
	frame[0] = typ
	binary.BigEndian.PutUint32(frame[1:frameHeader], uint32(len(frame)-frameHeader))
	_, err := w.Write(frame)
	return err
}

// writeFrameCold is writeFrame for a body without header room, for
// handshake and teardown paths where one allocation does not matter.
func writeFrameCold(w io.Writer, typ byte, body []byte) error {
	frame := make([]byte, frameHeader, frameHeader+len(body))
	return writeFrame(w, typ, append(frame, body...))
}

// readFrame reads one frame. The body aliases br's buffer and is valid
// until the next read from br: the caller opens the record in place. A
// frame that is already in the socket buffer arrives in one read; a
// length word over maxFrame is refused before anything is read past
// the header.
func readFrame(br *bufio.Reader) (byte, []byte, error) {
	hdr, err := br.Peek(frameHeader)
	if err != nil {
		return 0, nil, partialEOF(len(hdr), err)
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("securechan: frame of %d bytes exceeds limit", n)
	}
	frame, err := br.Peek(frameHeader + int(n))
	if err != nil {
		return 0, nil, partialEOF(len(frame), err)
	}
	if _, err := br.Discard(len(frame)); err != nil {
		return 0, nil, err
	}
	return frame[0], frame[frameHeader:], nil
}

// partialEOF reports a stream that ended inside a frame as
// io.ErrUnexpectedEOF, as io.ReadFull does; io.EOF means it ended
// between frames.
func partialEOF(got int, err error) error {
	if err == io.EOF && got > 0 {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Conn is an established secure channel. It implements net.Conn; the
// byte stream written on one side is delivered authenticated (and,
// depending on the suite, encrypted) to the other.
type Conn struct {
	raw net.Conn

	meter *metrics.Meter

	suite  Suite
	master []byte
	hs     *handshakeState
	client bool

	peerChain []*x509.Certificate
	peerDN    string

	readMu  sync.Mutex
	br      *bufio.Reader // raw's frames; guarded by readMu
	rSealer *sealer
	rGen    uint32
	rbuf    []byte // decrypted bytes not yet returned by Read; in br's buffer
	rerr    error

	writeMu sync.Mutex
	wSealer *sealer
	wGen    uint32
	werr    error

	closeOnce sync.Once

	rekeyStop chan struct{}

	// Stats
	statMu   sync.Mutex
	bytesIn  uint64
	bytesOut uint64
	rekeys   uint64
}

// Client performs the initiating side of the handshake over conn. On
// handshake failure the raw connection is closed: a half-established
// channel is useless and closing it promptly unblocks the peer.
func Client(conn net.Conn, cfg *Config) (*Conn, error) {
	restore, err := handshakeDeadline(conn, cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c, err := clientHandshake(conn, cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	restore()
	return c, nil
}

// handshakeDeadline arms the handshake timeout and returns the
// function that clears it after success.
func handshakeDeadline(conn net.Conn, cfg *Config) (func(), error) {
	timeout := cfg.HandshakeTimeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	if timeout < 0 {
		return func() {}, nil
	}
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	return func() { conn.SetDeadline(time.Time{}) }, nil
}

func clientHandshake(conn net.Conn, cfg *Config) (*Conn, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	c := newConn(conn)

	hs := &handshakeState{transcript: &transcript{}}
	if _, err := rand.Read(hs.clientRand[:]); err != nil {
		return nil, err
	}
	ek, err := newECDH()
	if err != nil {
		return nil, err
	}
	hs.ecdhKey = ek

	ch := &hello{Version: protocolVersion, Random: hs.clientRand, Suites: cfg.suites(), Chain: rawChain(cfg), ECDHPub: ek.PublicKey().Bytes()}
	raw, err := writeHandshakeMsg(conn, ch)
	if err != nil {
		return nil, fmt.Errorf("securechan: send client hello: %w", err)
	}
	hs.transcript.add(raw)

	var sh hello
	raw, err = readHandshakeMsg(c.br, &sh)
	if err != nil {
		return nil, fmt.Errorf("securechan: read server hello: %w", err)
	}
	if sh.Version != protocolVersion {
		return nil, fmt.Errorf("securechan: server speaks version %d", sh.Version)
	}
	if len(sh.Suites) != 1 {
		return nil, errors.New("securechan: server hello must select exactly one suite")
	}
	hs.suite = sh.Suites[0]
	if !offered(cfg.suites(), hs.suite) {
		return nil, fmt.Errorf("securechan: server chose unoffered suite %v", hs.suite)
	}
	hs.serverRand = sh.Random

	// Verify the server's identity and its signature over the
	// transcript-so-far plus its own hello (minus the signature field).
	peerChain, peerDN, err := verifyPeerChain(cfg, sh.Chain)
	if err != nil {
		return nil, err
	}
	sigless := sh
	sigless.Sig = nil
	unsignedRaw, err := marshalHello(&sigless)
	if err != nil {
		return nil, err
	}
	hs.transcript.add(unsignedRaw)
	if err := verifySig(peerChain[0], hs.transcript, sh.Sig); err != nil {
		return nil, err
	}
	hs.transcript.add(raw) // the signed form enters the transcript too
	hs.peerChain, hs.peerDN = peerChain, peerDN

	peerPub, err := ecdh.P256().NewPublicKey(sh.ECDHPub)
	if err != nil {
		return nil, fmt.Errorf("securechan: server ECDH key: %w", err)
	}
	shared, err := ek.ECDH(peerPub)
	if err != nil {
		return nil, err
	}
	hs.deriveMaster(shared)

	// Client finished: prove key possession and bind the transcript.
	sig, err := sign(cfg.Credential, hs.transcript)
	if err != nil {
		return nil, err
	}
	cf := &finished{Sig: sig, MAC: hs.finishedMAC("client finished")}
	raw, err = writeHandshakeMsg(conn, cf)
	if err != nil {
		return nil, err
	}
	hs.transcript.add(raw)

	var sf finished
	if _, err := readHandshakeMsg(c.br, &sf); err != nil {
		return nil, fmt.Errorf("securechan: read server finished: %w", err)
	}
	if !hmac.Equal(sf.MAC, hs.finishedMAC("server finished")) {
		return nil, ErrBadFinished
	}

	if err := c.establish(hs, true); err != nil {
		return nil, err
	}
	c.meter = cfg.Meter
	return c, nil
}

// Server performs the accepting side of the handshake over conn. On
// handshake failure the raw connection is closed.
func Server(conn net.Conn, cfg *Config) (*Conn, error) {
	restore, err := handshakeDeadline(conn, cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	c, err := serverHandshake(conn, cfg)
	if err != nil {
		conn.Close()
		return nil, err
	}
	restore()
	return c, nil
}

func serverHandshake(conn net.Conn, cfg *Config) (*Conn, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	c := newConn(conn)
	hs := &handshakeState{transcript: &transcript{}}
	if _, err := rand.Read(hs.serverRand[:]); err != nil {
		return nil, err
	}

	var ch hello
	raw, err := readHandshakeMsg(c.br, &ch)
	if err != nil {
		return nil, fmt.Errorf("securechan: read client hello: %w", err)
	}
	if ch.Version != protocolVersion {
		return nil, fmt.Errorf("securechan: client speaks version %d", ch.Version)
	}
	hs.transcript.add(raw)
	hs.clientRand = ch.Random

	suite, err := chooseSuite(cfg.suites(), ch.Suites)
	if err != nil {
		return nil, err
	}
	hs.suite = suite

	peerChain, peerDN, err := verifyPeerChain(cfg, ch.Chain)
	if err != nil {
		return nil, err
	}
	hs.peerChain, hs.peerDN = peerChain, peerDN

	ek, err := newECDH()
	if err != nil {
		return nil, err
	}
	hs.ecdhKey = ek
	peerPub, err := ecdh.P256().NewPublicKey(ch.ECDHPub)
	if err != nil {
		return nil, fmt.Errorf("securechan: client ECDH key: %w", err)
	}
	shared, err := ek.ECDH(peerPub)
	if err != nil {
		return nil, err
	}

	sh := &hello{Version: protocolVersion, Random: hs.serverRand, Suites: []Suite{suite}, Chain: rawChain(cfg), ECDHPub: ek.PublicKey().Bytes()}
	unsignedRaw, err := marshalHello(sh)
	if err != nil {
		return nil, err
	}
	hs.transcript.add(unsignedRaw)
	sh.Sig, err = sign(cfg.Credential, hs.transcript)
	if err != nil {
		return nil, err
	}
	raw, err = writeHandshakeMsg(conn, sh)
	if err != nil {
		return nil, err
	}
	hs.transcript.add(raw)

	hs.deriveMaster(shared)

	var cf finished
	raw, err = readHandshakeMsg(c.br, &cf)
	if err != nil {
		return nil, fmt.Errorf("securechan: read client finished: %w", err)
	}
	// The client signed the transcript before its finished message.
	if err := verifySig(peerChain[0], hs.transcript, cf.Sig); err != nil {
		return nil, err
	}
	if !hmac.Equal(cf.MAC, hs.finishedMAC("client finished")) {
		return nil, ErrBadFinished
	}
	hs.transcript.add(raw)

	sf := &finished{MAC: hs.finishedMAC("server finished")}
	if _, err := writeHandshakeMsg(conn, sf); err != nil {
		return nil, err
	}

	if err := c.establish(hs, false); err != nil {
		return nil, err
	}
	c.meter = cfg.Meter
	return c, nil
}

func rawChain(cfg *Config) [][]byte {
	out := make([][]byte, len(cfg.Credential.Chain))
	for i, c := range cfg.Credential.Chain {
		out[i] = c.Raw
	}
	return out
}

func marshalHello(h *hello) ([]byte, error) { return xdr.Marshal(h) }

func offered(suites []Suite, s Suite) bool {
	for _, o := range suites {
		if o == s {
			return true
		}
	}
	return false
}

// newConn starts a channel over raw. Its frame reader serves the
// handshake and then the session, so records the peer sends right
// behind its finished message are not lost.
func newConn(raw net.Conn) *Conn {
	c := &Conn{raw: raw, rekeyStop: make(chan struct{})}
	c.br = newFrameReader(c.raw)
	return c
}

// establish installs a completed handshake's identity and generation-0
// keys.
func (c *Conn) establish(hs *handshakeState, client bool) error {
	c.suite, c.master, c.hs, c.client = hs.suite, hs.master, hs, client
	c.peerChain, c.peerDN = hs.peerChain, hs.peerDN
	var err error
	encW, macW := hs.directionKeys(client, 0)
	if c.wSealer, err = newSealer(hs.suite, encW, macW); err != nil {
		return err
	}
	encR, macR := hs.directionKeys(!client, 0)
	c.rSealer, err = newSealer(hs.suite, encR, macR)
	return err
}

// PeerDN returns the peer's effective grid identity (the identity
// certificate's DN even when a proxy certificate was presented).
func (c *Conn) PeerDN() string { return c.peerDN }

// PeerChain returns the peer's verified certificate chain, leaf first.
func (c *Conn) PeerChain() []*x509.Certificate { return c.peerChain }

// Suite returns the negotiated cipher suite.
func (c *Conn) Suite() Suite { return c.suite }

// Generations returns the current write and read key generations; they
// advance on rekey.
func (c *Conn) Generations() (write, read uint32) {
	c.writeMu.Lock()
	write = c.wGen
	c.writeMu.Unlock()
	c.readMu.Lock()
	read = c.rGen
	c.readMu.Unlock()
	return
}

// Stats returns cumulative plaintext byte counts and rekey count.
func (c *Conn) Stats() (in, out, rekeys uint64) {
	c.statMu.Lock()
	defer c.statMu.Unlock()
	return c.bytesIn, c.bytesOut, c.rekeys
}

// Write encrypts and sends p, one record of up to maxRecordPlaintext
// bytes per frame. Each record is sealed into a pooled buffer behind
// its header and goes out in one raw Write.
func (c *Conn) Write(p []byte) (int, error) {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.werr != nil {
		return 0, c.werr
	}
	buf := framePool.Get().(*[]byte)
	defer framePool.Put(buf)
	total := 0
	for len(p) > 0 {
		n := min(len(p), maxRecordPlaintext)
		var sealStart time.Time
		if c.meter != nil {
			sealStart = time.Now()
		}
		frame, err := c.wSealer.seal((*buf)[:frameHeader], recData, p[:n])
		if c.meter != nil {
			c.meter.Add(time.Since(sealStart))
		}
		if err == nil {
			err = writeFrame(c.raw, recData, frame)
		}
		if err != nil {
			c.werr = err
			return total, err
		}
		total += n
		p = p[n:]
	}
	c.statMu.Lock()
	c.bytesOut += uint64(total)
	c.statMu.Unlock()
	return total, nil
}

// Read returns decrypted stream bytes. It reports io.EOF only after
// the peer's authenticated close record; a raw stream that ends without
// one reads as io.ErrUnexpectedEOF.
func (c *Conn) Read(p []byte) (int, error) {
	c.readMu.Lock()
	defer c.readMu.Unlock()
	for len(c.rbuf) == 0 {
		if c.rerr != nil {
			return 0, c.rerr
		}
		typ, body, err := readFrame(c.br)
		if err == io.EOF {
			// The raw stream ended between frames but without the
			// peer's close record: a cut, not the end of the stream.
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			c.rerr = err
			return 0, err
		}
		switch typ {
		case recData:
			var openStart time.Time
			if c.meter != nil {
				openStart = time.Now()
			}
			pt, err := c.rSealer.open(recData, body)
			if c.meter != nil {
				c.meter.Add(time.Since(openStart))
			}
			if err != nil {
				c.rerr = err
				return 0, err
			}
			c.rbuf = pt
			c.statMu.Lock()
			c.bytesIn += uint64(len(pt))
			c.statMu.Unlock()
		case recRekey:
			if _, err := c.rSealer.open(recRekey, body); err != nil {
				c.rerr = err
				return 0, err
			}
			// The peer's write direction advances one generation.
			c.rGen++
			encR, macR := c.hs.directionKeys(!c.client, c.rGen)
			s, err := newSealer(c.suite, encR, macR)
			if err != nil {
				c.rerr = err
				return 0, err
			}
			c.rSealer = s
		case recClose:
			c.rerr = io.EOF
			return 0, io.EOF
		default:
			c.rerr = fmt.Errorf("securechan: unexpected record type %d", typ)
			return 0, c.rerr
		}
	}
	n := copy(p, c.rbuf)
	c.rbuf = c.rbuf[n:]
	return n, nil
}

// Rekey advances this side's write keys to the next generation,
// refreshing the session keying material without a new handshake. The
// peer switches its read keys upon receiving the rekey record, so no
// round trip or traffic pause is needed. The paper's proxies trigger
// this periodically for long-lived sessions (§4.2).
func (c *Conn) Rekey() error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.werr != nil {
		return c.werr
	}
	frame, err := c.wSealer.seal(make([]byte, frameHeader), recRekey, nil)
	if err != nil {
		c.werr = err
		return err
	}
	if err := writeFrame(c.raw, recRekey, frame); err != nil {
		c.werr = err
		return err
	}
	c.wGen++
	encW, macW := c.hs.directionKeys(c.client, c.wGen)
	s, err := newSealer(c.suite, encW, macW)
	if err != nil {
		c.werr = err
		return err
	}
	c.wSealer = s
	c.statMu.Lock()
	c.rekeys++
	c.statMu.Unlock()
	return nil
}

// StartAutoRekey launches a background goroutine that rekeys the write
// direction every interval until the channel closes, implementing the
// configuration-file timeout for periodic automatic renegotiation.
func (c *Conn) StartAutoRekey(interval time.Duration) {
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := c.Rekey(); err != nil {
					return
				}
			case <-c.rekeyStop:
				return
			}
		}
	}()
}

// Close sends a close record (best effort) and tears down the
// transport.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		close(c.rekeyStop)
		c.writeMu.Lock()
		if c.werr == nil {
			// Best-effort close notification: bound the write so a
			// peer that has stopped reading cannot block Close.
			if frame, err := c.wSealer.seal(make([]byte, frameHeader), recClose, nil); err == nil {
				c.raw.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
				writeFrame(c.raw, recClose, frame)
				c.raw.SetWriteDeadline(time.Time{})
			}
			c.werr = ErrChannelClosed
		}
		c.writeMu.Unlock()
		c.raw.Close()
	})
	return nil
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.raw.LocalAddr() }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.raw.RemoteAddr() }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error { return c.raw.SetDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.raw.SetWriteDeadline(t) }

// Package securechan implements the SSL-like secure channel that
// protects SGFS RPC traffic: mutual X.509/GSI authentication, ECDHE
// key exchange, and an encrypt-then-MAC record layer with selectable
// cipher suites.
//
// The paper builds its secure RPC library on OpenSSL's TLS; this
// package plays the same role with a from-scratch record protocol so
// that all three of the paper's security configurations are available,
// including the integrity-only suite (sgfs-sha) that standard TLS
// stacks do not expose:
//
//	SuiteAES256SHA1 — AES-256-CBC encryption + HMAC-SHA1 (sgfs-aes)
//	SuiteRC4SHA1    — RC4-128 encryption + HMAC-SHA1     (sgfs-rc)
//	SuiteNullSHA1   — no encryption + HMAC-SHA1          (sgfs-sha)
//
// Records carry up to 64 KiB of plaintext, so each RPC message of the
// NFS data path (a 32 KiB READ reply or WRITE call) is sealed into one
// record and goes out as one frame in one write; the receiver takes a
// frame already in the socket buffer with one read and opens it in
// place. Handshake version 2 marks this record size: a version-1 peer,
// which would refuse such frames mid-stream, is refused at the hello.
// The suites' SHA-1 and AES run on the CPU's SHA and AES instructions
// where it has them (kernels.go), and on the standard library
// otherwise.
//
// Sessions may be rekeyed at any time (and automatically on a timer),
// reproducing the paper's periodic SSL renegotiation for long-lived
// sessions (§4.2): record keys are ratcheted from the master secret,
// so a compromised record key does not expose future traffic.
package securechan

import (
	"bufio"
	"crypto/aes"
	"crypto/rand"
	"crypto/rc4"
	"crypto/sha1"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
)

// Suite identifies a negotiated protection suite.
type Suite uint16

// The cipher suites of the paper's three SGFS configurations.
const (
	SuiteNullSHA1   Suite = 0x0001 // integrity only: HMAC-SHA1
	SuiteRC4SHA1    Suite = 0x0002 // RC4-128 + HMAC-SHA1
	SuiteAES256SHA1 Suite = 0x0003 // AES-256-CBC + HMAC-SHA1
)

// String returns the configuration name used in the paper.
func (s Suite) String() string {
	switch s {
	case SuiteNullSHA1:
		return "null-sha1"
	case SuiteRC4SHA1:
		return "rc4128-sha1"
	case SuiteAES256SHA1:
		return "aes256cbc-sha1"
	default:
		return fmt.Sprintf("suite(%d)", uint16(s))
	}
}

// ParseSuite maps a configuration-file name to a Suite.
func ParseSuite(name string) (Suite, error) {
	switch name {
	case "null-sha1", "sha", "integrity":
		return SuiteNullSHA1, nil
	case "rc4128-sha1", "rc4", "rc":
		return SuiteRC4SHA1, nil
	case "aes256cbc-sha1", "aes", "aes256":
		return SuiteAES256SHA1, nil
	}
	return 0, fmt.Errorf("securechan: unknown cipher suite %q", name)
}

func (s Suite) keyLen() int {
	switch s {
	case SuiteRC4SHA1:
		return 16
	case SuiteAES256SHA1:
		return 32
	default:
		return 0
	}
}

const macLen = sha1.Size // 20

// ErrRecordMAC reports a record whose HMAC failed verification.
var ErrRecordMAC = errors.New("securechan: record MAC verification failed")

// sealer protects one direction of the channel under one generation of
// keys. It is not safe for concurrent use; Conn serializes access.
type sealer struct {
	suite  Suite
	macKey []byte
	encKey []byte
	stream *rc4.Cipher // RC4 only
	cbc    cbcMode     // AES only
	ivs    io.Reader   // CBC IVs: newIVSource at the first seal; tests fix them
	seq    uint64

	// h, sum, and hdr are reused across records so the per-record MAC
	// costs no allocations (a local hdr array would be moved to the heap
	// on every mac call because it is written through the hash.Hash
	// interface); access is serialized with the rest of the sealer.
	h   hash.Hash
	sum [macLen]byte
	hdr [13]byte
}

func newSealer(suite Suite, encKey, macKey []byte) (*sealer, error) {
	s := &sealer{suite: suite, macKey: macKey, encKey: encKey}
	s.h = newHMAC(macKey)
	switch suite {
	case SuiteNullSHA1:
	case SuiteRC4SHA1:
		c, err := rc4.NewCipher(encKey)
		if err != nil {
			return nil, err
		}
		s.stream = c
	case SuiteAES256SHA1:
		c, err := newCBC(encKey)
		if err != nil {
			return nil, err
		}
		s.cbc = c
	default:
		return nil, fmt.Errorf("securechan: unsupported suite %v", suite)
	}
	return s, nil
}

// ivBufSize is how many bytes of IVs a CBC sealer draws from the
// system CSPRNG at once: one getrandom call per 256 records instead of
// one per record.
const ivBufSize = 4 << 10

// newIVSource returns the CBC IV source of a sealer: entropy, read
// ivBufSize bytes at a time. Every IV is still fresh CSPRNG output,
// never derived from another, so IVs stay unpredictable as CBC
// requires; buffering only batches the system calls.
func newIVSource(entropy io.Reader) io.Reader {
	return bufio.NewReaderSize(entropy, ivBufSize)
}

// mac computes HMAC-SHA1 over seq || recType || len(body) || body. The
// returned slice aliases the sealer's scratch sum and is valid until
// the next mac call.
func (s *sealer) mac(recType byte, body []byte) []byte {
	s.macHeader(recType, len(body))
	s.h.Write(body)
	return s.h.Sum(s.sum[:0])
}

// macHeader starts a record's MAC: seq || recType || len(body).
func (s *sealer) macHeader(recType byte, n int) {
	s.h.Reset()
	binary.BigEndian.PutUint64(s.hdr[0:8], s.seq)
	s.hdr[8] = recType
	binary.BigEndian.PutUint32(s.hdr[9:13], uint32(n))
	s.h.Write(s.hdr[:])
}

// grow extends dst by n bytes and returns the result and its last n
// bytes. It reuses dst's storage when that can also hold a trailing
// tag, and otherwise allocates with that headroom, so the caller's
// append of the tag never reallocates.
func grow(dst []byte, n int) (whole, tail []byte) {
	start, total := len(dst), len(dst)+n
	if cap(dst) < total+macLen {
		grown := make([]byte, start, total+macLen)
		copy(grown, dst)
		dst = grown
	}
	return dst[:total], dst[start:total]
}

// seal encrypts and authenticates plaintext, appends the protected
// record (ciphertext || MAC) to dst and advances the sequence number.
// When dst's storage has room, as the Conn's pooled frame buffers
// always do, sealing allocates nothing.
func (s *sealer) seal(dst []byte, recType byte, plaintext []byte) ([]byte, error) {
	var body, tag []byte
	switch s.suite {
	case SuiteNullSHA1:
		dst, body = grow(dst, len(plaintext))
		copy(body, plaintext)
	case SuiteRC4SHA1:
		dst, body = grow(dst, len(plaintext))
		s.stream.XORKeyStream(body, plaintext)
	case SuiteAES256SHA1:
		const bs = aes.BlockSize
		padLen := bs - len(plaintext)%bs
		dst, body = grow(dst, bs+len(plaintext)+padLen)
		iv, ct := body[:bs], body[bs:]
		copy(ct, plaintext)
		for i := len(plaintext); i < len(ct); i++ {
			ct[i] = byte(padLen)
		}
		if s.ivs == nil {
			s.ivs = newIVSource(rand.Reader)
		}
		if _, err := io.ReadFull(s.ivs, iv); err != nil {
			return nil, err
		}
		// Encrypt-then-MAC in one pass over the ciphertext.
		s.macHeader(recType, len(body))
		s.cbc.encryptMAC(s.h, iv, ct, ct)
		tag = s.h.Sum(s.sum[:0])
	}
	if tag == nil {
		tag = s.mac(recType, body)
	}
	s.seq++
	return append(dst, tag...), nil
}

// open verifies and decrypts a protected record body. Decryption is
// done in place: record's ciphertext bytes are overwritten and the
// returned plaintext aliases them. Callers (the Conn read path) own
// the record buffer and do not reuse it until the plaintext is
// consumed.
func (s *sealer) open(recType byte, record []byte) ([]byte, error) {
	if len(record) < macLen {
		return nil, ErrRecordMAC
	}
	body, tag := record[:len(record)-macLen], record[len(record)-macLen:]
	want := s.mac(recType, body)
	if subtle.ConstantTimeCompare(tag, want) != 1 {
		return nil, ErrRecordMAC
	}
	s.seq++
	switch s.suite {
	case SuiteNullSHA1:
		return body, nil
	case SuiteRC4SHA1:
		s.stream.XORKeyStream(body, body)
		return body, nil
	case SuiteAES256SHA1:
		const bs = aes.BlockSize
		if len(body) < 2*bs || len(body)%bs != 0 {
			return nil, errors.New("securechan: malformed CBC record")
		}
		iv, ct := body[:bs], body[bs:]
		s.cbc.decrypt(iv, ct, ct)
		padLen := int(ct[len(ct)-1])
		if padLen == 0 || padLen > bs || padLen > len(ct) {
			return nil, errors.New("securechan: bad CBC padding")
		}
		for _, b := range ct[len(ct)-padLen:] {
			if int(b) != padLen {
				return nil, errors.New("securechan: bad CBC padding")
			}
		}
		return ct[:len(ct)-padLen], nil
	}
	return nil, fmt.Errorf("securechan: unsupported suite %v", s.suite)
}

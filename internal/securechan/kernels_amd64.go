package securechan

import (
	"crypto/aes"
	"crypto/sha1"
	"encoding/binary"
	"hash"
)

func init() {
	if hasSHANI() {
		hw.hmac = newHMACSHA1
	}
	if hasAESNI() {
		hw.cbc = newAESNICBC
	}
}

// CPUID feature bits the kernels need: SSSE3 (PSHUFB) and SSE4.1
// (PINSRD, PEXTRD, PINSRQ) with the SHA or AES instructions.
const (
	cpuid1ECXSSSE3 = 1 << 9
	cpuid1ECXSSE41 = 1 << 19
	cpuid1ECXAES   = 1 << 25
	cpuid7EBXSHA   = 1 << 29
)

func hasSHANI() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	const need = cpuid1ECXSSSE3 | cpuid1ECXSSE41
	return ecx1&need == need && ebx7&cpuid7EBXSHA != 0
}

func hasAESNI() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	const need = cpuid1ECXSSE41 | cpuid1ECXAES
	return ecx1&need == need
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func sha1BlockNI(h *[5]uint32, p []byte)

//go:noescape
func expandKey256(key *byte, enc, dec *[240]byte)

//go:noescape
func cbcEncrypt(rk *[240]byte, iv *byte, dst, src []byte)

//go:noescape
func cbcDecrypt(rk *[240]byte, iv *byte, dst, src []byte)

//go:noescape
func cbcEncryptSHA1(rk *[240]byte, iv *byte, dst, src []byte, h *[5]uint32, p *byte, blocks int)

// aesniCBC holds the 15 encryption and 15 decryption round keys of one
// AES-256 key.
type aesniCBC struct{ enc, dec [240]byte }

func newAESNICBC(key []byte) (cbcMode, error) {
	if len(key) != 32 {
		return nil, aes.KeySizeError(len(key))
	}
	c := new(aesniCBC)
	expandKey256(&key[0], &c.enc, &c.dec)
	return c, nil
}

// checkCBC guards the kernels' memory accesses, as CryptBlocks does.
func checkCBC(iv, dst, src []byte) {
	if len(iv) != aes.BlockSize || len(src)%aes.BlockSize != 0 || len(dst) < len(src) {
		panic("securechan: bad CBC buffers")
	}
}

func (c *aesniCBC) decrypt(iv, dst, src []byte) {
	checkCBC(iv, dst, src)
	cbcDecrypt(&c.dec, &iv[0], dst, src)
}

// encryptMAC stitches encryption and MAC when mac is the kernels' HMAC
// (both instruction sets present): cbcEncryptSHA1 hashes each 64 bytes
// of ciphertext in the loop that encrypts the next ones.
func (c *aesniCBC) encryptMAC(mac hash.Hash, iv, dst, src []byte) {
	checkCBC(iv, dst, src)
	dst = dst[:len(src)]
	m, ok := mac.(*hmacSHA1)
	if !ok {
		cbcEncrypt(&c.enc, &iv[0], dst, src)
		mac.Write(iv)
		mac.Write(dst)
		return
	}
	d := &m.inner
	d.Write(iv)
	// fill bytes of ciphertext complete the digest's partial block. The
	// first head bytes are encrypted ahead, so the stitched loop's SHA-1
	// half trails its AES half by at least one SHA-1 block.
	fill := (sha1.BlockSize - d.nx) % sha1.BlockSize
	head := (fill+aes.BlockSize-1)&^(aes.BlockSize-1) + sha1.BlockSize
	if len(dst) < head+sha1.BlockSize {
		cbcEncrypt(&c.enc, &iv[0], dst, src)
		d.Write(dst)
		return
	}
	cbcEncrypt(&c.enc, &iv[0], dst[:head], src[:head])
	d.Write(dst[:fill])
	blocks := (len(dst) - fill) / sha1.BlockSize
	cbcEncryptSHA1(&c.enc, &dst[head-aes.BlockSize], dst[head:], src[head:], &d.h, &dst[fill], blocks)
	d.len += uint64(blocks * sha1.BlockSize)
	d.Write(dst[fill+blocks*sha1.BlockSize:])
}

// sha1Digest is SHA-1 (FIPS 180-4) over sha1BlockNI.
type sha1Digest struct {
	h   [5]uint32
	x   [sha1.BlockSize]byte // a partial block
	nx  int
	len uint64
}

func newSHA1Digest() *sha1Digest {
	d := new(sha1Digest)
	d.Reset()
	return d
}

func (d *sha1Digest) Reset() {
	d.h = [5]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0}
	d.nx, d.len = 0, 0
}

func (d *sha1Digest) Size() int      { return sha1.Size }
func (d *sha1Digest) BlockSize() int { return sha1.BlockSize }

func (d *sha1Digest) Write(p []byte) (int, error) {
	n := len(p)
	d.len += uint64(n)
	if d.nx > 0 {
		c := copy(d.x[d.nx:], p)
		d.nx += c
		p = p[c:]
		if d.nx < len(d.x) {
			return n, nil
		}
		sha1BlockNI(&d.h, d.x[:])
		d.nx = 0
	}
	if whole := len(p) &^ (sha1.BlockSize - 1); whole > 0 {
		sha1BlockNI(&d.h, p[:whole])
		p = p[whole:]
	}
	d.nx = copy(d.x[:], p)
	return n, nil
}

// Sum appends the digest without disturbing d, so writing may go on.
func (d *sha1Digest) Sum(in []byte) []byte {
	d0 := *d
	// Padding: 0x80, zeros up to 56 mod 64, then the length in bits.
	var pad [sha1.BlockSize + 8]byte
	pad[0] = 0x80
	n := 56 - d0.len%sha1.BlockSize
	if d0.len%sha1.BlockSize >= 56 {
		n += sha1.BlockSize
	}
	binary.BigEndian.PutUint64(pad[n:], d0.len<<3)
	d0.Write(pad[:n+8])
	var sum [sha1.Size]byte
	for i, v := range d0.h {
		binary.BigEndian.PutUint32(sum[4*i:], v)
	}
	return append(in, sum[:]...)
}

// hmacSHA1 is HMAC-SHA1 (RFC 2104) over sha1Digest. The key's padded
// blocks are hashed once, when the key is set, rather than per record,
// and the inner digest is open to aesniCBC.encryptMAC.
type hmacSHA1 struct {
	inner, outer sha1Digest
	ipad, opad   [5]uint32 // the states after the padded key blocks
}

func newHMACSHA1(key []byte) hash.Hash {
	if len(key) > sha1.BlockSize {
		d := newSHA1Digest()
		d.Write(key)
		key = d.Sum(nil)
	}
	var pad [sha1.BlockSize]byte
	copy(pad[:], key)
	for i := range pad {
		pad[i] ^= 0x36
	}
	m := new(hmacSHA1)
	m.inner.Reset()
	m.inner.Write(pad[:])
	m.ipad = m.inner.h
	for i := range pad {
		pad[i] ^= 0x36 ^ 0x5c
	}
	m.outer.Reset()
	m.outer.Write(pad[:])
	m.opad = m.outer.h
	m.Reset()
	return m
}

func (m *hmacSHA1) Reset() {
	m.inner.h, m.inner.nx, m.inner.len = m.ipad, 0, sha1.BlockSize
}

func (m *hmacSHA1) Write(p []byte) (int, error) { return m.inner.Write(p) }

func (m *hmacSHA1) Sum(in []byte) []byte {
	var inner [sha1.Size]byte
	m.inner.Sum(inner[:0])
	m.outer.h, m.outer.nx, m.outer.len = m.opad, 0, sha1.BlockSize
	m.outer.Write(inner[:])
	return m.outer.Sum(in)
}

func (m *hmacSHA1) Size() int      { return sha1.Size }
func (m *hmacSHA1) BlockSize() int { return sha1.BlockSize }

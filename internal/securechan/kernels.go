package securechan

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha1"
	"hash"
)

// The record layer's two primitives, HMAC-SHA1 and AES-256-CBC, run on
// the CPU's SHA and AES instructions where it has them
// (kernels_amd64.s), as the OpenSSL the paper measured did: Go's
// crypto/sha1 stops at AVX2 and its CBC mode runs one block per call.
// Elsewhere, and on CPUs without the instructions, the record layer
// runs the standard library. For the same key, IV and input both
// produce the same bytes.
//
// hw holds the kernels this CPU runs, set once at init from CPUID
// (kernels_amd64.go); a nil entry means the standard library. Tests
// swap the entries to run both paths.
var hw struct {
	hmac func(key []byte) hash.Hash
	cbc  func(key []byte) (cbcMode, error)
}

// newHMAC returns HMAC-SHA1 under key.
func newHMAC(key []byte) hash.Hash {
	if hw.hmac != nil {
		return hw.hmac(key)
	}
	return hmac.New(sha1.New, key)
}

// cbcMode is AES-256-CBC over whole blocks. iv is one block; dst and
// src overlap exactly or not at all.
type cbcMode interface {
	// encryptMAC encrypts src into dst and writes iv and the
	// ciphertext to mac: encrypt-then-MAC.
	encryptMAC(mac hash.Hash, iv, dst, src []byte)
	decrypt(iv, dst, src []byte)
}

// newCBC expands an AES-256 key for CBC in both directions.
func newCBC(key []byte) (cbcMode, error) {
	if hw.cbc != nil {
		return hw.cbc(key)
	}
	b, err := aes.NewCipher(key)
	return stdCBC{b}, err
}

// stdCBC is crypto/cipher's CBC mode over crypto/aes.
type stdCBC struct{ b cipher.Block }

func (c stdCBC) encryptMAC(mac hash.Hash, iv, dst, src []byte) {
	cipher.NewCBCEncrypter(c.b, iv).CryptBlocks(dst, src)
	mac.Write(iv)
	mac.Write(dst[:len(src)])
}

func (c stdCBC) decrypt(iv, dst, src []byte) {
	cipher.NewCBCDecrypter(c.b, iv).CryptBlocks(dst, src)
}

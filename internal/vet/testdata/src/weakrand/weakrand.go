// Package weakrand holds the cases of the retired weak-rand analyzer —
// math/rand values becoming cryptographic material — as input to the
// rule that replaced it (randRule). The rule rejects them all at the
// import: this file is not one of the files allowed math/rand, and it
// imports crypto/hmac next to it.
package weakrand

import (
	"crypto/hmac"
	"crypto/sha256"
	mrand "math/rand" // want "is not in mathRandFiles" want "next to crypto/hmac, crypto/sha256"
	"time"
)

// deriveKeys stands in for the module's key-derivation helpers; its
// name makes it a sink.
func deriveKeys(secret []byte) []byte { return secret }

// badNonce fills a nonce byte-by-byte from math/rand.
func badNonce() []byte {
	nonce := make([]byte, 12)
	for i := range nonce {
		nonce[i] = byte(mrand.Intn(256))
	}
	return nonce
}

// badKey assigns a math/rand value to key material.
func badKey() uint64 {
	var key uint64
	key = mrand.Uint64()
	return key
}

// badMAC keys an HMAC from math/rand bytes.
func badMAC(msg []byte) []byte {
	weak := []byte{byte(mrand.Intn(256))}
	h := hmac.New(sha256.New, weak)
	h.Write(msg)
	return h.Sum(nil)
}

// badFill uses math/rand.Read to populate a nonce buffer.
func badFill() [12]byte {
	var nonceBuf [12]byte
	mrand.Read(nonceBuf[:])
	return nonceBuf
}

// badDerive feeds weak bytes into a derivation helper.
func badDerive() []byte {
	seed := []byte{byte(mrand.Intn(256))}
	return deriveKeys(seed)
}

// jitter is the legitimate use: math/rand converted to a backoff
// duration is classified benign at the conversion.
func jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(mrand.Int63n(int64(d/2)+1))
}

// xid seeds a protocol transaction id — not a crypto sink.
func xid() uint32 {
	return mrand.Uint32()
}

package securechan

import (
	"crypto/rand"
	"testing"
)

// BenchmarkSealOpen measures the record-layer hot path (one full-size
// data record sealed and opened) per suite and kernel path, tracking
// allocs/op: sealing into a buffer with room allocates nothing.
func BenchmarkSealOpen(b *testing.B) {
	for _, suite := range allSuites {
		for _, p := range kernelPaths() {
			b.Run(suite.String()+"/"+p.name, func(b *testing.B) {
				encKey := make([]byte, suite.keyLen())
				macKey := make([]byte, 20)
				rand.Read(encKey)
				rand.Read(macKey)
				enc := sealerOn(b, p, suite, encKey, macKey)
				dec := sealerOn(b, p, suite, encKey, macKey)
				plaintext := make([]byte, maxRecordPlaintext)
				rand.Read(plaintext)
				scratch := make([]byte, 0, maxFrame)
				b.SetBytes(maxRecordPlaintext)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rec, err := enc.seal(scratch[:0], recData, plaintext)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := dec.open(recData, rec); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPrimitives measures HMAC-SHA1, AES-256-CBC encryption with
// the HMAC of its ciphertext (stitched on the kernels) and AES-256-CBC
// decryption over a 32 KiB message (one NFS block) per kernel path.
func BenchmarkPrimitives(b *testing.B) {
	const size = 32 << 10
	key := make([]byte, 32)
	iv := make([]byte, 16)
	buf := make([]byte, size)
	rand.Read(key)
	rand.Read(buf)
	for _, p := range kernelPaths() {
		useKernels(b, p)
		h := newHMAC(key[:20])
		sum := make([]byte, 0, 20)
		c, err := newCBC(key)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("hmac-sha1/"+p.name, func(b *testing.B) {
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				h.Reset()
				h.Write(buf)
				h.Sum(sum)
			}
		})
		b.Run("cbc-encrypt-hmac/"+p.name, func(b *testing.B) {
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				h.Reset()
				c.encryptMAC(h, iv, buf, buf)
				h.Sum(sum)
			}
		})
		b.Run("cbc-decrypt/"+p.name, func(b *testing.B) {
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				c.decrypt(iv, buf, buf)
			}
		})
	}
}

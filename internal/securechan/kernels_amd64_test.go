package securechan

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha1"
	"errors"
	"testing"
)

// fit returns b cut or zero-extended to n bytes.
func fit(b []byte, n int) []byte {
	out := make([]byte, n)
	copy(out, b)
	return out
}

// FuzzKernelsMatchStdlib checks the SHA and AES kernels against the
// standard library bit for bit: SHA-1 fed in two pieces, HMAC-SHA1,
// CBC encryption and decryption (in place and not), the stitched
// encryption+HMAC after a prefix of any length, and, per suite, a
// record sealed with a fixed IV, which must be the same bytes on both
// paths and open on either. A record with any byte flipped must open
// as ErrRecordMAC on both.
func FuzzKernelsMatchStdlib(f *testing.F) {
	for _, n := range []int{0, 1, 15, 16, 55, 56, 64, 127, 128, 200, 1000, 16<<10 + 3, maxRecordPlaintext} {
		key, iv := bytes.Repeat([]byte{0x5a, 0x17}, 16), bytes.Repeat([]byte{0xa5}, 16)
		pt := make([]byte, n)
		for i := range pt {
			pt[i] = byte(i * 7)
		}
		f.Add(key, iv, pt, uint32(n*31+1))
	}
	// Every fill of the digest's partial block before the stitched loop.
	for cut := uint32(0); cut < sha1.BlockSize; cut++ {
		f.Add([]byte("k"), []byte("iv"), make([]byte, 1000), cut)
	}
	paths := kernelPaths()
	f.Fuzz(func(t *testing.T, key, iv, plaintext []byte, cut uint32) {
		if len(paths) < 2 {
			t.Skip("no SHA or AES instructions on this CPU")
		}
		key, iv = fit(key, 32), fit(iv, aes.BlockSize)
		plaintext = plaintext[:min(len(plaintext), maxRecordPlaintext)]
		split := int(cut) % (len(plaintext) + 1)

		if hasSHANI() {
			d := newSHA1Digest()
			d.Write(plaintext[:split])
			d.Write(plaintext[split:])
			if want := sha1.Sum(plaintext); !bytes.Equal(d.Sum(nil), want[:]) {
				t.Fatalf("SHA-1 of %d bytes differs", len(plaintext))
			}
			for _, k := range [][]byte{key[:20], bytes.Repeat(key, 3)} {
				got, want := newHMACSHA1(k), hmac.New(sha1.New, k)
				got.Write(plaintext)
				want.Write(plaintext)
				if !bytes.Equal(got.Sum(nil), want.Sum(nil)) {
					t.Fatalf("HMAC-SHA1 of %d bytes under a %d-byte key differs", len(plaintext), len(k))
				}
			}
		}

		blocks := plaintext[:len(plaintext)&^(aes.BlockSize-1)]
		block, err := aes.NewCipher(key)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, len(blocks))
		cipher.NewCBCEncrypter(block, iv).CryptBlocks(want, blocks)
		if hasAESNI() {
			c, err := newAESNICBC(key)
			if err != nil {
				t.Fatal(err)
			}
			ni := c.(*aesniCBC)
			got := make([]byte, len(blocks))
			cbcEncrypt(&ni.enc, &iv[0], got, blocks)
			if !bytes.Equal(got, want) {
				t.Fatalf("CBC encryption of %d bytes differs", len(blocks))
			}
			ni.decrypt(iv, got, want)
			if !bytes.Equal(got, blocks) {
				t.Fatalf("CBC decryption of %d bytes differs", len(blocks))
			}
			inPlace := bytes.Clone(want)
			ni.decrypt(iv, inPlace, inPlace)
			if !bytes.Equal(inPlace, blocks) {
				t.Fatalf("in-place CBC decryption of %d bytes differs", len(blocks))
			}
			if hasSHANI() {
				// The stitched path, after a prefix that leaves the
				// digest's partial block at any fill.
				prefix := plaintext[:split%sha1.BlockSize]
				got, wantMAC := newHMACSHA1(key[:20]), hmac.New(sha1.New, key[:20])
				got.Write(prefix)
				wantMAC.Write(prefix)
				wantMAC.Write(iv)
				wantMAC.Write(want)
				ct := bytes.Clone(blocks)
				ni.encryptMAC(got, iv, ct, ct)
				if !bytes.Equal(ct, want) || !bytes.Equal(got.Sum(nil), wantMAC.Sum(nil)) {
					t.Fatalf("stitched CBC+HMAC of %d bytes after %d differs", len(blocks), len(prefix))
				}
			}
		}

		macKey := key[:20]
		for _, suite := range allSuites {
			encKey := key[:suite.keyLen()]
			var recs [][]byte
			for _, p := range paths {
				s := sealerOn(t, p, suite, encKey, macKey)
				s.ivs = bytes.NewReader(iv)
				rec, err := s.seal(nil, recData, plaintext)
				if err != nil {
					t.Fatal(err)
				}
				recs = append(recs, rec)
			}
			if !bytes.Equal(recs[0], recs[1]) {
				t.Fatalf("%v: records of %d bytes differ between stdlib and kernels", suite, len(plaintext))
			}
			flipped := bytes.Clone(recs[0])
			flipped[int(cut)%len(flipped)] ^= byte(cut>>8) | 1
			for i, p := range paths {
				got, err := sealerOn(t, p, suite, encKey, macKey).open(recData, bytes.Clone(recs[1-i]))
				if err != nil || !bytes.Equal(got, plaintext) {
					t.Fatalf("%v: %s failed to open the other path's record: %v", suite, p.name, err)
				}
				if _, err := sealerOn(t, p, suite, encKey, macKey).open(recData, bytes.Clone(flipped)); !errors.Is(err, ErrRecordMAC) {
					t.Fatalf("%v: %s opened a flipped record with %v, want ErrRecordMAC", suite, p.name, err)
				}
			}
		}
	})
}

//go:build !race

package securechan

import (
	"io"
	"testing"
)

// TestWriteReadAllocs pins the heap allocations of one 32 KiB Write on
// an AES channel and the Reads that deliver it on the other end, per
// kernel path: the kernels allocate nothing, crypto/cipher's CBC its
// encrypter and its decrypter per record. testing.AllocsPerRun counts
// every goroutine, the reader's included. (Like every budget file, this
// one builds only without -race.)
func TestWriteReadAllocs(t *testing.T) {
	pki := newPKI(t)
	for _, p := range kernelPaths() {
		t.Run(p.name, func(t *testing.T) {
			useKernels(t, p)
			budget := 0
			if p.cbc == nil {
				budget = 2
			}
			ccfg, scfg := suiteConfigs(pki, SuiteAES256SHA1)
			cc, sc := handshakePair(t, pki, ccfg, scfg)
			p := make([]byte, 32<<10)
			// Buffered, so the reader's last send, the error after the
			// pair closes, does not block with no one receiving.
			done := make(chan error, 1)
			go func() {
				buf := make([]byte, len(p))
				for {
					_, err := io.ReadFull(sc, buf)
					done <- err
					if err != nil {
						return
					}
				}
			}()
			got := testing.AllocsPerRun(200, func() {
				if _, err := cc.Write(p); err != nil {
					t.Fatal(err)
				}
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			})
			if got > float64(budget) {
				t.Errorf("%.0f allocs per 32 KiB Write/Read, budget %d", got, budget)
			} else if got < float64(budget) {
				t.Logf("%.0f allocs per 32 KiB Write/Read, under the budget of %d: lower the pin", got, budget)
			}
		})
	}
}

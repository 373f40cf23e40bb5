//go:build !race

package securechan

import (
	"io"
	"testing"
)

// TestWriteReadAllocs pins the heap allocations of one 32 KiB Write on
// an AES channel and the Reads that deliver it on the other end.
// testing.AllocsPerRun counts every goroutine, the reader's included.
// (Like every budget file, this one builds only without -race.)
func TestWriteReadAllocs(t *testing.T) {
	const budget = 4
	pki := newPKI(t)
	suites := []Suite{SuiteAES256SHA1}
	cc, sc := handshakePair(t, pki,
		&Config{Credential: pki.client, Roots: pki.ca.Pool(), Suites: suites},
		&Config{Credential: pki.server, Roots: pki.ca.Pool(), Suites: suites})
	p := make([]byte, 32<<10)
	done := make(chan error)
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
	if got > budget {
		t.Errorf("%.0f allocs per 32 KiB Write/Read, budget %d", got, budget)
	} else if got < budget {
		t.Logf("%.0f allocs per 32 KiB Write/Read, under the budget of %d: lower the pin", got, budget)
	}
}

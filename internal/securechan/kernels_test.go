package securechan

import (
	"bytes"
	"io"
	"testing"
)

// sealerOn makes a sealer whose primitives come from path p.
func sealerOn(t testing.TB, p kernelPath, suite Suite, encKey, macKey []byte) *sealer {
	t.Helper()
	old := hw
	hw.hmac, hw.cbc = p.hmac, p.cbc
	s, err := newSealer(suite, encKey, macKey)
	hw = old
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMixedKernelsPair moves 1 MiB each way, per suite, between a
// client on the kernels and a server on the standard library.
func TestMixedKernelsPair(t *testing.T) {
	paths := kernelPaths()
	if len(paths) < 2 {
		t.Skip("no SHA or AES instructions on this CPU")
	}
	pki := newPKI(t)
	for _, suite := range allSuites {
		t.Run(suite.String(), func(t *testing.T) {
			useKernels(t, paths[1])
			ccfg, scfg := suiteConfigs(pki, suite)
			cc, sc := handshakePair(t, pki, ccfg, scfg)
			// Before any record, give the server fresh sealers (sequence
			// 0, same keys) on the standard library.
			encW, macW := sc.hs.directionKeys(false, 0)
			encR, macR := sc.hs.directionKeys(true, 0)
			sc.wSealer = sealerOn(t, paths[0], suite, encW, macW)
			sc.rSealer = sealerOn(t, paths[0], suite, encR, macR)

			payload := make([]byte, 1<<20)
			for i := range payload {
				payload[i] = byte(i * 13)
			}
			for _, dir := range []struct {
				name string
				w, r *Conn
			}{{"kernels to stdlib", cc, sc}, {"stdlib to kernels", sc, cc}} {
				errc := make(chan error, 1)
				go func() {
					_, err := dir.w.Write(payload)
					errc <- err
				}()
				got := make([]byte, len(payload))
				if _, err := io.ReadFull(dir.r, got); err != nil {
					// Unblock the writer, or Cleanup's Close waits on it.
					dir.w.raw.Close()
					t.Fatalf("%s: %v", dir.name, err)
				}
				if err := <-errc; err != nil {
					t.Fatalf("%s: %v", dir.name, err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatalf("%s: payload corrupted", dir.name)
				}
			}
		})
	}
}

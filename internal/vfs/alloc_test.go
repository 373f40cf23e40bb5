//go:build !race

package vfs

import (
	"math/bits"
	"testing"
)

// TestMemFSAppendAllocs: a file grows geometrically, so n appending
// writes allocate O(log n) times, not once each.
func TestMemFSAppendAllocs(t *testing.T) {
	const n = 1024
	fs := NewMemFS()
	chunk := make([]byte, 1024)
	allocs := testing.AllocsPerRun(3, func() {
		h, _, err := fs.Create(fs.Root(), "f", SetAttr{}, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := range n {
			if err := fs.Write(h, uint64(i*len(chunk)), chunk); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Remove(fs.Root(), "f"); err != nil {
			t.Fatal(err)
		}
	})
	if budget := 2 * bits.Len(n); allocs > float64(budget) {
		t.Fatalf("%d appending writes allocated %.0f times, want at most %d", n, allocs, budget)
	}
	t.Logf("%d appending writes: %.0f allocs", n, allocs)
}

//go:build !race

package proxy

import (
	"testing"

	"repro/internal/nfs3"
)

// TestRememberParentAllocs pins re-recording a known object's parent
// (READDIRPLUS listing a directory again) at zero allocations, and
// checks that a moved object is still re-recorded.
func TestRememberParentAllocs(t *testing.T) {
	p := &ServerProxy{parents: make(map[string]parentRef)}
	obj := nfs3.FH3{Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	dir := nfs3.FH3{Data: []byte{9, 10, 11, 12}}
	p.rememberParent(obj, dir, "f")
	if got := testing.AllocsPerRun(100, func() { p.rememberParent(obj, dir, "f") }); got != 0 {
		t.Errorf("re-remembering a known object: %.0f allocs, budget 0", got)
	}
	other := nfs3.FH3{Data: []byte{13, 14, 15, 16}}
	p.rememberParent(obj, other, "g")
	if ref, ok := p.parentOf(obj); !ok || ref != (parentRef{dir: string(other.Data), name: "g"}) {
		t.Fatalf("after a move the parent is %+v, %v", ref, ok)
	}
}

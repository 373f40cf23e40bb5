//go:build !race

package xdr_test

import (
	"testing"

	"repro/internal/nfs3"
	"repro/internal/xdr"
)

// TestMarshalAllocs pins the heap allocations of xdr.Marshal and
// xdr.Unmarshal of a 32 KiB READ reply with its attributes, the
// largest message the data path carries. Unmarshal decodes into a
// reused reply, as the RPC layer's pooled decode state does. (Like
// every budget file, this one builds only without -race.)
func TestMarshalAllocs(t *testing.T) {
	res := &nfs3.ReadRes{
		Status: nfs3.OK,
		Attr:   nfs3.PostOpAttr{Present: true, Attr: nfs3.Fattr3{Type: 1, Mode: 0o644, Size: 1 << 20}},
		Count:  32 << 10,
		Data:   make([]byte, 32<<10),
	}
	wire, err := xdr.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var out nfs3.ReadRes
	for _, c := range []struct {
		name   string
		budget float64
		op     func() error
	}{
		{"Marshal", 7, func() error { _, err := xdr.Marshal(res); return err }},
		{"Unmarshal", 2, func() error { return xdr.Unmarshal(wire, &out) }},
	} {
		got := testing.AllocsPerRun(200, func() {
			if err := c.op(); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.budget {
			t.Errorf("%s: %.0f allocs per READ reply, budget %.0f", c.name, got, c.budget)
		} else if got < c.budget {
			t.Logf("%s: %.0f allocs per READ reply, under the budget of %.0f: lower the pin", c.name, got, c.budget)
		}
	}
}

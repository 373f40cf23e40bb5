package mountd

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/nfs3"
	"repro/internal/xdr"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from the current encoders")

// TestWireGolden pins the encoding of the MOUNT messages: zero values,
// populated values and a refused MNT.
func TestWireGolden(t *testing.T) {
	type message interface {
		xdr.Marshaler
		xdr.Unmarshaler
	}
	fh := nfs3.FH3{Data: []byte{1, 2, 3, 4, 5}}
	cases := []struct {
		name string
		msg  message
		zero func() message
	}{
		{"MNT/args/zero", &MntArgs{}, func() message { return &MntArgs{} }},
		{"MNT/args", &MntArgs{Path: "/export/grid"}, func() message { return &MntArgs{} }},
		{"MNT/res/zero", &MntRes{}, func() message { return &MntRes{} }},
		{"MNT/res", &MntRes{Status: MntOK, FH: fh, Flavors: []uint32{0, 1, 6}}, func() message { return &MntRes{} }},
		{"MNT/res/error", &MntRes{Status: MntAccess, FH: fh, Flavors: []uint32{1}}, func() message { return &MntRes{} }},
		{"EXPORT/res/zero", &ExportRes{}, func() message { return &ExportRes{} }},
		{"EXPORT/res", &ExportRes{Exports: []ExportEntry{
			{Path: "/a", Groups: []string{"localhost", "10.0."}},
			{Path: "/export/b"},
		}}, func() message { return &ExportRes{} }},
	}

	var got bytes.Buffer
	for _, c := range cases {
		b, err := xdr.Marshal(c.msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		fmt.Fprintf(&got, "%s %x\n", c.name, b)
	}
	path := filepath.Join("testdata", "wire.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d golden lines, want %d", len(gotLines), len(wantLines))
	}
	for i, c := range cases {
		if gotLines[i] != wantLines[i] {
			t.Errorf("encoding changed:\n got %s\nwant %s", gotLines[i], wantLines[i])
		}
		_, pinned, _ := strings.Cut(wantLines[i], " ")
		b, err := hex.DecodeString(pinned)
		if err != nil {
			t.Fatal(err)
		}
		v := c.zero()
		if err := xdr.Unmarshal(b, v); err != nil {
			t.Errorf("%s: decode pinned bytes: %v", c.name, err)
			continue
		}
		if again, err := xdr.Marshal(v); err != nil || hex.EncodeToString(again) != pinned {
			t.Errorf("%s: pinned bytes decode and re-encode to %x (%v)", c.name, again, err)
		}
	}
}

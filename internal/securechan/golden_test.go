package securechan

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/xdr"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from the current encoders")

// TestWireGolden pins the encoding of the handshake messages: zero
// values, a client hello, a server hello and a finished message.
func TestWireGolden(t *testing.T) {
	type message interface {
		xdr.Marshaler
		xdr.Unmarshaler
	}
	client := &hello{
		Version: protocolVersion,
		Suites:  []Suite{SuiteAES256SHA1, SuiteRC4SHA1, SuiteNullSHA1},
		Chain:   [][]byte{{0x30, 0x82, 0x01}, {0x30, 0x82, 0x02, 0x03, 0x04}},
		ECDHPub: bytes.Repeat([]byte{4}, 65),
	}
	server := &hello{Version: protocolVersion, Suites: []Suite{SuiteRC4SHA1},
		Chain: [][]byte{{0x30}}, ECDHPub: bytes.Repeat([]byte{5}, 65), Sig: []byte{0x30, 0x45, 0x02}}
	for i := range client.Random {
		client.Random[i], server.Random[i] = byte(i), byte(255-i)
	}
	cases := []struct {
		name string
		msg  message
		zero func() message
	}{
		{"hello/zero", &hello{}, func() message { return &hello{} }},
		{"hello/client", client, func() message { return &hello{} }},
		{"hello/server", server, func() message { return &hello{} }},
		{"finished/zero", &finished{}, func() message { return &finished{} }},
		{"finished", &finished{Sig: []byte{0x30, 0x44, 0x01}, MAC: bytes.Repeat([]byte{7}, 32)}, func() message { return &finished{} }},
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

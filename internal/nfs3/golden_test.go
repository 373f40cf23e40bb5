package nfs3

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/vfs"
	"repro/internal/xdr"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from the current encoders")

// goldenCase is one value pinned in testdata/wire.golden: its encoding
// must not change, and decoding the pinned bytes into zero must encode
// back to the same bytes.
type goldenCase struct {
	name string
	msg  Message
	zero func() Message
}

// fillWire sets every field reachable from v to a distinct value drawn
// from *n. Status fields stay OK and the time discriminants select the
// client-time arm, so every optional part of a message is on the wire.
func fillWire(v reflect.Value, n *uint64) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); v.Type().Field(i).Name {
			case "Status":
			case "AtimeHow", "MtimeHow":
				f.SetUint(SetToClientTime)
			default:
				fillWire(f, n)
			}
		}
	case reflect.Uint32, reflect.Uint64, reflect.Uint8:
		v.SetUint(*n)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprintf("name%d", *n))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillWire(v.Index(i), n)
		}
	case reflect.Slice:
		k := 2
		if v.Type().Elem().Kind() == reflect.Uint8 {
			k = 5 // odd, so the padding is on the wire
		}
		v.Set(reflect.MakeSlice(v.Type(), k, k))
		for i := 0; i < k; i++ {
			fillWire(v.Index(i), n)
		}
	}
}

func filled(m Message) Message {
	n := uint64(100)
	fillWire(reflect.ValueOf(m).Elem(), &n)
	return m
}

// TestWireGolden pins the encoding of the zero value, a populated value
// and an error result of every type in the procedure table.
func TestWireGolden(t *testing.T) {
	var cases []goldenCase
	for proc := ProcGetAttr; proc < len(procs); proc++ {
		p := procs[proc]
		if p.newArgs != nil {
			cases = append(cases,
				goldenCase{p.name + "/args/zero", p.newArgs(), p.newArgs},
				goldenCase{p.name + "/args", filled(p.newArgs()), p.newArgs})
		}
		failed := filled(p.newRes())
		reflect.ValueOf(failed).Elem().FieldByName("Status").SetUint(uint64(vfs.ErrNoEnt))
		cases = append(cases,
			goldenCase{p.name + "/res/zero", p.newRes(), p.newRes},
			goldenCase{p.name + "/res", filled(p.newRes()), p.newRes},
			goldenCase{p.name + "/res/error", failed, p.newRes})
	}
	excl := filled(&CreateArgs{}).(*CreateArgs)
	excl.Mode = CreateExclusive
	cases = append(cases, goldenCase{"CREATE/args/exclusive", excl, procs[ProcCreate].newArgs})

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

package nfs4_test

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

	"repro/internal/nfs4"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wire.golden from the current encoders")

// opCodes lists every COMPOUND operation code.
var opCodes = []uint32{
	nfs4.OpAccess, nfs4.OpClose, nfs4.OpCommit, nfs4.OpCreate, nfs4.OpGetAttr,
	nfs4.OpGetFH, nfs4.OpLink, nfs4.OpLookup, nfs4.OpLookupP, nfs4.OpOpen,
	nfs4.OpPutFH, nfs4.OpPutRootFH, nfs4.OpRead, nfs4.OpReadDir, nfs4.OpReadLink,
	nfs4.OpRemove, nfs4.OpRename, nfs4.OpRestoreFH, nfs4.OpSaveFH, nfs4.OpSetAttr,
	nfs4.OpWrite,
}

// fillWire sets every field reachable from v to a distinct value drawn
// from *n; Status fields stay OK and time discriminants select the
// client-time arm.
func fillWire(v reflect.Value, n *uint64) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); v.Type().Field(i).Name {
			case "Status":
			case "AtimeHow", "MtimeHow":
				f.SetUint(2)
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
			k = 5
		}
		v.Set(reflect.MakeSlice(v.Type(), k, k))
		for i := 0; i < k; i++ {
			fillWire(v.Index(i), n)
		}
	}
}

// TestWireGolden pins the encoding of a COMPOUND request and reply that
// use every operation code, an error reply, and the zero values.
func TestWireGolden(t *testing.T) {
	n := uint64(100)
	args := &nfs4.CompoundArgs{Tag: "golden"}
	res := &nfs4.CompoundRes{Tag: "golden"}
	for _, code := range opCodes {
		var op nfs4.Op
		var r nfs4.OpResult
		fillWire(reflect.ValueOf(&op).Elem(), &n)
		fillWire(reflect.ValueOf(&r).Elem(), &n)
		op.Code, r.Code = code, code
		args.Ops = append(args.Ops, op)
		res.Results = append(res.Results, r)
	}
	failed := &nfs4.CompoundRes{Status: nfs4.Status(vfs.ErrNoEnt), Tag: "golden",
		Results: []nfs4.OpResult{res.Results[0], {Code: nfs4.OpLookup, Status: nfs4.Status(vfs.ErrNoEnt)}}}
	type message interface {
		xdr.Marshaler
		xdr.Unmarshaler
	}
	cases := []struct {
		name string
		msg  message
		zero func() message
	}{
		{"COMPOUND/args/zero", &nfs4.CompoundArgs{}, func() message { return &nfs4.CompoundArgs{} }},
		{"COMPOUND/args", args, func() message { return &nfs4.CompoundArgs{} }},
		{"COMPOUND/res/zero", &nfs4.CompoundRes{}, func() message { return &nfs4.CompoundRes{} }},
		{"COMPOUND/res", res, func() message { return &nfs4.CompoundRes{} }},
		{"COMPOUND/res/error", failed, func() message { return &nfs4.CompoundRes{} }},
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

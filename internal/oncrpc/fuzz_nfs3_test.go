package oncrpc_test

// Fuzz coverage for the NFSv3 wire messages carried over ONC RPC: for
// every message type, decoding arbitrary bytes must never panic, and
// any bytes that decode must re-encode to a stable canonical form
// (encode → decode → encode is a fixed point). The target lives in an
// external test package because nfs3 imports oncrpc for its RPC
// registration.

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/nfs3"
	"repro/internal/xdr"
)

// codec bundles both directions of one fuzzed message type.
type codec interface {
	xdr.Marshaler
	xdr.Unmarshaler
}

// nfs3Messages returns fresh zero values of the fuzzed NFSv3 types.
// Index order is part of the corpus encoding — append only.
func nfs3Messages() []codec {
	return []codec{
		&nfs3.GetAttrArgs{},
		&nfs3.GetAttrRes{},
		&nfs3.SetAttrArgs{},
		&nfs3.LookupArgs{},
		&nfs3.LookupRes{},
		&nfs3.AccessArgs{},
		&nfs3.AccessRes{},
		&nfs3.ReadArgs{},
		&nfs3.ReadRes{},
		&nfs3.WriteArgs{},
		&nfs3.WriteRes{},
		&nfs3.CreateArgs{},
		&nfs3.CreateRes{},
		&nfs3.MkdirArgs{},
		&nfs3.RemoveArgs{},
		&nfs3.RenameArgs{},
		&nfs3.RenameRes{},
		&nfs3.ReadDirRes{},
		&nfs3.ReadDirPlusRes{},
	}
}

func FuzzNFS3DecodeRoundTrip(f *testing.F) {
	// Seed corpus: canonical encodings of representative messages,
	// plus degenerate inputs.
	seed := []codec{
		&nfs3.GetAttrArgs{Obj: nfs3.FH3{Data: []byte{1, 2, 3, 4}}},
		&nfs3.GetAttrRes{Status: nfs3.OK, Attr: nfs3.Fattr3{Type: 1, Mode: 0o644, Size: 4096}},
		&nfs3.LookupArgs{What: nfs3.DirOpArgs{Dir: nfs3.FH3{Data: []byte{9}}, Name: "payload.dat"}},
		&nfs3.ReadArgs{Obj: nfs3.FH3{Data: []byte{7, 7}}, Offset: 65536, Count: 32768},
		&nfs3.WriteRes{Status: nfs3.OK, Count: 512, Committed: 2},
		&nfs3.RenameArgs{
			From: nfs3.DirOpArgs{Dir: nfs3.FH3{Data: []byte{1}}, Name: "a"},
			To:   nfs3.DirOpArgs{Dir: nfs3.FH3{Data: []byte{2}}, Name: "b"},
		},
		&nfs3.ReadDirRes{Status: nfs3.OK, Entries: []nfs3.DirEntry3{{FileID: 3, Name: "x", Cookie: 1}}, EOF: true},
	}
	kinds := nfs3Messages()
	for _, msg := range seed {
		data, err := xdr.Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		for k, proto := range kinds {
			// Seed the matching kind with the valid encoding; a couple
			// of deliberate mismatches exercise error paths.
			if sameType(proto, msg) || k == 0 {
				f.Add(k, data)
			}
		}
	}
	f.Add(0, []byte{})
	f.Add(1, []byte{0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, kind int, data []byte) {
		kinds := nfs3Messages()
		if kind < 0 || kind >= len(kinds) {
			return
		}
		msg := kinds[kind]
		if err := xdr.Unmarshal(data, msg); err != nil {
			return // rejected input is fine; panics are not
		}
		// Accepted input must re-encode to a canonical fixed point.
		first, err := xdr.Marshal(msg)
		if err != nil {
			t.Fatalf("re-encode of accepted %T failed: %v", msg, err)
		}
		fresh := nfs3Messages()[kind]
		if err := xdr.Unmarshal(first, fresh); err != nil {
			t.Fatalf("decode of canonical %T encoding failed: %v", msg, err)
		}
		second, err := xdr.Marshal(fresh)
		if err != nil {
			t.Fatalf("second re-encode of %T failed: %v", msg, err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%T encoding is not a fixed point:\n first=%x\nsecond=%x", msg, first, second)
		}
	})
}

func sameType(a, b codec) bool {
	return reflect.TypeOf(a) == reflect.TypeOf(b)
}

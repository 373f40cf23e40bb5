package nfs4_test

// Fuzz coverage for the NFSv4 COMPOUND wire messages. COMPOUND is the
// highest-risk decode surface in the module: one request embeds a
// variable-length sequence of per-op unions, so a malformed length or
// op code must fail cleanly (bounded allocation, no panic) and any
// accepted bytes must re-encode to a stable canonical form
// (encode → decode → encode is a fixed point).

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/nfs3"
	"repro/internal/nfs4"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// codec bundles both directions of one fuzzed message type.
type codec interface {
	xdr.Marshaler
	xdr.Unmarshaler
}

// described lets a type that has only an XDR description, such as Op,
// be fuzzed through xdr.Marshal and xdr.Unmarshal.
type described struct{ v interface{ XDR(*xdr.Codec) } }

func (m described) EncodeXDR(e *xdr.Encoder) { m.v.XDR(e.Codec()) }
func (m described) DecodeXDR(d *xdr.Decoder) { m.v.XDR(d.Codec()) }

// nfs4Messages returns fresh zero values of the fuzzed NFSv4 types.
// Index order is part of the corpus encoding — append only.
func nfs4Messages() []codec {
	return []codec{
		&nfs4.CompoundArgs{},
		&nfs4.CompoundRes{},
		described{&nfs4.Op{}},
		described{&nfs4.OpResult{}},
	}
}

func FuzzNFS4CompoundRoundTrip(f *testing.F) {
	// Seed corpus: canonical encodings of representative COMPOUNDs
	// covering every operand shape, plus degenerate inputs.
	seed := []codec{
		// The canonical paper-style lookup+read chain.
		&nfs4.CompoundArgs{Tag: "open-read", Ops: []nfs4.Op{
			{Code: nfs4.OpPutRootFH},
			{Code: nfs4.OpLookup, Name: "data"},
			{Code: nfs4.OpOpen, Name: "payload.dat", Create: true, Excl: false},
			{Code: nfs4.OpRead, Offset: 65536, Count: 32768},
			{Code: nfs4.OpGetAttr},
		}},
		// Namespace mutation ops.
		&nfs4.CompoundArgs{Tag: "rename", Ops: []nfs4.Op{
			{Code: nfs4.OpPutFH, FH: nfs3.FH3{Data: []byte{1, 2, 3, 4}}},
			{Code: nfs4.OpSaveFH},
			{Code: nfs4.OpRename, Name: "old", Name2: "new"},
			{Code: nfs4.OpCreate, Name: "lnk", Dir: false, Target: "../t"},
			{Code: nfs4.OpLink, Name: "hard"},
			{Code: nfs4.OpRestoreFH},
		}},
		// Write/commit/readdir operands.
		&nfs4.CompoundArgs{Tag: "wr", Ops: []nfs4.Op{
			{Code: nfs4.OpWrite, Offset: 8192, Stable: 2, Data: []byte("abc")},
			{Code: nfs4.OpCommit, Offset: 0, Count: 8192},
			{Code: nfs4.OpReadDir, Cookie: 7, Count: 4096},
			{Code: nfs4.OpAccess, Access: 0x3f},
		}},
		&nfs4.CompoundRes{Status: nfs3.OK, Tag: "ok", Results: []nfs4.OpResult{
			{Code: nfs4.OpGetFH, Status: nfs3.OK, FH: nfs3.FH3{Data: []byte{9}}},
			{Code: nfs4.OpGetAttr, Status: nfs3.OK, HasAttr: true, Attr: nfs3.Fattr3{Type: 1, Mode: 0o644, Size: 4096}},
			{Code: nfs4.OpRead, Status: nfs3.OK, EOF: true, Data: []byte{1, 2}},
			{Code: nfs4.OpReadLink, Status: nfs3.OK, Target: "/x"},
			{Code: nfs4.OpReadDir, Status: nfs3.OK, EOF: true, Entries: []nfs3.DirEntryPlus{
				{FileID: 3, Name: "x", Cookie: 1},
			}},
		}},
		// A failed compound stops at the first non-OK result.
		&nfs4.CompoundRes{Status: nfs3.Status(vfs.ErrNoEnt), Tag: "", Results: []nfs4.OpResult{
			{Code: nfs4.OpLookup, Status: nfs3.Status(vfs.ErrNoEnt)},
		}},
		described{&nfs4.Op{Code: nfs4.OpSetAttr, Attr: nfs3.Sattr3{}}},
		described{&nfs4.OpResult{Code: nfs4.OpWrite, Status: nfs3.OK, Count: 512}},
	}
	kinds := nfs4Messages()
	for _, msg := range seed {
		data, err := xdr.Marshal(msg)
		if err != nil {
			f.Fatal(err)
		}
		for k, proto := range kinds {
			// Seed the matching kind with the valid encoding; feeding
			// kind 0 everything exercises cross-type error paths.
			if sameType(proto, msg) || k == 0 {
				f.Add(k, data)
			}
		}
	}
	f.Add(0, []byte{})
	f.Add(1, []byte{0, 0, 0, 0})
	// Length field claiming 2^32-1 ops: must be rejected, not allocated.
	f.Add(0, []byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, kind int, data []byte) {
		kinds := nfs4Messages()
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
		fresh := nfs4Messages()[kind]
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
	unwrap := func(c codec) any {
		if m, ok := c.(described); ok {
			return m.v
		}
		return c
	}
	return reflect.TypeOf(unwrap(a)) == reflect.TypeOf(unwrap(b))
}

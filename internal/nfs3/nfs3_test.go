package nfs3

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/metrics"
	"repro/internal/oncrpc"
	"repro/internal/vfs"
	"repro/internal/xdr"
)

// roundTrip encodes a value and decodes it into out, failing on any
// codec error or trailing bytes.
func roundTrip(t *testing.T, in xdr.Marshaler, out xdr.Unmarshaler) {
	t.Helper()
	b, err := xdr.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := xdr.Unmarshal(b, out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
}

func TestFattr3RoundTrip(t *testing.T) {
	in := Fattr3{
		Type: 1, Mode: 0755, Nlink: 3, UID: 10, GID: 20,
		Size: 1 << 40, Used: 4096, FSID: 7, FileID: 42,
		Atime: NFSTime{1, 2}, Mtime: NFSTime{3, 4}, Ctime: NFSTime{5, 6},
	}
	var out Fattr3
	roundTrip(t, &in, &out)
	if out != in {
		t.Fatalf("got %+v", out)
	}
}

func TestSattr3AllCombinations(t *testing.T) {
	for mask := 0; mask < 16; mask++ {
		in := Sattr3{
			SetMode: mask&1 != 0, Mode: 0640,
			SetUID: mask&2 != 0, UID: 7,
			SetGID: mask&4 != 0, GID: 8,
			SetSize: mask&8 != 0, Size: 999,
			AtimeHow: uint32(mask % 3),
			MtimeHow: uint32((mask + 1) % 3),
			Atime:    NFSTime{10, 11},
			Mtime:    NFSTime{12, 13},
		}
		var out Sattr3
		roundTrip(t, &in, &out)
		if out.SetMode != in.SetMode || out.SetUID != in.SetUID ||
			out.SetGID != in.SetGID || out.SetSize != in.SetSize ||
			out.AtimeHow != in.AtimeHow || out.MtimeHow != in.MtimeHow {
			t.Fatalf("mask %d: got %+v", mask, out)
		}
	}
}

func TestSattr3ToSetAttr(t *testing.T) {
	s := Sattr3{SetMode: true, Mode: 0700, SetSize: true, Size: 5, MtimeHow: SetToClientTime, Mtime: NFSTime{100, 0}}
	sa := s.SetAttr()
	if sa.Mode == nil || *sa.Mode != 0700 {
		t.Fatal("mode lost")
	}
	if sa.Size == nil || *sa.Size != 5 {
		t.Fatal("size lost")
	}
	if sa.Mtime == nil || sa.Mtime.Unix() != 100 {
		t.Fatal("mtime lost")
	}
	if sa.UID != nil || sa.Atime != nil {
		t.Fatal("phantom fields set")
	}
}

func TestWriteArgsRoundTrip(t *testing.T) {
	in := WriteArgs{Obj: FH3{Data: []byte{1, 2, 3}}, Offset: 77, Count: 5, Stable: DataSync, Data: []byte("hello")}
	var out WriteArgs
	roundTrip(t, &in, &out)
	if !bytes.Equal(out.Data, in.Data) || out.Offset != in.Offset || out.Stable != in.Stable {
		t.Fatalf("got %+v", out)
	}
}

func TestReadDirResRoundTrip(t *testing.T) {
	in := ReadDirRes{
		Status:  OK,
		DirAttr: PostOpAttr{Present: true, Attr: Fattr3{Type: 2, FileID: 1}},
		Entries: []DirEntry3{{FileID: 1, Name: "a", Cookie: 10}, {FileID: 2, Name: "bb", Cookie: 20}},
		EOF:     true,
	}
	var out ReadDirRes
	roundTrip(t, &in, &out)
	if len(out.Entries) != 2 || out.Entries[1].Name != "bb" || !out.EOF {
		t.Fatalf("got %+v", out)
	}
}

func TestReadDirPlusResRoundTrip(t *testing.T) {
	in := ReadDirPlusRes{
		Status: OK,
		Entries: []DirEntryPlus{{
			FileID: 9, Name: "x", Cookie: 3,
			Attr: PostOpAttr{Present: true, Attr: Fattr3{Size: 11}},
			FH:   PostOpFH3{Present: true, FH: FH3{Data: []byte{9}}},
		}},
		EOF: false,
	}
	var out ReadDirPlusRes
	roundTrip(t, &in, &out)
	if len(out.Entries) != 1 || !out.Entries[0].Attr.Present || out.Entries[0].Attr.Attr.Size != 11 {
		t.Fatalf("got %+v", out)
	}
}

func TestErrorResultsCarryNoBody(t *testing.T) {
	in := LookupRes{Status: Status(vfs.ErrNoEnt), DirAttr: PostOpAttr{}}
	var out LookupRes
	roundTrip(t, &in, &out)
	if out.Status != Status(vfs.ErrNoEnt) || out.Obj.Data != nil {
		t.Fatalf("got %+v", out)
	}
}

func TestCreateExclusiveVerfEncoding(t *testing.T) {
	in := CreateArgs{
		Where: DirOpArgs{Dir: FH3{Data: []byte{1}}, Name: "f"},
		Mode:  CreateExclusive,
		Verf:  [8]byte{1, 2, 3, 4, 5, 6, 7, 8},
	}
	var out CreateArgs
	roundTrip(t, &in, &out)
	if out.Verf != in.Verf || out.Mode != CreateExclusive {
		t.Fatalf("got %+v", out)
	}
}

func TestQuickFattrRoundTrip(t *testing.T) {
	f := func(typ, mode, nlink, uid, gid uint32, size, used, fsid, fileid uint64) bool {
		in := Fattr3{Type: typ, Mode: mode, Nlink: nlink, UID: uid, GID: gid,
			Size: size, Used: used, FSID: fsid, FileID: fileid}
		var out Fattr3
		b, err := xdr.Marshal(&in)
		if err != nil {
			return false
		}
		if err := xdr.Unmarshal(b, &out); err != nil {
			return false
		}
		return out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- server-level behaviour not covered by client integration -----------

func TestServerGetAttrDirect(t *testing.T) {
	// Exercise the server through a real RPC round trip including the
	// error paths that the client integration tests don't hit.
	backend := vfs.NewMemFS()
	srv := NewServer(backend, 3)
	rpc := oncrpc.NewServer()
	srv.Register(rpc)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rpc.Serve(l)
	defer rpc.Close()

	client, err := oncrpc.Dial("tcp", l.Addr().String(), Program, Version)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Stale handle.
	var res GetAttrRes
	bogus := FH3{Data: bytes.Repeat([]byte{9}, 16)}
	if err := client.Call(context.Background(), ProcGetAttr, &GetAttrArgs{Obj: bogus}, &res); err != nil {
		t.Fatal(err)
	}
	if res.Status != Status(vfs.ErrStale) {
		t.Fatalf("stale handle gave %v", res.Status)
	}

	// MKNOD is refused.
	var cres CreateRes
	root := FromHandle(backend.Root())
	err = client.Call(context.Background(), ProcMknod, &GetAttrArgs{Obj: root}, &cres)
	if err != nil {
		t.Fatal(err)
	}
	if cres.Status != Status(vfs.ErrNotSupp) {
		t.Fatalf("mknod gave %v", cres.Status)
	}

	// FSINFO advertises the paper's 32KB preferred transfer size.
	var fi FSInfoRes
	if err := client.Call(context.Background(), ProcFSInfo, &FSStatArgs{Obj: root}, &fi); err != nil {
		t.Fatal(err)
	}
	if fi.RtMax != PreferredIO || fi.WtMax != PreferredIO {
		t.Fatalf("fsinfo rtmax %d wtmax %d", fi.RtMax, fi.WtMax)
	}

	// PATHCONF.
	var pc PathConfRes
	if err := client.Call(context.Background(), ProcPathConf, &FSStatArgs{Obj: root}, &pc); err != nil {
		t.Fatal(err)
	}
	if pc.NameMax != 255 || !pc.NoTrunc {
		t.Fatalf("pathconf %+v", pc)
	}

	// SETATTR guard: mismatching ctime is refused.
	h, attr, _ := backend.Create(backend.Root(), "guarded", vfs.SetAttr{}, false)
	_ = attr
	var wres WccRes
	args := &SetAttrArgs{
		Obj:        FromHandle(h),
		Attr:       Sattr3{SetMode: true, Mode: 0600},
		GuardCheck: true,
		GuardCtime: NFSTime{Sec: 1}, // wrong
	}
	cred, _ := (&oncrpc.AuthSys{UID: 0}).Auth()
	if err := client.CallCred(context.Background(), ProcSetAttr, cred, args, &wres); err != nil {
		t.Fatal(err)
	}
	if wres.Status == OK {
		t.Fatal("guarded setattr with stale ctime succeeded")
	}

	// SETATTR by non-owner is refused.
	other, _ := (&oncrpc.AuthSys{UID: 777}).Auth()
	args2 := &SetAttrArgs{Obj: FromHandle(h), Attr: Sattr3{SetMode: true, Mode: 0600}}
	if err := client.CallCred(context.Background(), ProcSetAttr, other, args2, &wres); err != nil {
		t.Fatal(err)
	}
	if wres.Status != Status(vfs.ErrPerm) {
		t.Fatalf("foreign setattr gave %v", wres.Status)
	}
}

func TestWriteUnstableThenCommit(t *testing.T) {
	backend := vfs.NewMemFS()
	rpc := oncrpc.NewServer()
	NewServer(backend, 3).Register(rpc)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rpc.Serve(l)
	defer rpc.Close()
	client, err := oncrpc.Dial("tcp", l.Addr().String(), Program, Version)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	cred, _ := (&oncrpc.AuthSys{UID: 0}).Auth()
	client.SetCred(cred)
	ctx := context.Background()

	h, _, _ := backend.Create(backend.Root(), "f", vfs.SetAttr{}, false)
	fh := FromHandle(h)
	var wres WriteRes
	wargs := &WriteArgs{Obj: fh, Offset: 0, Count: 4, Stable: Unstable, Data: []byte("data")}
	if err := client.Call(ctx, ProcWrite, wargs, &wres); err != nil {
		t.Fatal(err)
	}
	if wres.Status != OK || wres.Committed != Unstable {
		t.Fatalf("unstable write: %+v", wres)
	}
	verf := wres.Verf
	var cres CommitRes
	if err := client.Call(ctx, ProcCommit, &CommitArgs{Obj: fh}, &cres); err != nil {
		t.Fatal(err)
	}
	if cres.Status != OK || cres.Verf != verf {
		t.Fatalf("commit verf mismatch: %+v vs %v", cres, verf)
	}
}

// serverFixture spins a complete NFSv3 server over MemFS and returns a
// root-credentialed client.
func serverFixture(t *testing.T) (*oncrpc.Client, *vfs.MemFS) {
	t.Helper()
	backend := vfs.NewMemFS()
	rpc := oncrpc.NewServer()
	NewServer(backend, 3).Register(rpc)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rpc.Serve(l)
	t.Cleanup(rpc.Close)
	client, err := oncrpc.Dial("tcp", l.Addr().String(), Program, Version)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	cred, _ := (&oncrpc.AuthSys{UID: 0, GID: 0}).Auth()
	client.SetCred(cred)
	return client, backend
}

func TestServerSymlinkReadlinkLink(t *testing.T) {
	client, backend := serverFixture(t)
	ctx := context.Background()
	root := FromHandle(backend.Root())

	// SYMLINK
	var cres CreateRes
	sargs := &SymlinkArgs{Where: DirOpArgs{Dir: root, Name: "ln"}, Target: "a/b/c"}
	if err := client.Call(ctx, ProcSymlink, sargs, &cres); err != nil {
		t.Fatal(err)
	}
	if cres.Status != OK || !cres.Obj.Present {
		t.Fatalf("symlink: %+v", cres)
	}
	// READLINK
	var rl ReadLinkRes
	if err := client.Call(ctx, ProcReadLink, &ReadLinkArgs{Obj: cres.Obj.FH}, &rl); err != nil {
		t.Fatal(err)
	}
	if rl.Status != OK || rl.Target != "a/b/c" {
		t.Fatalf("readlink: %+v", rl)
	}
	// READLINK on a regular file fails cleanly.
	var fres CreateRes
	cargs := &CreateArgs{Where: DirOpArgs{Dir: root, Name: "plain"}, Mode: CreateUnchecked}
	client.Call(ctx, ProcCreate, cargs, &fres)
	client.Call(ctx, ProcReadLink, &ReadLinkArgs{Obj: fres.Obj.FH}, &rl)
	if rl.Status == OK {
		t.Fatal("readlink on regular file succeeded")
	}
	// LINK
	var lres LinkRes
	largs := &LinkArgs{Obj: fres.Obj.FH, Link: DirOpArgs{Dir: root, Name: "alias"}}
	if err := client.Call(ctx, ProcLink, largs, &lres); err != nil {
		t.Fatal(err)
	}
	if lres.Status != OK || !lres.Attr.Present || lres.Attr.Attr.Nlink < 2 {
		t.Fatalf("link: %+v", lres)
	}
}

func TestServerReadDirPagination(t *testing.T) {
	client, backend := serverFixture(t)
	ctx := context.Background()
	root := FromHandle(backend.Root())
	for i := 0; i < 20; i++ {
		backend.Create(backend.Root(), fmt.Sprintf("e%02d", i), vfs.SetAttr{}, false)
	}
	seen := map[string]bool{}
	var cookie uint64
	for {
		var res ReadDirRes
		args := &ReadDirArgs{Dir: root, Cookie: cookie, Count: 256}
		if err := client.Call(ctx, ProcReadDir, args, &res); err != nil {
			t.Fatal(err)
		}
		if res.Status != OK {
			t.Fatalf("readdir: %v", res.Status)
		}
		for _, e := range res.Entries {
			if seen[e.Name] {
				t.Fatalf("duplicate %q", e.Name)
			}
			seen[e.Name] = true
			cookie = e.Cookie
		}
		if res.EOF {
			break
		}
	}
	if len(seen) != 20 {
		t.Fatalf("enumerated %d entries", len(seen))
	}
}

func TestServerRenameRemoveRmdir(t *testing.T) {
	client, backend := serverFixture(t)
	ctx := context.Background()
	root := FromHandle(backend.Root())
	backend.Mkdir(backend.Root(), "d1", vfs.SetAttr{})
	backend.Create(backend.Root(), "f", vfs.SetAttr{}, false)

	var rres RenameRes
	rargs := &RenameArgs{From: DirOpArgs{Dir: root, Name: "f"}, To: DirOpArgs{Dir: root, Name: "g"}}
	if err := client.Call(ctx, ProcRename, rargs, &rres); err != nil {
		t.Fatal(err)
	}
	if rres.Status != OK {
		t.Fatalf("rename: %v", rres.Status)
	}
	var wres WccRes
	if err := client.Call(ctx, ProcRemove, &RemoveArgs{Obj: DirOpArgs{Dir: root, Name: "g"}}, &wres); err != nil {
		t.Fatal(err)
	}
	if wres.Status != OK {
		t.Fatalf("remove: %v", wres.Status)
	}
	if err := client.Call(ctx, ProcRmdir, &RemoveArgs{Obj: DirOpArgs{Dir: root, Name: "d1"}}, &wres); err != nil {
		t.Fatal(err)
	}
	if wres.Status != OK {
		t.Fatalf("rmdir: %v", wres.Status)
	}
	// Removing again reports NOENT with wcc data present.
	client.Call(ctx, ProcRemove, &RemoveArgs{Obj: DirOpArgs{Dir: root, Name: "g"}}, &wres)
	if wres.Status != Status(vfs.ErrNoEnt) {
		t.Fatalf("double remove: %v", wres.Status)
	}
}

func TestServerFSStatAndAccess(t *testing.T) {
	client, backend := serverFixture(t)
	ctx := context.Background()
	root := FromHandle(backend.Root())
	var fs FSStatRes
	if err := client.Call(ctx, ProcFSStat, &FSStatArgs{Obj: root}, &fs); err != nil {
		t.Fatal(err)
	}
	if fs.Status != OK || fs.Tbytes == 0 {
		t.Fatalf("fsstat: %+v", fs)
	}
	var ac AccessRes
	if err := client.Call(ctx, ProcAccess, &AccessArgs{Obj: root, Access: 0x3f}, &ac); err != nil {
		t.Fatal(err)
	}
	if ac.Status != OK || ac.Access == 0 {
		t.Fatalf("access: %+v", ac)
	}
}

func TestServerGarbageArgs(t *testing.T) {
	client, _ := serverFixture(t)
	ctx := context.Background()
	// A READ with a truncated argument body must produce GARBAGE_ARGS,
	// not a hang or crash. Encode bogus args: a bare uint32 where a
	// file handle + offset + count belong.
	err := client.Call(ctx, ProcRead, &GetAttrArgs{Obj: FH3{Data: []byte{1}}}, &ReadRes{})
	var re *oncrpc.RPCError
	if err == nil {
		t.Fatal("truncated args accepted")
	}
	if !errors.As(err, &re) || re.Accept != oncrpc.GarbageArgs {
		t.Fatalf("got %v, want GARBAGE_ARGS", err)
	}
}

// --- the procedure table and the relay ----------------------------------

// TestProcTable: every procedure 1–21 has a row whose wire types
// survive an XDR round trip from their zero values (MKNOD has a result
// type only: its arguments are never read), and ProcName still returns
// the 22 RFC 1813 names.
func TestProcTable(t *testing.T) {
	names := []string{"NULL", "GETATTR", "SETATTR", "LOOKUP", "ACCESS", "READLINK", "READ",
		"WRITE", "CREATE", "MKDIR", "SYMLINK", "MKNOD", "REMOVE", "RMDIR", "RENAME", "LINK",
		"READDIR", "READDIRPLUS", "FSSTAT", "FSINFO", "PATHCONF", "COMMIT"}
	if len(procs) != ProcCommit+1 || len(names) != len(procs) {
		t.Fatalf("table has %d rows, want %d", len(procs), ProcCommit+1)
	}
	for proc, want := range names {
		if got := ProcName(uint32(proc)); got != want {
			t.Errorf("ProcName(%d) = %q, want %q", proc, got, want)
		}
	}
	if got := ProcName(uint32(len(procs))); got != "" {
		t.Errorf("ProcName past the protocol = %q", got)
	}
	for proc := ProcGetAttr; proc <= ProcCommit; proc++ {
		row := procs[proc]
		if row.newRes == nil || (row.newArgs == nil && proc != ProcMknod) {
			t.Errorf("%s: row lacks a wire type", row.name)
			continue
		}
		for _, mk := range []func() Message{row.newArgs, row.newRes} {
			if mk == nil {
				continue
			}
			in, out := mk(), mk()
			roundTrip(t, in, out)
			a, _ := xdr.Marshal(in)
			b, _ := xdr.Marshal(out)
			if !bytes.Equal(a, b) {
				t.Errorf("%s: %T zero value changed across a round trip", row.name, in)
			}
		}
	}
}

// relayUpstream forwards to the fixture server, or fails every call.
type relayUpstream struct {
	up   *oncrpc.Client
	down atomic.Bool
	wait time.Duration
}

func (u *relayUpstream) UpCall(ctx context.Context, _ *oncrpc.Call, proc uint32, args xdr.Marshaler, res xdr.Unmarshaler) error {
	time.Sleep(u.wait)
	if u.down.Load() {
		return errors.New("upstream down")
	}
	return u.up.Call(ctx, proc, args, res)
}

// TestRelay drives a relay with one intercept in front of a real
// server: uncovered procedures pass through, the intercept runs in
// place of the pass-through, MKNOD is refused locally, garbage
// arguments answer GARBAGE_ARGS, an upstream failure answers
// SYSTEM_ERR, and the meter nets handler time against upstream waits.
func TestRelay(t *testing.T) {
	up, backend := serverFixture(t)
	root := FromHandle(backend.Root())
	var meter metrics.Meter
	us := &relayUpstream{up: up, wait: 50 * time.Millisecond}
	relay := Relay{Up: us, Meter: &meter}
	rpc := oncrpc.NewServer()
	relay.Register(rpc, map[uint32]oncrpc.Handler{
		ProcLookup: func(ctx context.Context, call *oncrpc.Call) (xdr.Marshaler, oncrpc.AcceptStat) {
			var a LookupArgs
			if call.DecodeArgs(&a) != nil {
				return nil, oncrpc.GarbageArgs
			}
			if a.What.Name == "hidden" {
				return &LookupRes{Status: Status(vfs.ErrAccess)}, oncrpc.Success
			}
			return relay.Forward(ctx, call, &a, &LookupRes{})
		},
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rpc.Serve(l)
	t.Cleanup(rpc.Close)
	client, err := oncrpc.Dial("tcp", l.Addr().String(), Program, Version)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	ctx := context.Background()

	var cres CreateRes
	cargs := &CreateArgs{Where: DirOpArgs{Dir: root, Name: "hidden"}, Mode: CreateUnchecked}
	if err := client.Call(ctx, ProcCreate, cargs, &cres); err != nil || cres.Status != OK {
		t.Fatalf("pass-through CREATE: %+v %v", cres, err)
	}
	if _, _, err := backend.Lookup(backend.Root(), "hidden"); err != nil {
		t.Fatalf("CREATE did not reach the backend: %v", err)
	}
	var lres LookupRes
	if err := client.Call(ctx, ProcLookup, &LookupArgs{What: cargs.Where}, &lres); err != nil || lres.Status != Status(vfs.ErrAccess) {
		t.Fatalf("intercepted LOOKUP: %+v %v", lres, err)
	}
	if err := client.Call(ctx, ProcLookup, &LookupArgs{What: DirOpArgs{Dir: root, Name: "absent"}}, &lres); err != nil || lres.Status != Status(vfs.ErrNoEnt) {
		t.Fatalf("forwarded LOOKUP: %+v %v", lres, err)
	}
	// Two upstream calls waited 50 ms each inside metered handlers: the
	// meter keeps the handlers' own time only.
	if busy := meter.Busy(); busy < 0 || busy > 60*time.Millisecond {
		t.Fatalf("meter = %v after 100 ms of upstream waits, want handler time only", busy)
	}

	if err := client.Call(ctx, ProcMknod, &GetAttrArgs{Obj: root}, &cres); err != nil || cres.Status != Status(vfs.ErrNotSupp) {
		t.Fatalf("MKNOD: %+v %v", cres, err)
	}
	var re *oncrpc.RPCError
	err = client.Call(ctx, ProcRead, &GetAttrArgs{Obj: FH3{Data: []byte{1}}}, &ReadRes{})
	if !errors.As(err, &re) || re.Accept != oncrpc.GarbageArgs {
		t.Fatalf("truncated READ args: %v, want GARBAGE_ARGS", err)
	}
	us.down.Store(true)
	err = client.Call(ctx, ProcGetAttr, &GetAttrArgs{Obj: root}, &GetAttrRes{})
	if !errors.As(err, &re) || re.Accept != oncrpc.SystemErr {
		t.Fatalf("upstream failure: %v, want SYSTEM_ERR", err)
	}
}

package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/gridmap"
	"repro/internal/gridsec"
	"repro/internal/idmap"
	"repro/internal/nfs3"
	"repro/internal/nfsclient"
	"repro/internal/proxy"
	"repro/internal/securechan"
	"repro/internal/sfs"
	"repro/internal/vfs"
)

// The consistency oracle (DESIGN.md, "Consistency contract"). One seeded
// generator drives a vfs.MemFS model and each stack through the same
// operations. Every outcome (nil or the same errno) and every byte read
// must equal the model's (C1, C3). At every checkpoint, once Flush
// returns nil, every backend's tree must equal the model's (C2, C4).
// The nfs-v3 stack has no proxy in it: it checks the oracle itself.

const (
	oracleOps        = 150
	oracleCheckEvery = 40
)

// oracleNames is the name alphabet: short, so operations collide, and
// never an ACL file name (acl.IsACLFile), which the server proxy hides.
var oracleNames = []string{"a", "b", "c", "d"}

// oracleStack is one stack under the oracle: the mount the operations
// go through, the backends that must end up equal to the model, and the
// session flush (nil when the stack writes nothing back).
type oracleStack struct {
	fs       *nfsclient.FileSystem
	backends []*vfs.MemFS
	flush    func(context.Context) error
	link     bool          // LINK is part of the stack's promise
	stats    func() string // the stack's counters, for failure reports
}

func TestConsistencyOracle(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	stacks := []struct {
		name  string
		build func(t *testing.T) *oracleStack
	}{
		{"nfs-v3", func(t *testing.T) *oracleStack { return oracleNFSv3(t, 1) }},
		{"nfs-v3-cached", func(t *testing.T) *oracleStack { return oracleNFSv3(t, 256<<10) }},
		{"sgfs", func(t *testing.T) *oracleStack { return oracleSGFS(t, 1, true) }},
		{"sgfs-nocache", func(t *testing.T) *oracleStack { return oracleSGFS(t, 1, false) }},
		{"replicated", func(t *testing.T) *oracleStack { return oracleSGFS(t, 3, true) }},
		{"sfs", oracleSFS},
	}
	for _, s := range stacks {
		for _, seed := range seeds {
			s, seed := s, seed
			t.Run(fmt.Sprintf("%s/seed-%d", s.name, seed), func(t *testing.T) {
				t.Parallel()
				r := &oracleRun{
					t: t, seed: seed, rng: rand.New(rand.NewSource(seed)),
					model: vfs.NewMemFS(), st: s.build(t), ctx: context.Background(),
				}
				for r.op = 1; r.op <= oracleOps; r.op++ {
					r.step()
					if r.op%oracleCheckEvery == 0 {
						r.checkpoint()
					}
				}
				r.checkpoint()
			})
		}
	}
}

// oracleNFSv3 mounts an NFS server directly, with a page cache of
// cacheBytes.
func oracleNFSv3(t *testing.T, cacheBytes int64) *oracleStack {
	be := vfs.NewMemFS()
	return &oracleStack{fs: oracleMount(t, serveNFS(t, be, 1), cacheBytes), backends: []*vfs.MemFS{be}, link: true}
}

// oracleSFS starts the SFS daemon pair over one backend.
func oracleSFS(t *testing.T) *oracleStack {
	be := vfs.NewMemFS()
	host, _ := gridsec.NewSelfSigned("oracle-fs")
	user, _ := gridsec.NewSelfSigned("oracle")
	srv, err := sfs.NewServer(sfs.ServerConfig{
		UpstreamDial: dialTo(serveNFS(t, be, 1)),
		ExportPath:   "/GFS/alice",
		Credential:   host,
		Users:        map[string]idmap.Account{gridsec.KeyFingerprint(user.Cert): {Name: "oracle", UID: 5001, GID: 500}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cli, err := sfs.NewClient(sfs.ClientConfig{
		ServerDial: dialTo(oracleServe(t, srv.Serve)),
		HostID:     sfs.HostID(host),
		Credential: user,
		ExportPath: "/GFS/alice",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	return &oracleStack{fs: oracleMount(t, oracleServe(t, cli.Serve), 1), backends: []*vfs.MemFS{be}, link: true}
}

// oracleServe runs serve on a loopback listener for the length of the
// test and returns its address.
func oracleServe(t *testing.T, serve func(net.Listener) error) string {
	l, err := listenOn("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go serve(l)
	return l.Addr().String()
}

// oracleSGFS starts n server sides, each over its own backend, and one
// client side with the AES channel, with or without a write-back disk
// cache: a plain session for n = 1, a replicated one (quorum 2)
// otherwise.
func oracleSGFS(t *testing.T, n int, diskCache bool) *oracleStack {
	ca, err := gridsec.NewCA("Oracle Grid")
	if err != nil {
		t.Fatal(err)
	}
	user, _ := ca.IssueUser("oracle")
	host, _ := ca.IssueHost("oracle-fs")
	suites := []securechan.Suite{securechan.SuiteAES256SHA1}
	st := &oracleStack{link: n == 1}
	defs := make([]proxy.ReplicaBackendDef, n)
	for i := range defs {
		be := vfs.NewMemFS()
		gmap := gridmap.New(gridmap.Deny)
		gmap.Add(user.DN(), "oracle")
		accounts := idmap.NewTable()
		accounts.Add(idmap.Account{Name: "oracle", UID: 5001, GID: 500})
		srv, err := StartServer(proxy.ServerConfig{
			UpstreamDial: dialTo(serveNFS(t, be, uint64(i+1))),
			ExportPath:   "/GFS/alice",
			Channel:      &securechan.Config{Credential: host, Roots: ca.Pool(), Suites: suites},
			Gridmap:      gmap,
			Accounts:     accounts,
		}, "")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		st.backends = append(st.backends, be)
		defs[i] = proxy.ReplicaBackendDef{Addr: srv.Addr(), Dial: dialTo(srv.Addr())}
	}
	pcfg := proxy.ClientConfig{
		ExportPath: "/GFS/alice",
		Channel:    &securechan.Config{Credential: user, Roots: ca.Pool(), Suites: suites},
	}
	if n == 1 {
		pcfg.ServerDial = defs[0].Dial
	} else {
		pcfg.Replication = &proxy.ReplicationConfig{Backends: defs, Quorum: 2}
	}
	cacheDir := ""
	if diskCache {
		cacheDir = t.TempDir()
	}
	cli, err := StartClient(pcfg, "", cacheDir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := cli.Close(); err != nil {
			t.Errorf("C2: Close: %v", err)
		}
	})
	st.flush = cli.Flush
	st.stats = func() string {
		c, _ := cli.CacheStats()
		r, _ := cli.ReplicaStats()
		return fmt.Sprintf("cache %+v; replicas %+v", c, r)
	}
	st.fs = oracleMount(t, cli.Addr(), 1)
	return st
}

// oracleMount mounts addr with a page cache of cacheBytes; 1 turns it
// off, so reads and writes reach the stack below it.
func oracleMount(t *testing.T, addr string, cacheBytes int64) *nfsclient.FileSystem {
	fs, err := nfsclient.Mount(context.Background(), dialTo(addr), "/GFS/alice", nfsclient.Options{CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return fs
}

// oracleRun is one seeded run of the oracle against one stack.
type oracleRun struct {
	t     *testing.T
	seed  int64
	rng   *rand.Rand
	model *vfs.MemFS
	st    *oracleStack
	ctx   context.Context
	op    int
}

// step runs one random operation on the stack and the model. Targets
// are drawn from the model, which the stack must match.
func (r *oracleRun) step() {
	var files, links, dirs []string
	for path, typ := range treeTypes(r.model) {
		switch typ {
		case vfs.TypeReg:
			files = append(files, path)
		case vfs.TypeSymlink:
			links = append(links, path)
		case vfs.TypeDir:
			dirs = append(dirs, path)
		}
	}
	sort.Strings(files)
	sort.Strings(links)
	sort.Strings(dirs)
	pick := func(s []string) string { return s[r.rng.Intn(len(s))] }
	fresh := func() string { return join(pick(dirs), pick(oracleNames)) }

	switch n := r.rng.Intn(100); {
	case n < 14 || len(files) == 0:
		if p := fresh(); r.typeOf(p) == 0 || r.typeOf(p) == vfs.TypeReg {
			r.create(p)
		}
	case n < 32:
		p := pick(files)
		size := r.sizeOf(p)
		offs := []uint64{0, size, uint64(r.rng.Int63n(int64(size) + 1)), 32*1024 - 100, 64*1024 + 5}
		lens := []int{1, 1000, 4096, 32 * 1024, 40000, 70000}
		r.write(p, offs[r.rng.Intn(len(offs))], lens[r.rng.Intn(len(lens))])
	case n < 44:
		r.read(pick(files))
	case n < 50:
		r.stat(pick(append(files, dirs...)))
	case n < 55:
		r.readdir(pick(dirs))
	case n < 60:
		r.truncate(pick(files), uint64(r.rng.Intn(80*1024)))
	case n < 66:
		if p := fresh(); strings.Count(p, "/") < 2 {
			r.mkdir(p)
		}
	case n < 70:
		if d := pick(dirs); d != "" {
			r.rmdir(d)
		}
	case n < 78:
		from, to := pick(append(files, links...)), fresh()
		if len(dirs) > 1 && r.rng.Intn(4) == 0 {
			// A directory moves, children and all, to a name at the root.
			from, to = pick(dirs[1:]), pick(oracleNames)
		}
		if from != to && r.typeOf(to) != vfs.TypeDir {
			r.rename(from, to)
		}
	case n < 82:
		r.save(pick(dirs))
	case n < 88:
		r.remove(pick(append(files, links...)))
	case n < 92:
		if p := fresh(); r.typeOf(p) == 0 {
			r.symlink(pick(oracleNames)+"/target", p)
		}
	case n < 95:
		if len(links) > 0 {
			r.readlink(pick(links))
		}
	default:
		if p := fresh(); r.st.link && r.typeOf(p) == 0 {
			r.link(pick(files), p)
		}
	}
}

func (r *oracleRun) create(path string) {
	err := r.closeAfter(r.st.fs.Create(r.ctx, path, 0644))
	dir, name, merr := r.parent(path)
	if merr == nil {
		mode := uint32(0644)
		if h, _, lerr := r.model.Lookup(dir, name); lerr == nil {
			zero := uint64(0)
			_, merr = r.model.SetAttr(h, vfs.SetAttr{Size: &zero})
		} else {
			_, _, merr = r.model.Create(dir, name, vfs.SetAttr{Mode: &mode}, false)
		}
	}
	r.same("create "+path, err, merr)
}

func (r *oracleRun) write(path string, off uint64, n int) {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(int(r.seed)*7 + r.op*13 + i)
	}
	f, err := r.st.fs.Open(r.ctx, path)
	if err == nil {
		_, err = f.WriteAt(r.ctx, data, int64(off))
		if cerr := f.Close(r.ctx); err == nil {
			err = cerr
		}
	}
	h, merr := r.walk(path)
	if merr == nil {
		merr = r.model.Write(h, off, data)
	}
	r.same(fmt.Sprintf("write %s @%d+%d", path, off, n), err, merr)
}

func (r *oracleRun) read(path string) {
	want := r.content(path)
	f, err := r.st.fs.Open(r.ctx, path)
	var got []byte
	if err == nil {
		buf := make([]byte, len(want)+1)
		var n int
		n, err = f.ReadAt(r.ctx, buf, 0)
		if errors.Is(err, io.EOF) {
			err = nil
		}
		got = buf[:n]
		if cerr := f.Close(r.ctx); err == nil {
			err = cerr
		}
	}
	r.same("read "+path, err, nil)
	if !bytes.Equal(got, want) {
		r.t.Fatalf("C1: seed %d op %d read %s: stack read %d bytes (%x), model holds %d (%x)",
			r.seed, r.op, path, len(got), digest(got), len(want), digest(want))
	}
}

func (r *oracleRun) stat(path string) {
	got, err := r.st.fs.Stat(r.ctx, path)
	h, merr := r.walk(path)
	var want vfs.Attr
	if merr == nil {
		want, merr = r.model.GetAttr(h)
	}
	r.same("stat "+path, err, merr)
	if vfs.FileType(got.Type) != want.Type || (want.Type == vfs.TypeReg && got.Size != want.Size) {
		r.t.Fatalf("C1: seed %d op %d stat %s: stack type %d size %d, model type %d size %d",
			r.seed, r.op, path, got.Type, got.Size, want.Type, want.Size)
	}
}

func (r *oracleRun) readdir(dir string) {
	entries, err := r.st.fs.ReadDir(r.ctx, dir)
	r.same("readdir "+dir, err, nil)
	var got []string
	for _, e := range entries {
		got = append(got, e.Name)
	}
	sort.Strings(got)
	h, _ := r.walk(dir)
	want := modelNames(r.model, h)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		r.t.Fatalf("C3: seed %d op %d readdir %q: stack lists %q, model %q", r.seed, r.op, dir, got, want)
	}
}

func (r *oracleRun) truncate(path string, size uint64) {
	err := r.st.fs.Truncate(r.ctx, path, size)
	h, merr := r.walk(path)
	if merr == nil {
		_, merr = r.model.SetAttr(h, vfs.SetAttr{Size: &size})
	}
	r.same(fmt.Sprintf("truncate %s to %d", path, size), err, merr)
}

func (r *oracleRun) mkdir(path string) {
	err := r.st.fs.Mkdir(r.ctx, path, 0755)
	dir, name, merr := r.parent(path)
	if merr == nil {
		mode := uint32(0755)
		_, _, merr = r.model.Mkdir(dir, name, vfs.SetAttr{Mode: &mode})
	}
	r.same("mkdir "+path, err, merr)
}

func (r *oracleRun) rmdir(path string) {
	err := r.st.fs.Rmdir(r.ctx, path)
	dir, name, merr := r.parent(path)
	if merr == nil {
		merr = r.model.Rmdir(dir, name)
	}
	r.same("rmdir "+path, err, merr)
}

func (r *oracleRun) rename(from, to string) {
	err := r.st.fs.Rename(r.ctx, from, to)
	fdir, fname, merr := r.parent(from)
	if merr == nil {
		var tdir vfs.Handle
		var tname string
		if tdir, tname, merr = r.parent(to); merr == nil {
			merr = r.model.Rename(fdir, fname, tdir, tname)
		}
	}
	r.same(fmt.Sprintf("rename %s to %s", from, to), err, merr)
}

// save is the editor's save pattern: write tmp, rename tmp over final,
// and create tmp again.
func (r *oracleRun) save(dir string) {
	tmp, final := join(dir, oracleNames[0]), join(dir, oracleNames[1+r.rng.Intn(len(oracleNames)-1)])
	if r.typeOf(tmp) == vfs.TypeDir || r.typeOf(final) == vfs.TypeDir {
		return
	}
	r.create(tmp)
	r.write(tmp, 0, 40000)
	r.rename(tmp, final)
	r.create(tmp)
	r.write(tmp, 0, 1000)
}

func (r *oracleRun) remove(path string) {
	err := r.st.fs.Remove(r.ctx, path)
	dir, name, merr := r.parent(path)
	if merr == nil {
		merr = r.model.Remove(dir, name)
	}
	r.same("remove "+path, err, merr)
}

func (r *oracleRun) symlink(target, path string) {
	err := r.st.fs.Symlink(r.ctx, target, path)
	dir, name, merr := r.parent(path)
	if merr == nil {
		_, _, merr = r.model.Symlink(dir, name, target, vfs.SetAttr{})
	}
	r.same("symlink "+path, err, merr)
}

func (r *oracleRun) readlink(path string) {
	got, err := r.st.fs.ReadLink(r.ctx, path)
	h, merr := r.walk(path)
	var want string
	if merr == nil {
		want, merr = r.model.ReadLink(h)
	}
	r.same("readlink "+path, err, merr)
	if got != want {
		r.t.Fatalf("C3: seed %d op %d readlink %s: stack %q, model %q", r.seed, r.op, path, got, want)
	}
}

// link makes a second name for a file through the protocol: the
// mounted file system has no hard-link call.
func (r *oracleRun) link(existing, path string) {
	p := r.st.fs.Proto()
	fh, err := r.protoWalk(existing)
	var dirFH nfs3.FH3
	if err == nil {
		dirFH, err = r.protoWalk(dirOf(path))
	}
	if err == nil {
		err = p.Link(r.ctx, fh, dirFH, baseOf(path))
	}
	h, merr := r.walk(existing)
	if merr == nil {
		var dir vfs.Handle
		var name string
		if dir, name, merr = r.parent(path); merr == nil {
			merr = r.model.Link(h, dir, name)
		}
	}
	r.same(fmt.Sprintf("link %s to %s", path, existing), err, merr)
}

// checkpoint flushes the session and waits for every backend to hold
// exactly the model's tree.
func (r *oracleRun) checkpoint() {
	if r.st.flush != nil {
		if err := r.st.flush(r.ctx); err != nil {
			r.t.Fatalf("C2: seed %d after op %d: Flush: %v", r.seed, r.op, err)
		}
	}
	want := treeDigest(r.model)
	for i, be := range r.st.backends {
		deadline := time.Now().Add(10 * time.Second)
		for {
			diff := treeDiff(treeDigest(be), want)
			if diff == "" {
				break
			}
			if time.Now().After(deadline) {
				r.t.Fatalf("C2/C4: seed %d after op %d: backend %d differs from the model: %s (%s)", r.seed, r.op, i, diff, r.stats())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func (r *oracleRun) stats() string {
	if r.st.stats == nil {
		return "no counters"
	}
	return r.st.stats()
}

// same fails the run unless the stack's outcome equals the model's.
func (r *oracleRun) same(what string, got, want error) {
	r.t.Helper()
	if errnoOf(got) != errnoOf(want) {
		r.t.Fatalf("C3: seed %d op %d %s: stack says %v, model says %v", r.seed, r.op, what, got, want)
	}
}

// errnoOf reduces an outcome to what the oracle compares: 0 for
// success, the errno it carries, or a value no errno has.
func errnoOf(err error) vfs.Errno {
	var e vfs.Errno
	switch {
	case err == nil:
		return 0
	case errors.As(err, &e):
		return e
	default:
		return ^vfs.Errno(0)
	}
}

func (r *oracleRun) closeAfter(f *nfsclient.File, err error) error {
	if err != nil {
		return err
	}
	return f.Close(r.ctx)
}

func (r *oracleRun) walk(path string) (vfs.Handle, error) {
	h := r.model.Root()
	for _, name := range strings.Split(path, "/") {
		if name == "" {
			continue
		}
		var err error
		if h, _, err = r.model.Lookup(h, name); err != nil {
			return h, err
		}
	}
	return h, nil
}

func (r *oracleRun) parent(path string) (vfs.Handle, string, error) {
	h, err := r.walk(dirOf(path))
	return h, baseOf(path), err
}

// protoWalk resolves path on the stack with bare LOOKUPs.
func (r *oracleRun) protoWalk(path string) (nfs3.FH3, error) {
	fh := r.st.fs.Root()
	for _, name := range strings.Split(path, "/") {
		if name == "" {
			continue
		}
		var err error
		if fh, _, err = r.st.fs.Proto().Lookup(r.ctx, fh, name); err != nil {
			return fh, err
		}
	}
	return fh, nil
}

// typeOf is path's type in the model, 0 when it does not exist.
func (r *oracleRun) typeOf(path string) vfs.FileType {
	h, err := r.walk(path)
	if err != nil {
		return 0
	}
	a, _ := r.model.GetAttr(h)
	return a.Type
}

func (r *oracleRun) sizeOf(path string) uint64 {
	h, _ := r.walk(path)
	a, _ := r.model.GetAttr(h)
	return a.Size
}

func (r *oracleRun) content(path string) []byte {
	h, _ := r.walk(path)
	return fileBytes(r.model, h)
}

func join(dir, name string) string {
	if dir == "" {
		return name
	}
	return dir + "/" + name
}

func dirOf(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return ""
}

func baseOf(path string) string { return path[strings.LastIndexByte(path, '/')+1:] }

func digest(b []byte) []byte {
	sum := sha256.Sum256(b)
	return sum[:6]
}

func fileBytes(fs *vfs.MemFS, h vfs.Handle) []byte {
	a, _ := fs.GetAttr(h)
	buf := make([]byte, a.Size)
	n, _, _ := fs.Read(h, 0, buf)
	return buf[:n]
}

func modelNames(fs *vfs.MemFS, dir vfs.Handle) []string {
	entries, _, _ := fs.ReadDir(dir, 0, 0)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name)
	}
	sort.Strings(names)
	return names
}

// treeTypes lists every path under the root with its type; the root
// itself is "".
func treeTypes(fs *vfs.MemFS) map[string]vfs.FileType {
	out := map[string]vfs.FileType{"": vfs.TypeDir}
	walkTree(fs, fs.Root(), "", func(path string, h vfs.Handle, a vfs.Attr) { out[path] = a.Type })
	return out
}

// treeDigest describes every path under the root: its type, and a
// file's size and bytes or a link's target.
func treeDigest(fs *vfs.MemFS) map[string]string {
	out := map[string]string{}
	walkTree(fs, fs.Root(), "", func(path string, h vfs.Handle, a vfs.Attr) {
		switch a.Type {
		case vfs.TypeReg:
			out[path] = fmt.Sprintf("file %d bytes %x", a.Size, digest(fileBytes(fs, h)))
		case vfs.TypeSymlink:
			target, _ := fs.ReadLink(h)
			out[path] = "link to " + target
		default:
			out[path] = "dir"
		}
	})
	return out
}

func walkTree(fs *vfs.MemFS, dir vfs.Handle, prefix string, visit func(string, vfs.Handle, vfs.Attr)) {
	entries, _, _ := fs.ReadDir(dir, 0, 0)
	for _, e := range entries {
		a, err := fs.GetAttr(e.Handle)
		if err != nil {
			continue
		}
		path := join(prefix, e.Name)
		visit(path, e.Handle, a)
		if a.Type == vfs.TypeDir {
			walkTree(fs, e.Handle, path, visit)
		}
	}
}

// treeDiff names the first path where got and want differ, "" when
// they are equal.
func treeDiff(got, want map[string]string) string {
	var paths []string
	for p := range want {
		paths = append(paths, p)
	}
	for p := range got {
		if _, ok := want[p]; !ok {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)
	for _, p := range paths {
		if got[p] != want[p] {
			return fmt.Sprintf("%s: backend has %q, model %q", p, got[p], want[p])
		}
	}
	return ""
}

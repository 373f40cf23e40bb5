package proxy

// The client proxy's side of the consistency contract (DESIGN.md,
// "Consistency contract"): the write-back and canonical-namespace
// cases the oracle in internal/core found, each pinned on its own.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/nfs3"
	"repro/internal/nfsclient"
	"repro/internal/vfs"
)

// mountStack builds and mounts the single-server stack or the
// three-backend replicated one (quorum 2), with the disk cache dc when
// it is set, and returns the client proxy and the backends.
func mountStack(t *testing.T, replicated bool, dc *cache.DiskCache) (*ClientProxy, []*vfs.MemFS, *nfsclient.FileSystem) {
	if replicated {
		st := buildReplStack(t, replOpts{n: 3, quorum: 2, diskCache: dc})
		return st.cp, st.backends, st.mount(t, nfsclient.Options{})
	}
	st := buildStack(t, stackOpts{diskCache: dc})
	return st.clientProxy, []*vfs.MemFS{st.backend}, st.mount(t, nfsclient.Options{})
}

// TestFullProcedureSurface drives the less-travelled NFS procedures
// through both proxies end to end, over one server and over a replica
// set.
func TestFullProcedureSurface(t *testing.T) {
	for _, replicated := range []bool{false, true} {
		replicated := replicated
		t.Run(fmt.Sprintf("replicated=%v", replicated), func(t *testing.T) {
			t.Parallel()
			_, _, fs := mountStack(t, replicated, nil)
			procedureSurface(t, fs)
		})
	}
}

func procedureSurface(t *testing.T, fs *nfsclient.FileSystem) {
	ctx := context.Background()

	// Symlink + readlink through the proxies.
	if err := fs.Symlink(ctx, "target/file", "sym"); err != nil {
		t.Fatal(err)
	}
	target, err := fs.ReadLink(ctx, "sym")
	if err != nil || target != "target/file" {
		t.Fatalf("readlink: %q %v", target, err)
	}

	// Rename across directories, with the server proxy updating its
	// parent map (ACL resolution relies on it).
	fs.Mkdir(ctx, "d1", 0755)
	fs.Mkdir(ctx, "d2", 0755)
	f, _ := fs.Create(ctx, "d1/file", 0644)
	f.Write(ctx, []byte("x"))
	f.Close(ctx)
	if err := fs.Rename(ctx, "d1/file", "d2/moved"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(ctx, "d2/moved"); err != nil {
		t.Fatal(err)
	}

	// Truncate via SETATTR.
	if err := fs.Truncate(ctx, "d2/moved", 0); err != nil {
		t.Fatal(err)
	}
	a, _ := fs.Stat(ctx, "d2/moved")
	if a.Size != 0 {
		t.Fatalf("size after truncate: %d", a.Size)
	}

	// Chmod via SETATTR.
	if err := fs.Chmod(ctx, "d2/moved", 0600); err != nil {
		t.Fatal(err)
	}

	// FSStat/FSInfo forwarded.
	if _, err := fs.Proto().FSStat(ctx, fs.Root()); err != nil {
		t.Fatal(err)
	}
	if fi, err := fs.Proto().FSInfo(ctx, fs.Root()); err != nil || fi.RtMax == 0 {
		t.Fatalf("fsinfo: %+v %v", fi, err)
	}

	// Plain READDIR (not plus) through the proxy filter.
	entries, _, err := fs.Proto().ReadDirPlus(ctx, fs.Root(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("readdirplus: %d entries", len(entries))
	}

	// Rmdir.
	if err := fs.Rmdir(ctx, "d1"); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveOneLinkKeepsWriteBack: removing one name of a hard-linked
// file must not cancel the write-back the surviving name still owes
// the server (C2).
func TestRemoveOneLinkKeepsWriteBack(t *testing.T) {
	t.Parallel()
	dc := newDiskCache(t)
	cp, backends, fs := mountStack(t, false, dc)
	ctx := context.Background()
	payload := chaosPayload(2, 64*1024)
	putFile(t, fs, "a", payload)
	fh, _, err := fs.Proto().Lookup(ctx, fs.Root(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Proto().Link(ctx, fh, fs.Root(), "b"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	if err := cp.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	if got, err := backendFile(backends[0], "a"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("backend holds %d bytes of a (%v), want the %d written", len(got), err, len(payload))
	}
	if c := dc.Stats().CancelledBytes; c != 0 {
		t.Fatalf("%d bytes of write-back cancelled", c)
	}
}

// TestFlushAfterRenameOverPendingFile: a RENAME onto a file with
// pending write-back leaves that data nowhere to go. The flush drops it
// as cancelled instead of failing, then and on every later flush, and
// the renamed file's data arrives (C2).
func TestFlushAfterRenameOverPendingFile(t *testing.T) {
	for _, replicated := range []bool{false, true} {
		replicated := replicated
		t.Run(fmt.Sprintf("replicated=%v", replicated), func(t *testing.T) {
			t.Parallel()
			dc := newDiskCache(t)
			cp, backends, fs := mountStack(t, replicated, dc)
			ctx := context.Background()
			putFile(t, fs, "a", chaosPayload(3, 64*1024))
			payload := chaosPayload(4, 40*1024)
			putFile(t, fs, "b", payload)
			if err := fs.Rename(ctx, "b", "a"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if err := cp.FlushAll(ctx); err != nil {
					t.Fatalf("FlushAll %d: %v", i, err)
				}
			}
			if n := len(dc.DirtyFiles()); n != 0 {
				t.Fatalf("%d file(s) still dirty after the flush", n)
			}
			if c := dc.Stats().CancelledBytes; c < 64*1024 {
				t.Fatalf("%d bytes cancelled, want the overwritten file's 65536", c)
			}
			for i, be := range backends {
				waitFor(t, 10*time.Second, fmt.Sprintf("backend %d to hold a", i), func() bool {
					got, err := backendFile(be, "a")
					return err == nil && bytes.Equal(got, payload)
				})
			}
		})
	}
}

// TestTruncateKeepsWriteBackBelowSize: truncating a file with pending
// write-back keeps the data below the new size owed to the server (C2).
func TestTruncateKeepsWriteBackBelowSize(t *testing.T) {
	t.Parallel()
	dc := newDiskCache(t)
	cp, backends, fs := mountStack(t, false, dc)
	ctx := context.Background()
	payload := chaosPayload(5, 64*1024)
	putFile(t, fs, "a", payload)
	if err := fs.Truncate(ctx, "a", 40000); err != nil {
		t.Fatal(err)
	}
	if err := cp.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	if got, err := backendFile(backends[0], "a"); err != nil || !bytes.Equal(got, payload[:40000]) {
		t.Fatalf("backend holds %d bytes of a (%v), want the first 40000 written", len(got), err)
	}
}

// putFile writes payload into a new file through the mount.
func putFile(t *testing.T, fs *nfsclient.FileSystem, name string, payload []byte) {
	t.Helper()
	ctx := context.Background()
	f, err := fs.Create(ctx, name, 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(ctx, payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestReplicaCanonNS pins the canonical namespace invariants the
// replica layer depends on: determinism across backends, structural
// "." / "..", rename rebinding identity preservation.
func TestReplicaCanonNS(t *testing.T) {
	t.Parallel()
	ns := newCanonNS()
	a := newCanonNS()
	dir := ns.child(ns.root, "dir")
	if got := a.child(a.root, "dir"); !bytes.Equal(got.Data, dir.Data) {
		t.Fatal("canonical handles differ across independent namespaces")
	}
	file := ns.child(dir, "file")
	if bytes.Equal(file.Data, dir.Data) {
		t.Fatal("child handle equals parent handle")
	}
	if got := ns.child(dir, "."); !bytes.Equal(got.Data, dir.Data) {
		t.Fatal("dot does not resolve to the directory itself")
	}
	if got := ns.child(dir, ".."); !bytes.Equal(got.Data, ns.root.Data) {
		t.Fatal("dotdot of a first-level dir does not resolve to root")
	}
	if got := ns.child(ns.root, ".."); !bytes.Equal(got.Data, ns.root.Data) {
		t.Fatal("dotdot of root is not root")
	}
	if fileidOf(file) == 0 || fileidOf(file) == fileidOf(dir) {
		t.Fatal("fileids not distinct and stable")
	}

	// Rename: the canonical handle moves with the file and resolves via
	// the new name, which now returns it.
	dir2 := ns.child(ns.root, "dir2")
	over := ns.child(dir2, "renamed")
	if got := ns.rename(nfs3.DirOpArgs{Dir: dir, Name: "file"}, nfs3.DirOpArgs{Dir: dir2, Name: "renamed"}); got != string(over.Data) {
		t.Fatal("rename did not report the overwritten target's handle")
	}
	e, ok := ns.entry(string(file.Data))
	if !ok || e.name != "renamed" || e.parent != string(dir2.Data) {
		t.Fatalf("rename lost the entry: %+v %v", e, ok)
	}
	if got := ns.child(dir2, "renamed"); !bytes.Equal(got.Data, file.Data) {
		t.Fatal("the new name does not resolve to the moved handle")
	}
	if ns.known(over) {
		t.Fatal("the overwritten target's handle is still known")
	}
	// A name freed by RENAME or REMOVE gets a fresh handle when reused.
	reused := ns.child(dir, "file")
	if bytes.Equal(reused.Data, file.Data) || bytes.Equal(reused.Data, over.Data) {
		t.Fatal("a reused name minted a handle already issued")
	}
	if got := ns.remove(dir2, "renamed"); got != string(file.Data) || ns.known(file) {
		t.Fatal("remove did not forget the handle")
	}
	if again := ns.child(dir2, "renamed"); bytes.Equal(again.Data, file.Data) || bytes.Equal(again.Data, over.Data) {
		t.Fatal("a name freed by REMOVE minted a handle already issued")
	}
}

// TestReplicatedEndToEnd drives a full workload through a 3-backend
// quorum-2 deployment and verifies every backend converges to
// identical namespace and data.
func TestReplicatedEndToEnd(t *testing.T) {
	t.Parallel()
	dc := newDiskCache(t)
	st := buildReplStack(t, replOpts{n: 3, quorum: 2, diskCache: dc, recovery: fastRecovery()})
	fs := st.mount(t, nfsclient.Options{})
	ctx := context.Background()

	payload := chaosPayload(7, 100*1024)
	f, err := fs.Create(ctx, "dataset", 0644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(ctx, payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if err := st.cp.FlushAll(ctx); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}

	// All three backends must converge to the same bytes (quorum acks
	// plus stragglers completing on their detached deadlines).
	for i := range st.backends {
		i := i
		waitFor(t, 10*time.Second, fmt.Sprintf("backend %d to converge", i), func() bool {
			got, err := backendFile(st.backends[i], "dataset")
			return err == nil && bytes.Equal(got, payload)
		})
	}

	// Read back through the mount.
	g, err := fs.Open(ctx, "dataset")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	if _, err := g.ReadAt(ctx, buf, 0); err != nil && err.Error() != "EOF" {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatal("read-back corrupted")
	}

	// Namespace surface: mkdir, rename, symlink, remove — all quorum
	// fan-outs — and the canonical handles must stay coherent.
	if err := fs.Mkdir(ctx, "d1", 0755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(ctx, "dataset", "d1/moved"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat(ctx, "d1/moved"); err != nil {
		t.Fatalf("stat after rename: %v", err)
	}
	if err := fs.Symlink(ctx, "d1/moved", "ln"); err != nil {
		t.Fatal(err)
	}
	if tgt, err := fs.ReadLink(ctx, "ln"); err != nil || tgt != "d1/moved" {
		t.Fatalf("readlink: %q %v", tgt, err)
	}
	if err := fs.Remove(ctx, "ln"); err != nil {
		t.Fatal(err)
	}
	entries, err := fs.ReadDir(ctx, "/")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name == "dataset" || e.Name == "ln" {
			t.Fatalf("stale entry %q after rename/remove", e.Name)
		}
	}
	// The rename must reach every backend: it fans to all, the ack
	// comes at quorum, and the straggler lands on its detached deadline.
	for i, be := range st.backends {
		be := be
		waitFor(t, 10*time.Second, fmt.Sprintf("backend %d to drop the pre-rename name", i), func() bool {
			_, _, err := be.Lookup(be.Root(), "dataset")
			return err != nil
		})
	}
	if st.stats.QuorumWrites.Load() == 0 {
		t.Fatal("no quorum writes counted")
	}
	if got, ok := st.cp.ReplicaStats(); !ok || len(got.Backends) != 3 {
		t.Fatalf("ReplicaStats: %+v %v", got, ok)
	}
}

// TestReplicatedNameReuseAfterRename is the save pattern — write tmp,
// rename it over final, create tmp again — on a replicated stack. The
// new tmp must get a handle of its own: sharing the renamed file's
// would lose final's data and leave the replicas diverged (C1, C4).
func TestReplicatedNameReuseAfterRename(t *testing.T) {
	t.Parallel()
	cp, backends, fs := mountStack(t, true, newDiskCache(t))
	ctx := context.Background()
	final, tmp := bytes.Repeat([]byte("A"), 40*1024), bytes.Repeat([]byte("B"), 1000)
	putFile(t, fs, "tmp", final)
	if err := fs.Rename(ctx, "tmp", "final"); err != nil {
		t.Fatal(err)
	}
	putFile(t, fs, "tmp", tmp)
	f, err := fs.Open(ctx, "final")
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(final)+1)
	n, _ := f.ReadAt(ctx, got, 0)
	if !bytes.Equal(got[:n], final) {
		t.Fatalf("final reads %d bytes, want the %d written", n, len(final))
	}
	if err := cp.FlushAll(ctx); err != nil {
		t.Fatal(err)
	}
	for i, be := range backends {
		for name, want := range map[string][]byte{"final": final, "tmp": tmp} {
			waitFor(t, 10*time.Second, fmt.Sprintf("backend %d to hold %s", i, name), func() bool {
				got, err := backendFile(be, name)
				return err == nil && bytes.Equal(got, want)
			})
		}
	}
}

// TestReplicatedLinkRefused: the replica layer cannot keep two names of
// one file one file, so it refuses LINK in-band.
func TestReplicatedLinkRefused(t *testing.T) {
	t.Parallel()
	_, _, fs := mountStack(t, true, nil)
	ctx := context.Background()
	putFile(t, fs, "a", []byte("one name"))
	fh, _, err := fs.Proto().Lookup(ctx, fs.Root(), "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Proto().Link(ctx, fh, fs.Root(), "b"); !errors.Is(err, vfs.ErrNotSupp) {
		t.Fatalf("LINK answered %v, want %v", err, vfs.ErrNotSupp)
	}
}

// TestReplicatedRefusalInBand: a mutation every backend refuses alike
// changed nothing anywhere, so its status is the answer (C3).
func TestReplicatedRefusalInBand(t *testing.T) {
	t.Parallel()
	_, _, fs := mountStack(t, true, nil)
	ctx := context.Background()
	if err := fs.Mkdir(ctx, "d", 0755); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir(ctx, "d", 0755); !errors.Is(err, vfs.ErrExist) {
		t.Fatalf("second MKDIR answered %v, want %v", err, vfs.ErrExist)
	}
	if err := fs.Remove(ctx, "missing"); !errors.Is(err, vfs.ErrNoEnt) {
		t.Fatalf("REMOVE of a missing name answered %v, want %v", err, vfs.ErrNoEnt)
	}
}

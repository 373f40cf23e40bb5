package main

import "repro/internal/vfs"

// timedFS wraps the backend handed to nfs3.NewServer and mountd so the
// traced run sees one span per backend call. The untraced run uses the
// backend directly.
type timedFS struct {
	inner vfs.FS
	tr    *tracer
}

const (
	vfsGetAttr = iota
	vfsSetAttr
	vfsLookup
	vfsReadLink
	vfsRead
	vfsWrite
	vfsCreate
	vfsMkdir
	vfsSymlink
	vfsRemove
	vfsRmdir
	vfsRename
	vfsLink
	vfsReadDir
	vfsFSStat
	vfsCommit
)

var vfsMethodNames = [...]string{"GetAttr", "SetAttr", "Lookup", "ReadLink", "Read", "Write", "Create",
	"Mkdir", "Symlink", "Remove", "Rmdir", "Rename", "Link", "ReadDir", "FSStat", "Commit"}

// done records the span of a call that began at start.
func (f *timedFS) done(method int, start int64) {
	if f.tr.on.Load() {
		f.tr.add(layerVFS, span{start: start, end: f.tr.now(), name: uint16(method), op: -1})
	}
}

func (f *timedFS) Root() vfs.Handle { return f.inner.Root() }

func (f *timedFS) GetAttr(h vfs.Handle) (vfs.Attr, error) {
	defer f.done(vfsGetAttr, f.tr.now())
	return f.inner.GetAttr(h)
}

func (f *timedFS) SetAttr(h vfs.Handle, s vfs.SetAttr) (vfs.Attr, error) {
	defer f.done(vfsSetAttr, f.tr.now())
	return f.inner.SetAttr(h, s)
}

func (f *timedFS) Lookup(dir vfs.Handle, name string) (vfs.Handle, vfs.Attr, error) {
	defer f.done(vfsLookup, f.tr.now())
	return f.inner.Lookup(dir, name)
}

func (f *timedFS) ReadLink(h vfs.Handle) (string, error) {
	defer f.done(vfsReadLink, f.tr.now())
	return f.inner.ReadLink(h)
}

func (f *timedFS) Read(h vfs.Handle, off uint64, buf []byte) (int, bool, error) {
	defer f.done(vfsRead, f.tr.now())
	return f.inner.Read(h, off, buf)
}

func (f *timedFS) Write(h vfs.Handle, off uint64, data []byte) error {
	defer f.done(vfsWrite, f.tr.now())
	return f.inner.Write(h, off, data)
}

func (f *timedFS) Create(dir vfs.Handle, name string, attr vfs.SetAttr, exclusive bool) (vfs.Handle, vfs.Attr, error) {
	defer f.done(vfsCreate, f.tr.now())
	return f.inner.Create(dir, name, attr, exclusive)
}

func (f *timedFS) Mkdir(dir vfs.Handle, name string, attr vfs.SetAttr) (vfs.Handle, vfs.Attr, error) {
	defer f.done(vfsMkdir, f.tr.now())
	return f.inner.Mkdir(dir, name, attr)
}

func (f *timedFS) Symlink(dir vfs.Handle, name, target string, attr vfs.SetAttr) (vfs.Handle, vfs.Attr, error) {
	defer f.done(vfsSymlink, f.tr.now())
	return f.inner.Symlink(dir, name, target, attr)
}

func (f *timedFS) Remove(dir vfs.Handle, name string) error {
	defer f.done(vfsRemove, f.tr.now())
	return f.inner.Remove(dir, name)
}

func (f *timedFS) Rmdir(dir vfs.Handle, name string) error {
	defer f.done(vfsRmdir, f.tr.now())
	return f.inner.Rmdir(dir, name)
}

func (f *timedFS) Rename(fromDir vfs.Handle, fromName string, toDir vfs.Handle, toName string) error {
	defer f.done(vfsRename, f.tr.now())
	return f.inner.Rename(fromDir, fromName, toDir, toName)
}

func (f *timedFS) Link(h vfs.Handle, dir vfs.Handle, name string) error {
	defer f.done(vfsLink, f.tr.now())
	return f.inner.Link(h, dir, name)
}

func (f *timedFS) ReadDir(dir vfs.Handle, cookie uint64, count int) ([]vfs.DirEntry, bool, error) {
	defer f.done(vfsReadDir, f.tr.now())
	return f.inner.ReadDir(dir, cookie, count)
}

func (f *timedFS) FSStat(h vfs.Handle) (vfs.FSStat, error) {
	defer f.done(vfsFSStat, f.tr.now())
	return f.inner.FSStat(h)
}

func (f *timedFS) Commit(h vfs.Handle) error {
	defer f.done(vfsCommit, f.tr.now())
	return f.inner.Commit(h)
}

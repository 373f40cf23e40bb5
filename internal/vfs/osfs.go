package vfs

import (
	"encoding/binary"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// OSFS exports a directory of the local file system through the FS
// interface. It is what a deployed SGFS server uses to export real
// data (the /GFS/X directory of the paper), while MemFS serves tests
// and benchmarks.
//
// Handles name objects by an internally assigned file ID; each ID
// records its parent ID and name, so handles survive renames of the
// object or any ancestor. A handle becomes stale when the object it
// names is removed.
type OSFS struct {
	rootPath string

	mu     sync.Mutex
	nodes  map[uint64]*osNode
	nextID uint64
}

type osNode struct {
	id     uint64
	parent uint64 // 0 for root
	name   string
}

// NewOSFS exports the directory at path. The path must exist and be a
// directory.
func NewOSFS(path string) (*OSFS, error) {
	abs, err := filepath.Abs(path)
	if err != nil {
		return nil, err
	}
	info, err := os.Stat(abs)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return nil, ErrNotDir
	}
	f := &OSFS{rootPath: abs, nodes: make(map[uint64]*osNode), nextID: 2}
	f.nodes[1] = &osNode{id: 1}
	return f, nil
}

func osHandle(id uint64) Handle {
	var h Handle
	binary.BigEndian.PutUint64(h[0:8], id)
	return h
}

// path reconstructs the host path for a node; the caller holds mu.
func (f *OSFS) path(n *osNode) (string, error) {
	var parts []string
	for n.parent != 0 {
		parts = append(parts, n.name)
		parent, ok := f.nodes[n.parent]
		if !ok {
			return "", ErrStale
		}
		n = parent
	}
	p := f.rootPath
	for i := len(parts) - 1; i >= 0; i-- {
		p = filepath.Join(p, parts[i])
	}
	return p, nil
}

func (f *OSFS) node(h Handle) (*osNode, error) {
	id := binary.BigEndian.Uint64(h[0:8])
	n, ok := f.nodes[id]
	if !ok {
		return nil, ErrStale
	}
	return n, nil
}

// handlePath resolves a handle to a host path.
func (f *OSFS) handlePath(h Handle) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.node(h)
	if err != nil {
		return "", err
	}
	return f.path(n)
}

// childID finds or assigns the file ID for name under parent; the
// caller holds mu.
func (f *OSFS) childID(parent uint64, name string) uint64 {
	for _, n := range f.nodes {
		if n.parent == parent && n.name == name {
			return n.id
		}
	}
	id := f.nextID
	f.nextID++
	f.nodes[id] = &osNode{id: id, parent: parent, name: name}
	return id
}

func mapOSError(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, fs.ErrNotExist):
		return ErrNoEnt
	case errors.Is(err, syscall.ENOTEMPTY):
		// Must precede ErrExist: Go maps ENOTEMPTY to fs.ErrExist.
		return ErrNotEmpty
	case errors.Is(err, fs.ErrExist):
		return ErrExist
	case errors.Is(err, fs.ErrPermission):
		return ErrAccess
	case errors.Is(err, syscall.ENOTDIR):
		return ErrNotDir
	case errors.Is(err, syscall.EISDIR):
		return ErrIsDir
	case errors.Is(err, syscall.ENOSPC):
		return ErrNoSpc
	case errors.Is(err, syscall.EROFS):
		return ErrRoFs
	case errors.Is(err, syscall.EINVAL):
		return ErrInval
	case errors.Is(err, syscall.ENAMETOOLONG):
		return ErrNameTooLong
	default:
		return ErrIO
	}
}

func attrFromInfo(info os.FileInfo, fileID uint64) Attr {
	a := Attr{
		Mode:   uint32(info.Mode().Perm()),
		Nlink:  1,
		Size:   uint64(info.Size()),
		Used:   uint64(info.Size()),
		FileID: fileID,
		Mtime:  info.ModTime(),
		Atime:  info.ModTime(),
		Ctime:  info.ModTime(),
	}
	switch {
	case info.IsDir():
		a.Type = TypeDir
	case info.Mode()&os.ModeSymlink != 0:
		a.Type = TypeSymlink
	default:
		a.Type = TypeReg
	}
	if st, ok := info.Sys().(*syscall.Stat_t); ok {
		a.UID = st.Uid
		a.GID = st.Gid
		a.Nlink = uint32(st.Nlink)
		a.Atime = time.Unix(st.Atim.Unix())
		a.Ctime = time.Unix(st.Ctim.Unix())
		a.Used = uint64(st.Blocks) * 512
	}
	return a
}

// Root implements FS.
func (f *OSFS) Root() Handle { return osHandle(1) }

// GetAttr implements FS.
func (f *OSFS) GetAttr(h Handle) (Attr, error) {
	p, err := f.handlePath(h)
	if err != nil {
		return Attr{}, err
	}
	info, err := os.Lstat(p)
	if err != nil {
		return Attr{}, mapOSError(err)
	}
	return attrFromInfo(info, binary.BigEndian.Uint64(h[0:8])), nil
}

// SetAttr implements FS.
func (f *OSFS) SetAttr(h Handle, s SetAttr) (Attr, error) {
	p, err := f.handlePath(h)
	if err != nil {
		return Attr{}, err
	}
	if s.Mode != nil {
		if err := os.Chmod(p, os.FileMode(*s.Mode&07777)); err != nil {
			return Attr{}, mapOSError(err)
		}
	}
	if s.Size != nil {
		if err := os.Truncate(p, int64(*s.Size)); err != nil {
			return Attr{}, mapOSError(err)
		}
	}
	if s.UID != nil || s.GID != nil {
		uid, gid := -1, -1
		if s.UID != nil {
			uid = int(*s.UID)
		}
		if s.GID != nil {
			gid = int(*s.GID)
		}
		if err := os.Chown(p, uid, gid); err != nil && !errors.Is(err, fs.ErrPermission) {
			return Attr{}, mapOSError(err)
		}
	}
	if s.Atime != nil || s.Mtime != nil {
		at, mt := time.Now(), time.Now()
		if s.Atime != nil {
			at = *s.Atime
		}
		if s.Mtime != nil {
			mt = *s.Mtime
		}
		if err := os.Chtimes(p, at, mt); err != nil {
			return Attr{}, mapOSError(err)
		}
	}
	return f.GetAttr(h)
}

// Lookup implements FS.
func (f *OSFS) Lookup(dir Handle, name string) (Handle, Attr, error) {
	if err := checkName(name); err != nil && name != "." && name != ".." {
		return Handle{}, Attr{}, err
	}
	f.mu.Lock()
	n, err := f.node(dir)
	if err != nil {
		f.mu.Unlock()
		return Handle{}, Attr{}, err
	}
	dirPath, err := f.path(n)
	if err != nil {
		f.mu.Unlock()
		return Handle{}, Attr{}, err
	}
	if name == "." || name == ".." {
		// The root is its own parent, so ".." never leaves rootPath.
		id := n.id
		if name == ".." && n.parent != 0 {
			id = n.parent
		}
		f.mu.Unlock()
		h := osHandle(id)
		a, err := f.GetAttr(h)
		return h, a, err
	}
	p := filepath.Join(dirPath, name)
	info, serr := os.Lstat(p)
	if serr != nil {
		f.mu.Unlock()
		return Handle{}, Attr{}, mapOSError(serr)
	}
	id := f.childID(n.id, name)
	f.mu.Unlock()
	return osHandle(id), attrFromInfo(info, id), nil
}

// ReadLink implements FS.
func (f *OSFS) ReadLink(h Handle) (string, error) {
	p, err := f.handlePath(h)
	if err != nil {
		return "", err
	}
	target, err := os.Readlink(p)
	return target, mapOSError(err)
}

// Read implements FS.
func (f *OSFS) Read(h Handle, off uint64, buf []byte) (int, bool, error) {
	p, err := f.handlePath(h)
	if err != nil {
		return 0, false, err
	}
	file, err := os.Open(p)
	if err != nil {
		return 0, false, mapOSError(err)
	}
	defer file.Close()
	n, err := file.ReadAt(buf, int64(off))
	if err == io.EOF {
		return n, true, nil
	}
	if err != nil {
		return n, false, mapOSError(err)
	}
	info, err := file.Stat()
	if err != nil {
		return n, false, mapOSError(err)
	}
	return n, int64(off)+int64(n) >= info.Size(), nil
}

// Write implements FS.
func (f *OSFS) Write(h Handle, off uint64, data []byte) error {
	p, err := f.handlePath(h)
	if err != nil {
		return err
	}
	file, err := os.OpenFile(p, os.O_WRONLY, 0)
	if err != nil {
		return mapOSError(err)
	}
	defer file.Close()
	_, err = file.WriteAt(data, int64(off))
	return mapOSError(err)
}

func (f *OSFS) createCommon(dir Handle, name string) (string, uint64, error) {
	if err := checkName(name); err != nil {
		return "", 0, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	n, err := f.node(dir)
	if err != nil {
		return "", 0, err
	}
	dirPath, err := f.path(n)
	if err != nil {
		return "", 0, err
	}
	return filepath.Join(dirPath, name), n.id, nil
}

// Create implements FS.
func (f *OSFS) Create(dir Handle, name string, attr SetAttr, exclusive bool) (Handle, Attr, error) {
	p, parentID, err := f.createCommon(dir, name)
	if err != nil {
		return Handle{}, Attr{}, err
	}
	mode := os.FileMode(0644)
	if attr.Mode != nil {
		mode = os.FileMode(*attr.Mode & 07777)
	}
	flags := os.O_CREATE | os.O_RDWR
	if exclusive {
		flags |= os.O_EXCL
	}
	file, err := os.OpenFile(p, flags, mode)
	if err != nil {
		return Handle{}, Attr{}, mapOSError(err)
	}
	if attr.Size != nil {
		if terr := file.Truncate(int64(*attr.Size)); terr != nil {
			file.Close()
			return Handle{}, Attr{}, mapOSError(terr)
		}
	}
	info, err := file.Stat()
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return Handle{}, Attr{}, mapOSError(err)
	}
	f.mu.Lock()
	id := f.childID(parentID, name)
	f.mu.Unlock()
	return osHandle(id), attrFromInfo(info, id), nil
}

// Mkdir implements FS.
func (f *OSFS) Mkdir(dir Handle, name string, attr SetAttr) (Handle, Attr, error) {
	p, parentID, err := f.createCommon(dir, name)
	if err != nil {
		return Handle{}, Attr{}, err
	}
	mode := os.FileMode(0755)
	if attr.Mode != nil {
		mode = os.FileMode(*attr.Mode & 07777)
	}
	if err := os.Mkdir(p, mode); err != nil {
		return Handle{}, Attr{}, mapOSError(err)
	}
	info, err := os.Lstat(p)
	if err != nil {
		return Handle{}, Attr{}, mapOSError(err)
	}
	f.mu.Lock()
	id := f.childID(parentID, name)
	f.mu.Unlock()
	return osHandle(id), attrFromInfo(info, id), nil
}

// Symlink implements FS.
func (f *OSFS) Symlink(dir Handle, name, target string, attr SetAttr) (Handle, Attr, error) {
	p, parentID, err := f.createCommon(dir, name)
	if err != nil {
		return Handle{}, Attr{}, err
	}
	if err := os.Symlink(target, p); err != nil {
		return Handle{}, Attr{}, mapOSError(err)
	}
	info, err := os.Lstat(p)
	if err != nil {
		return Handle{}, Attr{}, mapOSError(err)
	}
	f.mu.Lock()
	id := f.childID(parentID, name)
	f.mu.Unlock()
	return osHandle(id), attrFromInfo(info, id), nil
}

// forget drops the node for (parent, name), making its handles stale;
// the caller holds mu.
func (f *OSFS) forget(parent uint64, name string) {
	for id, n := range f.nodes {
		if n.parent == parent && n.name == name {
			delete(f.nodes, id)
			return
		}
	}
}

// Remove implements FS.
func (f *OSFS) Remove(dir Handle, name string) error {
	p, parentID, err := f.createCommon(dir, name)
	if err != nil {
		return err
	}
	info, err := os.Lstat(p)
	if err != nil {
		return mapOSError(err)
	}
	if info.IsDir() {
		return ErrIsDir
	}
	if err := os.Remove(p); err != nil {
		return mapOSError(err)
	}
	f.mu.Lock()
	f.forget(parentID, name)
	f.mu.Unlock()
	return nil
}

// Rmdir implements FS.
func (f *OSFS) Rmdir(dir Handle, name string) error {
	p, parentID, err := f.createCommon(dir, name)
	if err != nil {
		return err
	}
	info, err := os.Lstat(p)
	if err != nil {
		return mapOSError(err)
	}
	if !info.IsDir() {
		return ErrNotDir
	}
	if err := os.Remove(p); err != nil {
		return mapOSError(err)
	}
	f.mu.Lock()
	f.forget(parentID, name)
	f.mu.Unlock()
	return nil
}

// Rename implements FS.
func (f *OSFS) Rename(fromDir Handle, fromName string, toDir Handle, toName string) error {
	if err := checkName(fromName); err != nil {
		return err
	}
	if err := checkName(toName); err != nil {
		return err
	}
	f.mu.Lock()
	fn, err := f.node(fromDir)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	tn, err := f.node(toDir)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	fromPath, err := f.path(fn)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	toPath, err := f.path(tn)
	if err != nil {
		f.mu.Unlock()
		return err
	}
	f.mu.Unlock()

	src := filepath.Join(fromPath, fromName)
	dst := filepath.Join(toPath, toName)
	if err := os.Rename(src, dst); err != nil {
		return mapOSError(err)
	}

	f.mu.Lock()
	f.forget(tn.id, toName) // any old handle at the destination is now stale
	for _, n := range f.nodes {
		if n.parent == fn.id && n.name == fromName {
			n.parent = tn.id
			n.name = toName
			break
		}
	}
	f.mu.Unlock()
	return nil
}

// Link implements FS.
func (f *OSFS) Link(h Handle, dir Handle, name string) error {
	src, err := f.handlePath(h)
	if err != nil {
		return err
	}
	dst, _, err := f.createCommon(dir, name)
	if err != nil {
		return err
	}
	return mapOSError(os.Link(src, dst))
}

// ReadDir implements FS. Cookies index into the name-sorted entry
// list; concurrent directory mutation may skip or repeat entries, the
// standard weak NFS guarantee.
func (f *OSFS) ReadDir(dir Handle, cookie uint64, count int) ([]DirEntry, bool, error) {
	f.mu.Lock()
	n, err := f.node(dir)
	if err != nil {
		f.mu.Unlock()
		return nil, false, err
	}
	dirPath, err := f.path(n)
	if err != nil {
		f.mu.Unlock()
		return nil, false, err
	}
	f.mu.Unlock()

	entries, err := os.ReadDir(dirPath)
	if err != nil {
		return nil, false, mapOSError(err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	if cookie >= uint64(len(entries)) {
		return nil, true, nil
	}
	entries = entries[cookie:]
	eof := true
	if count > 0 && len(entries) > count {
		entries = entries[:count]
		eof = false
	}
	out := make([]DirEntry, 0, len(entries))
	for i, de := range entries {
		info, err := de.Info()
		if err != nil {
			continue
		}
		f.mu.Lock()
		id := f.childID(n.id, de.Name())
		f.mu.Unlock()
		attr := attrFromInfo(info, id)
		out = append(out, DirEntry{
			Name:   de.Name(),
			FileID: id,
			Cookie: cookie + uint64(i) + 1,
			Handle: osHandle(id),
			Attr:   &attr,
		})
	}
	return out, eof, nil
}

// FSStat implements FS.
func (f *OSFS) FSStat(h Handle) (FSStat, error) {
	p, err := f.handlePath(h)
	if err != nil {
		return FSStat{}, err
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(p, &st); err != nil {
		return FSStat{}, mapOSError(err)
	}
	bs := uint64(st.Bsize)
	return FSStat{
		TotalBytes: st.Blocks * bs,
		FreeBytes:  st.Bfree * bs,
		AvailBytes: st.Bavail * bs,
		TotalFiles: st.Files,
		FreeFiles:  st.Ffree,
	}, nil
}

// Commit implements FS by fsyncing the file.
func (f *OSFS) Commit(h Handle) error {
	p, err := f.handlePath(h)
	if err != nil {
		return err
	}
	file, err := os.Open(p)
	if err != nil {
		return mapOSError(err)
	}
	defer file.Close()
	return mapOSError(file.Sync())
}

package vfs

import (
	"encoding/binary"
	"sort"
	"sync"
	"time"
)

// MemFS is an inode-based in-memory file system. It implements FS and
// is safe for concurrent use. Benchmarks use it as the storage behind
// the NFS server so that measured costs come from the protocol stack
// and security machinery rather than the host disk — matching the
// paper's IOzone setup, which preloads the file into server memory so
// "there is no actual disk I/O involved".
type MemFS struct {
	mu     sync.RWMutex
	inodes map[uint64]*memInode
	nextID uint64
	root   uint64

	// Capacity reported by FSStat; purely cosmetic.
	capacity uint64
}

type memInode struct {
	id   uint64
	gen  uint64
	attr Attr

	data    []byte              // regular files
	target  string              // symlinks
	entries map[string]*dirSlot // directories
	parent  uint64              // directories: the one holding this one; the root's is itself
	nextSeq uint64              // directory cookie sequence
}

type dirSlot struct {
	id  uint64
	seq uint64
}

// NewMemFS creates an empty file system whose root directory is owned
// by uid/gid 0 with mode 0777.
func NewMemFS() *MemFS {
	fs := &MemFS{
		inodes:   make(map[uint64]*memInode),
		nextID:   1,
		capacity: 1 << 40,
	}
	root := fs.newInode(TypeDir, 0777, 0, 0)
	root.entries = make(map[string]*dirSlot)
	root.parent = root.id
	fs.root = root.id
	return fs
}

func (fs *MemFS) newInode(t FileType, mode, uid, gid uint32) *memInode {
	now := time.Now()
	ino := &memInode{
		id:  fs.nextID,
		gen: 1,
		attr: Attr{
			Type: t, Mode: mode, Nlink: 1, UID: uid, GID: gid,
			FileID: fs.nextID, Atime: now, Mtime: now, Ctime: now,
		},
	}
	if t == TypeDir {
		ino.attr.Nlink = 2
		ino.entries = make(map[string]*dirSlot)
	}
	fs.inodes[fs.nextID] = ino
	fs.nextID++
	return ino
}

func (ino *memInode) handle() Handle {
	var h Handle
	binary.BigEndian.PutUint64(h[0:8], ino.id)
	binary.BigEndian.PutUint64(h[8:16], ino.gen)
	return h
}

// get resolves a handle to an inode, checking the generation so that
// handles to removed objects are detected as stale.
func (fs *MemFS) get(h Handle) (*memInode, error) {
	id := binary.BigEndian.Uint64(h[0:8])
	gen := binary.BigEndian.Uint64(h[8:16])
	ino, ok := fs.inodes[id]
	if !ok || ino.gen != gen {
		return nil, ErrStale
	}
	return ino, nil
}

func (fs *MemFS) getDir(h Handle) (*memInode, error) {
	ino, err := fs.get(h)
	if err != nil {
		return nil, err
	}
	if ino.attr.Type != TypeDir {
		return nil, ErrNotDir
	}
	return ino, nil
}

func checkName(name string) error {
	switch {
	case name == "" || name == "." || name == "..":
		return ErrInval
	case len(name) > 255:
		return ErrNameTooLong
	}
	for i := 0; i < len(name); i++ {
		if name[i] == '/' || name[i] == 0 {
			return ErrInval
		}
	}
	return nil
}

// Root implements FS.
func (fs *MemFS) Root() Handle {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.inodes[fs.root].handle()
}

// GetAttr implements FS.
func (fs *MemFS) GetAttr(h Handle) (Attr, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	ino, err := fs.get(h)
	if err != nil {
		return Attr{}, err
	}
	return ino.attr, nil
}

// SetAttr implements FS.
func (fs *MemFS) SetAttr(h Handle, s SetAttr) (Attr, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.get(h)
	if err != nil {
		return Attr{}, err
	}
	now := time.Now()
	if s.Mode != nil {
		ino.attr.Mode = *s.Mode & 07777
	}
	if s.UID != nil {
		ino.attr.UID = *s.UID
	}
	if s.GID != nil {
		ino.attr.GID = *s.GID
	}
	if s.Size != nil {
		if ino.attr.Type == TypeDir {
			return Attr{}, ErrIsDir
		}
		ino.truncate(*s.Size)
		ino.attr.Mtime = now
	}
	if s.Atime != nil {
		ino.attr.Atime = *s.Atime
	}
	if s.Mtime != nil {
		ino.attr.Mtime = *s.Mtime
	}
	ino.attr.Ctime = now
	return ino.attr, nil
}

// truncate sets the file's length. The bytes past the length are kept
// zero, so growth within the capacity reads as zeros; growth past it
// doubles the capacity, so n appending writes copy the file O(log n)
// times.
func (ino *memInode) truncate(size uint64) {
	switch {
	case size < uint64(len(ino.data)):
		clear(ino.data[size:])
		ino.data = ino.data[:size]
	case size <= uint64(cap(ino.data)):
		ino.data = ino.data[:size]
	default:
		grown := make([]byte, size, max(size, 2*uint64(cap(ino.data))))
		copy(grown, ino.data)
		ino.data = grown
	}
	ino.attr.Size = size
	ino.attr.Used = size
}

// Lookup implements FS.
func (fs *MemFS) Lookup(dir Handle, name string) (Handle, Attr, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	d, err := fs.getDir(dir)
	if err != nil {
		return Handle{}, Attr{}, err
	}
	switch name {
	case ".":
		return d.handle(), d.attr, nil
	case "..":
		p := fs.inodes[d.parent]
		return p.handle(), p.attr, nil
	}
	slot, ok := d.entries[name]
	if !ok {
		return Handle{}, Attr{}, ErrNoEnt
	}
	child := fs.inodes[slot.id]
	return child.handle(), child.attr, nil
}

// ReadLink implements FS.
func (fs *MemFS) ReadLink(h Handle) (string, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	ino, err := fs.get(h)
	if err != nil {
		return "", err
	}
	if ino.attr.Type != TypeSymlink {
		return "", ErrInval
	}
	return ino.target, nil
}

// Read implements FS.
func (fs *MemFS) Read(h Handle, off uint64, buf []byte) (int, bool, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	ino, err := fs.get(h)
	if err != nil {
		return 0, false, err
	}
	if ino.attr.Type == TypeDir {
		return 0, false, ErrIsDir
	}
	if off >= uint64(len(ino.data)) {
		return 0, true, nil
	}
	n := copy(buf, ino.data[off:])
	eof := off+uint64(n) >= uint64(len(ino.data))
	return n, eof, nil
}

// Write implements FS.
func (fs *MemFS) Write(h Handle, off uint64, data []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.get(h)
	if err != nil {
		return err
	}
	if ino.attr.Type == TypeDir {
		return ErrIsDir
	}
	if end := off + uint64(len(data)); end > uint64(len(ino.data)) {
		ino.truncate(end)
	}
	copy(ino.data[off:], data)
	now := time.Now()
	ino.attr.Mtime = now
	ino.attr.Ctime = now
	return nil
}

func (fs *MemFS) addEntry(d *memInode, name string, child *memInode) {
	d.nextSeq++
	d.entries[name] = &dirSlot{id: child.id, seq: d.nextSeq}
	now := time.Now()
	d.attr.Mtime = now
	d.attr.Ctime = now
}

// Create implements FS.
func (fs *MemFS) Create(dir Handle, name string, attr SetAttr, exclusive bool) (Handle, Attr, error) {
	if err := checkName(name); err != nil {
		return Handle{}, Attr{}, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.getDir(dir)
	if err != nil {
		return Handle{}, Attr{}, err
	}
	if slot, ok := d.entries[name]; ok {
		if exclusive {
			return Handle{}, Attr{}, ErrExist
		}
		existing := fs.inodes[slot.id]
		if existing.attr.Type != TypeReg {
			return Handle{}, Attr{}, ErrExist
		}
		if attr.Size != nil {
			existing.truncate(*attr.Size)
		}
		return existing.handle(), existing.attr, nil
	}
	mode := uint32(0644)
	if attr.Mode != nil {
		mode = *attr.Mode & 07777
	}
	var uid, gid uint32
	if attr.UID != nil {
		uid = *attr.UID
	}
	if attr.GID != nil {
		gid = *attr.GID
	} else {
		gid = d.attr.GID
	}
	child := fs.newInode(TypeReg, mode, uid, gid)
	if attr.Size != nil {
		child.truncate(*attr.Size)
	}
	fs.addEntry(d, name, child)
	return child.handle(), child.attr, nil
}

// Mkdir implements FS.
func (fs *MemFS) Mkdir(dir Handle, name string, attr SetAttr) (Handle, Attr, error) {
	if err := checkName(name); err != nil {
		return Handle{}, Attr{}, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.getDir(dir)
	if err != nil {
		return Handle{}, Attr{}, err
	}
	if _, ok := d.entries[name]; ok {
		return Handle{}, Attr{}, ErrExist
	}
	mode := uint32(0755)
	if attr.Mode != nil {
		mode = *attr.Mode & 07777
	}
	var uid, gid uint32
	if attr.UID != nil {
		uid = *attr.UID
	}
	if attr.GID != nil {
		gid = *attr.GID
	} else {
		gid = d.attr.GID
	}
	child := fs.newInode(TypeDir, mode, uid, gid)
	child.parent = d.id
	fs.addEntry(d, name, child)
	d.attr.Nlink++
	return child.handle(), child.attr, nil
}

// Symlink implements FS.
func (fs *MemFS) Symlink(dir Handle, name, target string, attr SetAttr) (Handle, Attr, error) {
	if err := checkName(name); err != nil {
		return Handle{}, Attr{}, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.getDir(dir)
	if err != nil {
		return Handle{}, Attr{}, err
	}
	if _, ok := d.entries[name]; ok {
		return Handle{}, Attr{}, ErrExist
	}
	child := fs.newInode(TypeSymlink, 0777, 0, d.attr.GID)
	if attr.UID != nil {
		child.attr.UID = *attr.UID
	}
	if attr.GID != nil {
		child.attr.GID = *attr.GID
	}
	child.target = target
	child.attr.Size = uint64(len(target))
	fs.addEntry(d, name, child)
	return child.handle(), child.attr, nil
}

// Remove implements FS.
func (fs *MemFS) Remove(dir Handle, name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.getDir(dir)
	if err != nil {
		return err
	}
	slot, ok := d.entries[name]
	if !ok {
		return ErrNoEnt
	}
	child := fs.inodes[slot.id]
	if child.attr.Type == TypeDir {
		return ErrIsDir
	}
	delete(d.entries, name)
	now := time.Now()
	d.attr.Mtime = now
	d.attr.Ctime = now
	child.attr.Nlink--
	if child.attr.Nlink == 0 {
		delete(fs.inodes, child.id)
	}
	return nil
}

// Rmdir implements FS.
func (fs *MemFS) Rmdir(dir Handle, name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	d, err := fs.getDir(dir)
	if err != nil {
		return err
	}
	slot, ok := d.entries[name]
	if !ok {
		return ErrNoEnt
	}
	child := fs.inodes[slot.id]
	if child.attr.Type != TypeDir {
		return ErrNotDir
	}
	if len(child.entries) != 0 {
		return ErrNotEmpty
	}
	delete(d.entries, name)
	delete(fs.inodes, child.id)
	d.attr.Nlink--
	now := time.Now()
	d.attr.Mtime = now
	d.attr.Ctime = now
	return nil
}

// Rename implements FS.
func (fs *MemFS) Rename(fromDir Handle, fromName string, toDir Handle, toName string) error {
	if err := checkName(toName); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fd, err := fs.getDir(fromDir)
	if err != nil {
		return err
	}
	td, err := fs.getDir(toDir)
	if err != nil {
		return err
	}
	slot, ok := fd.entries[fromName]
	if !ok {
		return ErrNoEnt
	}
	moving := fs.inodes[slot.id]
	if existing, ok := td.entries[toName]; ok {
		target := fs.inodes[existing.id]
		if target.attr.Type == TypeDir {
			if moving.attr.Type != TypeDir {
				return ErrIsDir
			}
			if len(target.entries) != 0 {
				return ErrNotEmpty
			}
			delete(fs.inodes, target.id)
			td.attr.Nlink--
		} else {
			if moving.attr.Type == TypeDir {
				return ErrNotDir
			}
			target.attr.Nlink--
			if target.attr.Nlink == 0 {
				delete(fs.inodes, target.id)
			}
		}
	}
	delete(fd.entries, fromName)
	fs.addEntry(td, toName, moving)
	if moving.attr.Type == TypeDir && fd != td {
		fd.attr.Nlink--
		td.attr.Nlink++
		moving.parent = td.id
	}
	now := time.Now()
	fd.attr.Mtime = now
	fd.attr.Ctime = now
	moving.attr.Ctime = now
	return nil
}

// Link implements FS.
func (fs *MemFS) Link(h Handle, dir Handle, name string) error {
	if err := checkName(name); err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, err := fs.get(h)
	if err != nil {
		return err
	}
	if ino.attr.Type == TypeDir {
		return ErrIsDir
	}
	d, err := fs.getDir(dir)
	if err != nil {
		return err
	}
	if _, ok := d.entries[name]; ok {
		return ErrExist
	}
	fs.addEntry(d, name, ino)
	ino.attr.Nlink++
	ino.attr.Ctime = time.Now()
	return nil
}

// ReadDir implements FS. Cookies are per-entry insertion sequence
// numbers, so enumeration is stable under concurrent removals.
func (fs *MemFS) ReadDir(dir Handle, cookie uint64, count int) ([]DirEntry, bool, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	d, err := fs.getDir(dir)
	if err != nil {
		return nil, false, err
	}
	type seqEntry struct {
		name string
		slot *dirSlot
	}
	pending := make([]seqEntry, 0, len(d.entries))
	for name, slot := range d.entries {
		if slot.seq > cookie {
			pending = append(pending, seqEntry{name, slot})
		}
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].slot.seq < pending[j].slot.seq })
	eof := true
	if count > 0 && len(pending) > count {
		pending = pending[:count]
		eof = false
	}
	out := make([]DirEntry, len(pending))
	for i, pe := range pending {
		child := fs.inodes[pe.slot.id]
		attr := child.attr
		out[i] = DirEntry{
			Name:   pe.name,
			FileID: child.id,
			Cookie: pe.slot.seq,
			Handle: child.handle(),
			Attr:   &attr,
		}
	}
	return out, eof, nil
}

// FSStat implements FS.
func (fs *MemFS) FSStat(h Handle) (FSStat, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if _, err := fs.get(h); err != nil {
		return FSStat{}, err
	}
	var used uint64
	for _, ino := range fs.inodes {
		used += uint64(len(ino.data))
	}
	free := fs.capacity - used
	return FSStat{
		TotalBytes: fs.capacity,
		FreeBytes:  free,
		AvailBytes: free,
		TotalFiles: 1 << 20,
		FreeFiles:  1<<20 - uint64(len(fs.inodes)),
	}, nil
}

// Commit implements FS; memory is always "stable".
func (fs *MemFS) Commit(h Handle) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, err := fs.get(h)
	return err
}

// NumInodes reports the live inode count (for tests).
func (fs *MemFS) NumInodes() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return len(fs.inodes)
}

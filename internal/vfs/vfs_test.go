package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// conformance runs the same behavioural suite against any FS
// implementation.
func conformance(t *testing.T, mk func(t *testing.T) FS) {
	t.Run("RootIsDir", func(t *testing.T) {
		fs := mk(t)
		a, err := fs.GetAttr(fs.Root())
		if err != nil {
			t.Fatal(err)
		}
		if a.Type != TypeDir {
			t.Fatalf("root type %v", a.Type)
		}
	})

	t.Run("CreateLookupReadWrite", func(t *testing.T) {
		fs := mk(t)
		h, a, err := fs.Create(fs.Root(), "data.bin", SetAttr{}, false)
		if err != nil {
			t.Fatal(err)
		}
		if a.Type != TypeReg || a.Size != 0 {
			t.Fatalf("bad create attr %+v", a)
		}
		payload := []byte("block of seismic samples")
		if err := fs.Write(h, 0, payload); err != nil {
			t.Fatal(err)
		}
		h2, a2, err := fs.Lookup(fs.Root(), "data.bin")
		if err != nil {
			t.Fatal(err)
		}
		if h2 != h {
			t.Fatal("lookup returned a different handle")
		}
		if a2.Size != uint64(len(payload)) {
			t.Fatalf("size %d, want %d", a2.Size, len(payload))
		}
		buf := make([]byte, 64)
		n, eof, err := fs.Read(h, 0, buf)
		if err != nil {
			t.Fatal(err)
		}
		if !eof || !bytes.Equal(buf[:n], payload) {
			t.Fatalf("read %q eof=%v", buf[:n], eof)
		}
	})

	t.Run("WriteAtOffsetExtends", func(t *testing.T) {
		fs := mk(t)
		h, _, _ := fs.Create(fs.Root(), "sparse", SetAttr{}, false)
		if err := fs.Write(h, 100, []byte("tail")); err != nil {
			t.Fatal(err)
		}
		a, _ := fs.GetAttr(h)
		if a.Size != 104 {
			t.Fatalf("size %d, want 104", a.Size)
		}
		buf := make([]byte, 4)
		n, _, err := fs.Read(h, 100, buf)
		if err != nil || n != 4 || string(buf) != "tail" {
			t.Fatalf("read tail: %q %v", buf[:n], err)
		}
		// The hole reads as zeros.
		n, _, _ = fs.Read(h, 0, buf)
		if n != 4 || !bytes.Equal(buf, make([]byte, 4)) {
			t.Fatalf("hole read %v", buf[:n])
		}
	})

	t.Run("ReadPastEOF", func(t *testing.T) {
		fs := mk(t)
		h, _, _ := fs.Create(fs.Root(), "short", SetAttr{}, false)
		fs.Write(h, 0, []byte("abc"))
		buf := make([]byte, 10)
		n, eof, err := fs.Read(h, 100, buf)
		if err != nil || n != 0 || !eof {
			t.Fatalf("n=%d eof=%v err=%v", n, eof, err)
		}
	})

	t.Run("ExclusiveCreate", func(t *testing.T) {
		fs := mk(t)
		if _, _, err := fs.Create(fs.Root(), "x", SetAttr{}, true); err != nil {
			t.Fatal(err)
		}
		if _, _, err := fs.Create(fs.Root(), "x", SetAttr{}, true); !errors.Is(err, ErrExist) {
			t.Fatalf("got %v, want ErrExist", err)
		}
		// Non-exclusive create of an existing file succeeds.
		if _, _, err := fs.Create(fs.Root(), "x", SetAttr{}, false); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("LookupMissing", func(t *testing.T) {
		fs := mk(t)
		if _, _, err := fs.Lookup(fs.Root(), "ghost"); !errors.Is(err, ErrNoEnt) {
			t.Fatalf("got %v", err)
		}
	})

	t.Run("MkdirAndNesting", func(t *testing.T) {
		fs := mk(t)
		d1, a, err := fs.Mkdir(fs.Root(), "sub", SetAttr{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Type != TypeDir {
			t.Fatal("mkdir created non-dir")
		}
		d2, _, err := fs.Mkdir(d1, "deeper", SetAttr{})
		if err != nil {
			t.Fatal(err)
		}
		h, _, err := fs.Create(d2, "leaf", SetAttr{}, false)
		if err != nil {
			t.Fatal(err)
		}
		fs.Write(h, 0, []byte("deep"))
		got, _, err := fs.Lookup(d2, "leaf")
		if err != nil || got != h {
			t.Fatalf("nested lookup: %v", err)
		}
		if _, _, err := fs.Mkdir(fs.Root(), "sub", SetAttr{}); !errors.Is(err, ErrExist) {
			t.Fatalf("duplicate mkdir: %v", err)
		}
	})

	t.Run("RemoveAndStaleHandle", func(t *testing.T) {
		fs := mk(t)
		h, _, _ := fs.Create(fs.Root(), "doomed", SetAttr{}, false)
		if err := fs.Remove(fs.Root(), "doomed"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := fs.Lookup(fs.Root(), "doomed"); !errors.Is(err, ErrNoEnt) {
			t.Fatalf("lookup after remove: %v", err)
		}
		if _, err := fs.GetAttr(h); !errors.Is(err, ErrStale) && !errors.Is(err, ErrNoEnt) {
			t.Fatalf("stale handle gave %v", err)
		}
		if err := fs.Remove(fs.Root(), "doomed"); !errors.Is(err, ErrNoEnt) {
			t.Fatalf("double remove: %v", err)
		}
	})

	t.Run("RemoveDirFails", func(t *testing.T) {
		fs := mk(t)
		fs.Mkdir(fs.Root(), "d", SetAttr{})
		if err := fs.Remove(fs.Root(), "d"); !errors.Is(err, ErrIsDir) {
			t.Fatalf("got %v", err)
		}
	})

	t.Run("RmdirSemantics", func(t *testing.T) {
		fs := mk(t)
		d, _, _ := fs.Mkdir(fs.Root(), "d", SetAttr{})
		fs.Create(d, "f", SetAttr{}, false)
		if err := fs.Rmdir(fs.Root(), "d"); !errors.Is(err, ErrNotEmpty) {
			t.Fatalf("non-empty rmdir: %v", err)
		}
		fs.Remove(d, "f")
		if err := fs.Rmdir(fs.Root(), "d"); err != nil {
			t.Fatal(err)
		}
		fs.Create(fs.Root(), "plain", SetAttr{}, false)
		if err := fs.Rmdir(fs.Root(), "plain"); !errors.Is(err, ErrNotDir) {
			t.Fatalf("rmdir on file: %v", err)
		}
	})

	t.Run("RenameSameDir", func(t *testing.T) {
		fs := mk(t)
		h, _, _ := fs.Create(fs.Root(), "old", SetAttr{}, false)
		fs.Write(h, 0, []byte("payload"))
		if err := fs.Rename(fs.Root(), "old", fs.Root(), "new"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := fs.Lookup(fs.Root(), "old"); !errors.Is(err, ErrNoEnt) {
			t.Fatal("old name still present")
		}
		h2, _, err := fs.Lookup(fs.Root(), "new")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 7)
		n, _, _ := fs.Read(h2, 0, buf)
		if string(buf[:n]) != "payload" {
			t.Fatal("content lost in rename")
		}
		// The original handle must survive the rename.
		if _, err := fs.GetAttr(h); err != nil {
			t.Fatalf("handle stale after rename: %v", err)
		}
	})

	t.Run("RenameAcrossDirsReplacesTarget", func(t *testing.T) {
		fs := mk(t)
		d1, _, _ := fs.Mkdir(fs.Root(), "a", SetAttr{})
		d2, _, _ := fs.Mkdir(fs.Root(), "b", SetAttr{})
		src, _, _ := fs.Create(d1, "f", SetAttr{}, false)
		fs.Write(src, 0, []byte("source"))
		dst, _, _ := fs.Create(d2, "g", SetAttr{}, false)
		fs.Write(dst, 0, []byte("target"))
		if err := fs.Rename(d1, "f", d2, "g"); err != nil {
			t.Fatal(err)
		}
		h, _, err := fs.Lookup(d2, "g")
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 6)
		n, _, _ := fs.Read(h, 0, buf)
		if string(buf[:n]) != "source" {
			t.Fatalf("destination content %q", buf[:n])
		}
	})

	t.Run("RenameMissingSource", func(t *testing.T) {
		fs := mk(t)
		if err := fs.Rename(fs.Root(), "no", fs.Root(), "where"); !errors.Is(err, ErrNoEnt) {
			t.Fatalf("got %v", err)
		}
	})

	t.Run("SymlinkReadlink", func(t *testing.T) {
		fs := mk(t)
		h, a, err := fs.Symlink(fs.Root(), "ln", "target/path", SetAttr{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Type != TypeSymlink {
			t.Fatalf("type %v", a.Type)
		}
		target, err := fs.ReadLink(h)
		if err != nil || target != "target/path" {
			t.Fatalf("readlink %q %v", target, err)
		}
		reg, _, _ := fs.Create(fs.Root(), "reg", SetAttr{}, false)
		if _, err := fs.ReadLink(reg); err == nil {
			t.Fatal("readlink on regular file succeeded")
		}
	})

	t.Run("HardLink", func(t *testing.T) {
		fs := mk(t)
		h, _, _ := fs.Create(fs.Root(), "orig", SetAttr{}, false)
		fs.Write(h, 0, []byte("shared"))
		if err := fs.Link(h, fs.Root(), "alias"); err != nil {
			t.Fatal(err)
		}
		h2, a2, err := fs.Lookup(fs.Root(), "alias")
		if err != nil {
			t.Fatal(err)
		}
		if a2.Nlink < 2 {
			t.Fatalf("nlink %d", a2.Nlink)
		}
		buf := make([]byte, 6)
		n, _, _ := fs.Read(h2, 0, buf)
		if string(buf[:n]) != "shared" {
			t.Fatal("link content mismatch")
		}
		// Removing one name keeps the object alive via the other.
		if err := fs.Remove(fs.Root(), "orig"); err != nil {
			t.Fatal(err)
		}
		if _, _, err := fs.Lookup(fs.Root(), "alias"); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("SetAttrTruncateAndMode", func(t *testing.T) {
		fs := mk(t)
		h, _, _ := fs.Create(fs.Root(), "f", SetAttr{}, false)
		fs.Write(h, 0, bytes.Repeat([]byte("x"), 100))
		size := uint64(10)
		mode := uint32(0600)
		a, err := fs.SetAttr(h, SetAttr{Size: &size, Mode: &mode})
		if err != nil {
			t.Fatal(err)
		}
		if a.Size != 10 || a.Mode != 0600 {
			t.Fatalf("attr %+v", a)
		}
		// Truncate up: reads zeros.
		size = 20
		fs.SetAttr(h, SetAttr{Size: &size})
		buf := make([]byte, 20)
		n, _, _ := fs.Read(h, 0, buf)
		if n != 20 || !bytes.Equal(buf[10:], make([]byte, 10)) {
			t.Fatalf("truncate-up read n=%d", n)
		}
	})

	t.Run("ReadDirPagination", func(t *testing.T) {
		fs := mk(t)
		want := map[string]bool{}
		for i := 0; i < 25; i++ {
			name := fmt.Sprintf("file%02d", i)
			fs.Create(fs.Root(), name, SetAttr{}, false)
			want[name] = true
		}
		got := map[string]bool{}
		var cookie uint64
		for {
			entries, eof, err := fs.ReadDir(fs.Root(), cookie, 7)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if got[e.Name] {
					t.Fatalf("duplicate entry %q", e.Name)
				}
				got[e.Name] = true
				cookie = e.Cookie
			}
			if eof {
				break
			}
		}
		if len(got) != len(want) {
			t.Fatalf("enumerated %d entries, want %d", len(got), len(want))
		}
	})

	t.Run("ReadDirEmptyDir", func(t *testing.T) {
		fs := mk(t)
		d, _, _ := fs.Mkdir(fs.Root(), "empty", SetAttr{})
		entries, eof, err := fs.ReadDir(d, 0, 10)
		if err != nil || !eof || len(entries) != 0 {
			t.Fatalf("entries=%d eof=%v err=%v", len(entries), eof, err)
		}
	})

	t.Run("FSStat", func(t *testing.T) {
		fs := mk(t)
		st, err := fs.FSStat(fs.Root())
		if err != nil {
			t.Fatal(err)
		}
		if st.TotalBytes == 0 {
			t.Fatal("zero capacity")
		}
	})

	t.Run("Commit", func(t *testing.T) {
		fs := mk(t)
		h, _, _ := fs.Create(fs.Root(), "c", SetAttr{}, false)
		fs.Write(h, 0, []byte("stable"))
		if err := fs.Commit(h); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("InvalidNames", func(t *testing.T) {
		fs := mk(t)
		for _, name := range []string{"", ".", "..", "a/b", string(make([]byte, 300))} {
			if _, _, err := fs.Create(fs.Root(), name, SetAttr{}, false); err == nil {
				t.Errorf("create %q succeeded", name)
			}
		}
	})
}

func TestMemFSConformance(t *testing.T) {
	conformance(t, func(t *testing.T) FS { return NewMemFS() })
}

// TestMemFSDotDot: in MemFS and OSFS alike, LOOKUP of ".." names the
// directory's parent, the root's is the root, and a directory renamed
// elsewhere has its new parent.
func TestMemFSDotDot(t *testing.T) {
	for name, newFS := range map[string]func(t *testing.T) FS{
		"memfs": func(*testing.T) FS { return NewMemFS() },
		"osfs": func(t *testing.T) FS {
			f, err := NewOSFS(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
	} {
		newFS := newFS
		t.Run(name, func(t *testing.T) {
			fs := newFS(t)
			root := fs.Root()
			a, _, err := fs.Mkdir(root, "a", SetAttr{})
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := fs.Mkdir(a, "b", SetAttr{})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				dir, want Handle
			}{{root, root}, {a, root}, {b, a}} {
				if h, _, err := fs.Lookup(c.dir, ".."); err != nil || h != c.want {
					t.Fatalf("LOOKUP ..: %x, %v; want %x", h, err, c.want)
				}
			}
			if err := fs.Rename(a, "b", root, "b"); err != nil {
				t.Fatal(err)
			}
			if h, _, err := fs.Lookup(b, ".."); err != nil || h != root {
				t.Fatalf("LOOKUP .. after the move: %x, %v; want the root", h, err)
			}
		})
	}
}

func TestOSFSConformance(t *testing.T) {
	conformance(t, func(t *testing.T) FS {
		f, err := NewOSFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return f
	})
}

func TestMemFSInodeReclaim(t *testing.T) {
	fs := NewMemFS()
	base := fs.NumInodes()
	h, _, _ := fs.Create(fs.Root(), "a", SetAttr{}, false)
	fs.Write(h, 0, []byte("x"))
	fs.Remove(fs.Root(), "a")
	if fs.NumInodes() != base {
		t.Fatalf("inode leaked: %d != %d", fs.NumInodes(), base)
	}
}

func TestOSFSRenameKeepsDescendantHandles(t *testing.T) {
	f, err := NewOSFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d, _, _ := f.Mkdir(f.Root(), "dir", SetAttr{})
	leaf, _, _ := f.Create(d, "leaf", SetAttr{}, false)
	f.Write(leaf, 0, []byte("v"))
	if err := f.Rename(f.Root(), "dir", f.Root(), "moved"); err != nil {
		t.Fatal(err)
	}
	// The leaf handle must still resolve under the renamed directory.
	if _, err := f.GetAttr(leaf); err != nil {
		t.Fatalf("descendant handle broken by rename: %v", err)
	}
	buf := make([]byte, 1)
	if n, _, err := f.Read(leaf, 0, buf); err != nil || n != 1 || buf[0] != 'v' {
		t.Fatalf("read after rename: n=%d err=%v", n, err)
	}
}

func TestCheckAccessOwner(t *testing.T) {
	attr := Attr{Type: TypeReg, Mode: 0640, UID: 100, GID: 10}
	all := uint32(AccessRead | AccessModify | AccessExtend | AccessDelete | AccessExecute)
	got := CheckAccess(attr, Creds{UID: 100, GID: 10}, all)
	if got&AccessRead == 0 || got&AccessModify == 0 {
		t.Fatalf("owner denied rw: %x", got)
	}
	if got&AccessExecute != 0 {
		t.Fatalf("owner granted execute on 0640: %x", got)
	}
}

func TestCheckAccessGroupAndOther(t *testing.T) {
	attr := Attr{Type: TypeReg, Mode: 0640, UID: 100, GID: 10}
	g := CheckAccess(attr, Creds{UID: 200, GID: 10}, AccessRead|AccessModify)
	if g != AccessRead {
		t.Fatalf("group got %x, want read only", g)
	}
	o := CheckAccess(attr, Creds{UID: 300, GID: 30}, AccessRead|AccessModify)
	if o != 0 {
		t.Fatalf("other got %x, want 0", o)
	}
	// Supplementary group membership counts.
	s := CheckAccess(attr, Creds{UID: 200, GID: 99, GIDs: []uint32{10}}, AccessRead)
	if s != AccessRead {
		t.Fatalf("supplementary group got %x", s)
	}
}

func TestCheckAccessRoot(t *testing.T) {
	attr := Attr{Type: TypeReg, Mode: 0, UID: 100, GID: 10}
	all := uint32(AccessRead | AccessModify)
	if got := CheckAccess(attr, Creds{UID: 0}, all); got != all {
		t.Fatalf("root got %x", got)
	}
}

func TestCheckAccessDirLookup(t *testing.T) {
	attr := Attr{Type: TypeDir, Mode: 0755, UID: 100, GID: 10}
	got := CheckAccess(attr, Creds{UID: 300, GID: 30}, AccessLookup|AccessRead)
	if got&AccessLookup == 0 {
		t.Fatalf("world-executable dir denied lookup: %x", got)
	}
}

// Property: a random sequence of writes and truncations to MemFS
// matches a reference byte-slice model; in particular, bytes a
// truncation cut off read as zeros once the file grows back over them.
func TestQuickMemFSWriteModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fs := NewMemFS()
		h, _, _ := fs.Create(fs.Root(), "model", SetAttr{}, false)
		var model []byte
		for i := 0; i < 20; i++ {
			if rng.Intn(4) == 0 {
				size := uint64(rng.Intn(len(model) + 1))
				if _, err := fs.SetAttr(h, SetAttr{Size: &size}); err != nil {
					return false
				}
				model = model[:size:size]
				continue
			}
			off := rng.Intn(4096)
			n := rng.Intn(512) + 1
			data := make([]byte, n)
			rng.Read(data)
			if err := fs.Write(h, uint64(off), data); err != nil {
				return false
			}
			if off+n > len(model) {
				grown := make([]byte, off+n)
				copy(grown, model)
				model = grown
			}
			copy(model[off:], data)
		}
		buf := make([]byte, len(model)+10)
		n, eof, err := fs.Read(h, 0, buf)
		if err != nil || !eof {
			return false
		}
		return bytes.Equal(buf[:n], model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: create/remove sequences never leak inodes in MemFS.
func TestQuickMemFSInodeBalance(t *testing.T) {
	f := func(names []string) bool {
		fs := NewMemFS()
		base := fs.NumInodes()
		created := map[string]bool{}
		for _, raw := range names {
			name := fmt.Sprintf("n%x", raw)
			if len(name) > 200 {
				name = name[:200]
			}
			if created[name] {
				fs.Remove(fs.Root(), name)
				delete(created, name)
			} else {
				if _, _, err := fs.Create(fs.Root(), name, SetAttr{}, true); err == nil {
					created[name] = true
				}
			}
		}
		for name := range created {
			fs.Remove(fs.Root(), name)
		}
		return fs.NumInodes() == base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

package proxy

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/nfs3"
	"repro/internal/vfs"
)

// The canonical namespace and handle translation. Backends are
// independent file systems with independent file handles, so the
// replica layer hands the VFS layer handles of its own and translates
// them per backend through lazy LOOKUP walks.

// nameEntry is one binding: a name in a directory, the directory given
// by its canonical key.
type nameEntry struct {
	parent string
	name   string
}

// canonNS is the canonical handle namespace shared by all backends. A
// canonical handle names one file for the proxy's lifetime. It is
// minted from (parent, name) the first time the proxy sees the name, so
// independent proxies agree on a fresh tree; RENAME moves the binding
// together with the file, and a name that REMOVE or RENAME freed gets a
// fresh handle when it is reused.
type canonNS struct {
	root nfs3.FH3

	mu      sync.Mutex
	entries map[string]nameEntry // canonical key -> its binding
	names   map[nameEntry]string // binding -> canonical key
	freed   uint64               // bindings freed so far; salts new keys
}

func newCanonNS() *canonNS {
	sum := sha256.Sum256([]byte("sgfs/replica/root"))
	return &canonNS{
		root:    nfs3.FH3{Data: sum[:16]},
		entries: make(map[string]nameEntry),
		names:   make(map[nameEntry]string),
	}
}

func (ns *canonNS) isRoot(fh nfs3.FH3) bool { return bytes.Equal(fh.Data, ns.root.Data) }

// child returns the canonical handle of dir/name, minting and binding
// one if the name has none. "." and ".." never mint: they resolve
// structurally.
func (ns *canonNS) child(dir nfs3.FH3, name string) nfs3.FH3 {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	switch name {
	case ".":
		return dir
	case "..":
		if e, ok := ns.entries[string(dir.Data)]; ok {
			return nfs3.FH3{Data: []byte(e.parent)}
		}
		return ns.root
	}
	e := nameEntry{parent: string(dir.Data), name: name}
	key, ok := ns.names[e]
	if !ok {
		h := sha256.New()
		h.Write(dir.Data)
		h.Write([]byte{0})
		h.Write([]byte(name))
		if ns.freed > 0 {
			var salt [8]byte
			binary.BigEndian.PutUint64(salt[:], ns.freed)
			h.Write(salt[:])
		}
		key = string(h.Sum(nil)[:16])
		ns.names[e] = key
		ns.entries[key] = e
	}
	return nfs3.FH3{Data: []byte(key)}
}

func (ns *canonNS) entry(key string) (nameEntry, bool) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	e, ok := ns.entries[key]
	return e, ok
}

// known reports whether fh still names a file: the root, or a handle
// whose binding has not been freed.
func (ns *canonNS) known(fh nfs3.FH3) bool {
	_, ok := ns.entry(string(fh.Data))
	return ok || ns.isRoot(fh)
}

// unbindLocked frees the binding e and forgets the handle bound to it,
// which it returns ("" when the proxy never saw the name).
func (ns *canonNS) unbindLocked(e nameEntry) string {
	key := ns.names[e]
	if key != "" {
		delete(ns.names, e)
		delete(ns.entries, key)
	}
	ns.freed++
	return key
}

// remove forgets dir/name after REMOVE or RMDIR and returns the handle
// it named.
func (ns *canonNS) remove(dir nfs3.FH3, name string) string {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.unbindLocked(nameEntry{string(dir.Data), name})
}

// rename moves the binding of from to to after RENAME: the moved file
// keeps its handle, now resolving via the new name, and the file it
// overwrote loses its handle, which rename returns.
func (ns *canonNS) rename(from, to nfs3.DirOpArgs) string {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	src, dst := nameEntry{string(from.Dir.Data), from.Name}, nameEntry{string(to.Dir.Data), to.Name}
	moved := ns.names[src]
	ns.unbindLocked(src)
	overwritten := ns.unbindLocked(dst)
	if moved != "" {
		ns.names[dst] = moved
		ns.entries[moved] = dst
	}
	return overwritten
}

// forget drops the per-backend translations of a handle the namespace
// freed.
func (rs *replicaSet) forget(key string) {
	if key == "" {
		return
	}
	for _, b := range rs.backs {
		b.mu.Lock()
		delete(b.fhs, key)
		b.mu.Unlock()
	}
}

// fileidOf derives a stable fileid from a canonical handle, so the
// local NFS client sees one inode number for a file no matter which
// backend answered.
func fileidOf(fh nfs3.FH3) uint64 {
	if len(fh.Data) >= 8 {
		return binary.BigEndian.Uint64(fh.Data[:8])
	}
	return 0
}

// replicaFSID is the synthetic fsid presented for replicated mounts;
// backends report their own fsids, which must not leak (they differ).
const replicaFSID = 0x5247 // "RG"

func canonFattr(a *nfs3.Fattr3, fh nfs3.FH3) {
	a.FileID = fileidOf(fh)
	a.FSID = replicaFSID
}

func canonPostOp(a *nfs3.PostOpAttr, fh nfs3.FH3) {
	if a.Present {
		canonFattr(&a.Attr, fh)
	}
}

func canonWcc(w *nfs3.WccData, fh nfs3.FH3) {
	canonPostOp(&w.After, fh)
}

func (b *replicaBackend) cacheFH(key string, fh nfs3.FH3) {
	b.mu.Lock()
	b.fhs[key] = fh
	b.mu.Unlock()
}

// resolveMode selects how resolve treats missing path components.
type resolveMode int

const (
	// resolveOnly fails on a missing component (read paths: a miss
	// means this backend diverged; fail over to another replica).
	resolveOnly resolveMode = iota
	// resolveCreateDirs materializes missing ancestors as directories
	// (write fan-out and repair heal namespace divergence lazily).
	resolveCreateDirs
	// resolveCreateFile additionally materializes a missing leaf as a
	// file via CREATE UNCHECKED (open-or-create: effectively
	// idempotent, so safe to re-issue).
	resolveCreateFile
)

// xlate translates the canonical handles of one call into one backend's
// handles. The first failure sticks; later handles translate to the
// zero handle.
type xlate struct {
	ctx  context.Context
	b    *replicaBackend
	mode resolveMode
	err  error
}

func (x *xlate) fh(c nfs3.FH3) nfs3.FH3 {
	if x.err != nil {
		return nfs3.FH3{}
	}
	h, err := x.b.resolve(x.ctx, c, x.mode)
	x.err = err
	return h
}

// resolve translates a canonical handle into this backend's handle,
// walking LOOKUPs from the nearest cached ancestor and optionally
// creating missing components.
func (b *replicaBackend) resolve(ctx context.Context, fh nfs3.FH3, mode resolveMode) (nfs3.FH3, error) {
	ns := b.set.ns
	if ns.isRoot(fh) {
		root := b.sess.exportRoot()
		if len(root.Data) == 0 {
			// No connection yet: a call makes the session establish one,
			// which records the root.
			if err := b.call(ctx, nfs3.ProcNull, nil, nil); err != nil {
				return nfs3.FH3{}, err
			}
			root = b.sess.exportRoot()
		}
		return root, nil
	}
	key := string(fh.Data)
	b.mu.Lock()
	cached, ok := b.fhs[key]
	b.mu.Unlock()
	if ok {
		return cached, nil
	}
	ent, ok := ns.entry(key)
	if !ok {
		return nfs3.FH3{}, fmt.Errorf("proxy: backend %d: unknown canonical handle: %w", b.id, vfs.ErrStale)
	}
	parentMode := resolveOnly
	if mode != resolveOnly {
		parentMode = resolveCreateDirs
	}
	parent, err := b.resolve(ctx, nfs3.FH3{Data: []byte(ent.parent)}, parentMode)
	if err != nil {
		return nfs3.FH3{}, err
	}
	where := nfs3.DirOpArgs{Dir: parent, Name: ent.name}
	for created := false; ; created = true {
		var res nfs3.LookupRes
		if err := b.call(ctx, nfs3.ProcLookup, &nfs3.LookupArgs{What: where}, &res); err != nil {
			return nfs3.FH3{}, err
		}
		if res.Status == nfs3.OK {
			b.cacheFH(key, res.Obj)
			return res.Obj, nil
		}
		if created || res.Status != nfs3.Status(vfs.ErrNoEnt) || mode == resolveOnly {
			return nfs3.FH3{}, fmt.Errorf("proxy: backend %d: resolve %q: %w", b.id, ent.name, vfs.Errno(res.Status))
		}
		// Missing on this backend: materialize it (lazy divergence heal).
		// Losing a creation race (or EXIST) leaves the entry there for
		// the next lookup.
		var cres nfs3.CreateRes
		if mode == resolveCreateDirs {
			args := &nfs3.MkdirArgs{Where: where, Attr: nfs3.Sattr3{SetMode: true, Mode: 0o755}}
			err = b.call(ctx, nfs3.ProcMkdir, args, &cres)
		} else {
			args := &nfs3.CreateArgs{Where: where, Mode: nfs3.CreateUnchecked, Attr: nfs3.Sattr3{SetMode: true, Mode: 0o644}}
			err = b.call(ctx, nfs3.ProcCreate, args, &cres)
		}
		if err != nil {
			return nfs3.FH3{}, err
		}
		if cres.Status == nfs3.OK && cres.Obj.Present {
			b.cacheFH(key, cres.Obj.FH)
			return cres.Obj.FH, nil
		}
	}
}

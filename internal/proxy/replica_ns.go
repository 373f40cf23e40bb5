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

// nameEntry is one name in a directory given by its canonical key.
type nameEntry struct{ parent, name string }

// binding is where a handle's file is named, from log position bound
// on and, once REMOVE or RENAME freed it, up to freed: only an entry in
// between may resolve the handle by walking the name.
type binding struct {
	nameEntry
	bound, freed uint64
}

// canonNS is the canonical handle namespace shared by all backends. A
// canonical handle names one file for the proxy's lifetime. It is
// minted from (parent, name) the first time the proxy sees the name, so
// independent proxies agree on a fresh tree; RENAME moves the binding
// together with the file, and a name that REMOVE or RENAME freed gets a
// fresh handle when it is reused. A freed binding stays, for backends
// that replay entries before it, until the log trims the entry that
// freed it.
type canonNS struct {
	root nfs3.FH3

	mu      sync.Mutex
	entries map[string]binding   // canonical key -> its binding
	names   map[nameEntry]string // live binding -> canonical key
	nfreed  uint64               // bindings freed so far; salts new keys
	freed   []string             // freed keys still in entries, in log order
}

func newCanonNS() *canonNS {
	sum := sha256.Sum256([]byte("sgfs/replica/root"))
	return &canonNS{
		root:    nfs3.FH3{Data: sum[:16]},
		entries: make(map[string]binding),
		names:   make(map[nameEntry]string),
	}
}

func (ns *canonNS) isRoot(fh nfs3.FH3) bool { return bytes.Equal(fh.Data, ns.root.Data) }

// child returns the canonical handle of dir/name, minting one bound at
// log position seq if the name has none (0: a name that was there
// before the log). "." and ".." never mint: they resolve structurally.
func (ns *canonNS) child(dir nfs3.FH3, name string, seq uint64) nfs3.FH3 {
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
		if ns.nfreed > 0 {
			var salt [8]byte
			binary.BigEndian.PutUint64(salt[:], ns.nfreed)
			h.Write(salt[:])
		}
		key = string(h.Sum(nil)[:16])
		ns.names[e] = key
		ns.entries[key] = binding{nameEntry: e, bound: seq}
	}
	return nfs3.FH3{Data: []byte(key)}
}

func (ns *canonNS) entry(key string) (binding, bool) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	e, ok := ns.entries[key]
	return e, ok
}

// known reports whether fh still names a file: the root, or a handle
// whose binding has not been freed.
func (ns *canonNS) known(fh nfs3.FH3) bool {
	e, ok := ns.entry(string(fh.Data))
	return ok && e.freed == 0 || ns.isRoot(fh)
}

// unbindLocked frees the binding e at log position seq and returns the
// handle bound to it ("" when the proxy never saw the name).
func (ns *canonNS) unbindLocked(e nameEntry, seq uint64) string {
	key := ns.names[e]
	if key != "" {
		delete(ns.names, e)
		b := ns.entries[key]
		b.freed = seq
		ns.entries[key] = b
		ns.freed = append(ns.freed, key)
	}
	ns.nfreed++
	return key
}

// remove frees dir/name after REMOVE or RMDIR at seq and returns the
// handle it named.
func (ns *canonNS) remove(dir nfs3.FH3, name string, seq uint64) string {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.unbindLocked(nameEntry{string(dir.Data), name}, seq)
}

// rename moves the binding of from to to after RENAME at seq: the moved
// file keeps its handle, now resolving via the new name from seq on,
// and the file it overwrote loses its handle, which rename returns.
func (ns *canonNS) rename(from, to nfs3.DirOpArgs, seq uint64) string {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	src, dst := nameEntry{string(from.Dir.Data), from.Name}, nameEntry{string(to.Dir.Data), to.Name}
	moved := ns.names[src]
	delete(ns.names, src)
	ns.nfreed++
	overwritten := ns.unbindLocked(dst, seq)
	if moved != "" {
		ns.names[dst] = moved
		ns.entries[moved] = binding{nameEntry: dst, bound: seq}
	}
	return overwritten
}

// dropFreed forgets for good the handles freed before log position
// keep, which no entry left in the log can name, and returns them.
func (ns *canonNS) dropFreed(keep uint64) []string {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	n := 0
	for n < len(ns.freed) && ns.entries[ns.freed[n]].freed < keep {
		delete(ns.entries, ns.freed[n])
		n++
	}
	gone := ns.freed[:n]
	ns.freed = ns.freed[n:]
	return gone
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

func canonWcc(w *nfs3.WccData, fh nfs3.FH3) { canonPostOp(&w.After, fh) }

func (b *replicaBackend) cacheFH(key string, fh nfs3.FH3) {
	b.mu.Lock()
	b.fhs[key] = fh
	b.mu.Unlock()
}

// xlate translates the canonical handles of one call into one backend's
// handles, as of log position at. The first failure sticks; later
// handles translate to the zero handle.
type xlate struct {
	ctx context.Context
	b   *replicaBackend
	at  uint64
	err error
}

func (x *xlate) fh(c nfs3.FH3) nfs3.FH3 {
	if x.err != nil {
		return nfs3.FH3{}
	}
	h, err := x.b.resolve(x.ctx, c, x.at)
	x.err = err
	return h
}

// resolve translates a canonical handle into this backend's handle for
// an entry at log position at: from the translations the backend
// recorded, or else by LOOKUPs from the nearest translated ancestor
// along names bound before at — the names the backend holds once it
// applied every entry before at. A name bound later, or missing on the
// backend, fails with errUnresolvable; nothing is created.
func (b *replicaBackend) resolve(ctx context.Context, fh nfs3.FH3, at uint64) (nfs3.FH3, error) {
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
	if !ok || ent.bound >= at || ent.freed != 0 && ent.freed < at {
		return nfs3.FH3{}, fmt.Errorf("%w: backend %d: no name for the handle at entry %d: %w", errUnresolvable, b.id, at, vfs.ErrStale)
	}
	parent, err := b.resolve(ctx, nfs3.FH3{Data: []byte(ent.parent)}, at)
	if err != nil {
		return nfs3.FH3{}, err
	}
	var res nfs3.LookupRes
	if err := b.call(ctx, nfs3.ProcLookup, &nfs3.LookupArgs{What: nfs3.DirOpArgs{Dir: parent, Name: ent.name}}, &res); err != nil {
		return nfs3.FH3{}, err
	}
	if res.Status != nfs3.OK {
		return nfs3.FH3{}, fmt.Errorf("%w: backend %d: resolve %q: %w", errUnresolvable, b.id, ent.name, vfs.Errno(res.Status))
	}
	b.cacheFH(key, res.Obj)
	return res.Obj, nil
}

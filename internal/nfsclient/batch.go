// Batched metadata operations: the serial walk/stat loops of fs.go
// fanned out as concurrent blocking calls on the one connection, so a
// metadata storm pays per-RTT cost once per round instead of once per
// file. The three entry points mirror the kernel-client patterns the
// paper's workloads hit hardest: BatchStat ("ls -l" / untar stat
// storms), ReadDirStat (readdir+stat with attribute fill), and
// Revalidate (parallel GETATTR freshness sweeps over cached state).
package nfsclient

import (
	"context"

	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/singleflight"
)

// StatResult is one path's outcome from BatchStat.
type StatResult struct {
	Path string
	Attr nfs3.Fattr3
	Err  error
}

// walkEntry is one path's resolution state inside walkMany.
type walkEntry struct {
	parts []string
	depth int // components resolved so far
	cur   nfs3.FH3
	err   error
}

// roundLookup is one deduplicated (dir, name) LOOKUP of a walkMany
// round, with the walk entries waiting on it.
type roundLookup struct {
	dir  nfs3.FH3
	name string
	obj  nfs3.FH3
	attr nfs3.Fattr3
	err  error
	idxs []int
}

// walkMany resolves many paths level-synchronously: each round
// advances every path through the name cache as far as it goes, then
// issues the round's cache misses as concurrent LOOKUPs — one per
// distinct (directory, name) pair, shared by every path waiting on
// it. Components within one path still resolve in order (a child
// LOOKUP needs its parent's handle — that dependency is why only
// cross-path pipelining is safe), so a storm of depth-d paths costs
// ~d rounds instead of sum-of-components round trips.
func (fs *FileSystem) walkMany(ctx context.Context, paths []string) []walkEntry {
	ws := make([]walkEntry, len(paths))
	for i, p := range paths {
		ws[i] = walkEntry{parts: splitPath(p), cur: fs.root}
	}
	for {
		uniq := make(map[string]int)
		var ls []roundLookup
		for i := range ws {
			w := &ws[i]
			if w.err != nil {
				continue
			}
			for w.depth < len(w.parts) {
				fh, ok := fs.names.Get(w.cur, w.parts[w.depth])
				if !ok {
					break
				}
				w.cur = fh
				w.depth++
			}
			if w.depth == len(w.parts) {
				continue
			}
			name := w.parts[w.depth]
			k := fhKey(w.cur) + "\x00" + name
			j, ok := uniq[k]
			if !ok {
				j = len(ls)
				uniq[k] = j
				ls = append(ls, roundLookup{dir: w.cur, name: name})
			}
			ls[j].idxs = append(ls[j].idxs, i)
		}
		if len(ls) == 0 {
			return ws
		}
		singleflight.Each(len(ls), oncrpc.GatherDepth, func(j int) {
			l := &ls[j]
			l.obj, l.attr, l.err = fs.proto.Lookup(ctx, l.dir, l.name)
		})
		for j := range ls {
			l := &ls[j]
			if l.err == nil {
				fs.names.Put(l.dir, l.name, l.obj)
				fs.attrs.Put(l.obj, l.attr)
			}
			for _, i := range l.idxs {
				if l.err != nil {
					ws[i].err = l.err
					continue
				}
				ws[i].cur = l.obj
				ws[i].depth++
			}
		}
	}
}

// gatherAttrs fetches attributes for the handles in fhs concurrently
// (deduplicated by handle) and hands each result to apply, which runs
// on the calling goroutine once the gather is complete. Fetched
// attributes are entered into the attribute cache.
func (fs *FileSystem) gatherAttrs(ctx context.Context, fhs []nfs3.FH3, apply func(i int, attr nfs3.Fattr3, err error)) {
	type fetch struct {
		fh   nfs3.FH3
		attr nfs3.Fattr3
		err  error
		idxs []int
	}
	uniq := make(map[string]int)
	var fetches []fetch
	for i, fh := range fhs {
		k := fhKey(fh)
		j, ok := uniq[k]
		if !ok {
			j = len(fetches)
			uniq[k] = j
			fetches = append(fetches, fetch{fh: fh})
		}
		fetches[j].idxs = append(fetches[j].idxs, i)
	}
	singleflight.Each(len(fetches), oncrpc.GatherDepth, func(j int) {
		f := &fetches[j]
		f.attr, f.err = fs.proto.GetAttr(ctx, f.fh)
	})
	for j := range fetches {
		f := &fetches[j]
		if f.err == nil {
			fs.attrs.Put(f.fh, f.attr)
		}
		for _, i := range f.idxs {
			apply(i, f.attr, f.err)
		}
	}
}

// BatchStat stats every path concurrently: a level-synchronous walk
// resolves the handles, then one GETATTR per distinct uncached handle
// joins the fan-out. Results are positional; each carries its own
// error (a missing file fails only its slot). Serial Stat costs 2
// round trips per file on a cold cache; BatchStat costs ~(depth+1)
// rounds for the whole set.
func (fs *FileSystem) BatchStat(ctx context.Context, paths []string) []StatResult {
	out := make([]StatResult, len(paths))
	ws := fs.walkMany(ctx, paths)
	var fhs []nfs3.FH3
	var slots []int
	for i := range ws {
		out[i].Path = paths[i]
		if ws[i].err != nil {
			out[i].Err = ws[i].err
			continue
		}
		if a, ok := fs.attrs.Get(ws[i].cur); ok {
			out[i].Attr = a
			continue
		}
		fhs = append(fhs, ws[i].cur)
		slots = append(slots, i)
	}
	fs.gatherAttrs(ctx, fhs, func(i int, attr nfs3.Fattr3, err error) {
		if err != nil {
			out[slots[i]].Err = err
			return
		}
		out[slots[i]].Attr = attr
	})
	return out
}

// ReadDirStat lists path like ReadDir but guarantees attributes on
// every entry that has a file handle: entries the server returned
// without post-op attributes are filled from the attribute cache or
// by concurrent GETATTRs — the readdir+stat storm as one listing plus
// one round instead of one round trip per entry.
func (fs *FileSystem) ReadDirStat(ctx context.Context, path string) ([]nfs3.DirEntryPlus, error) {
	entries, err := fs.ReadDir(ctx, path)
	if err != nil {
		return nil, err
	}
	var fhs []nfs3.FH3
	var slots []int
	for i := range entries {
		e := &entries[i]
		if e.Attr.Present || !e.FH.Present {
			continue
		}
		if a, ok := fs.attrs.Get(e.FH.FH); ok {
			e.Attr = nfs3.PostOpAttr{Present: true, Attr: a}
			continue
		}
		fhs = append(fhs, e.FH.FH)
		slots = append(slots, i)
	}
	var firstErr error
	fs.gatherAttrs(ctx, fhs, func(i int, attr nfs3.Fattr3, err error) {
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		entries[slots[i]].Attr = nfs3.PostOpAttr{Present: true, Attr: attr}
	})
	return entries, firstErr
}

// Revalidate refreshes the attributes of every given path with
// concurrent GETATTRs, bypassing the attribute cache (this is the
// freshness sweep, so cached entries are what is being checked). A
// file whose (mtime, size) moved since its pages were populated has
// those pages dropped, exactly like close-to-open revalidation at
// Open. It returns how many files had changed and the first error
// encountered (remaining paths are still processed).
func (fs *FileSystem) Revalidate(ctx context.Context, paths []string) (changed int, err error) {
	ws := fs.walkMany(ctx, paths)
	var fhs []nfs3.FH3
	for i := range ws {
		if ws[i].err != nil {
			if err == nil {
				err = ws[i].err
			}
			continue
		}
		fhs = append(fhs, ws[i].cur)
	}
	fs.gatherAttrs(ctx, fhs, func(i int, attr nfs3.Fattr3, aerr error) {
		if aerr != nil {
			if err == nil {
				err = aerr
			}
			return
		}
		fh := fhs[i]
		key := fhKey(fh)
		cur := fileVersion{mtime: attr.Mtime, size: attr.Size}
		fs.verMu.Lock()
		prev, seen := fs.versions[key]
		stale := seen && prev != cur
		if seen {
			fs.versions[key] = cur
		}
		fs.verMu.Unlock()
		if stale {
			fs.dropPages(fh)
			changed++
		}
	})
	return changed, err
}

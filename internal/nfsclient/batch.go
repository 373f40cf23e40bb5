// Batched metadata: readdir+stat with the attribute fill fanned out
// as concurrent blocking calls on the one connection, so a listing
// pays one round trip for its missing attributes instead of one per
// file.
package nfsclient

import (
	"context"

	"repro/internal/nfs3"
	"repro/internal/oncrpc"
	"repro/internal/singleflight"
)

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

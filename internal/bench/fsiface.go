// Package bench contains the evaluation harness of the reproduction:
// the IOzone, PostMark, Modified Andrew Benchmark and Seismic workload
// generators, stack builders for every file system setup the paper
// compares (nfs-v3, nfs-v4, gfs, sgfs-{sha,rc,aes}, gfs-ssh, sfs),
// WAN emulation plumbing, and the statistics helpers used to report
// results in the paper's format.
package bench

import (
	"context"
	"io"

	"repro/internal/nfs4"
	"repro/internal/nfsclient"
)

// FS is the file system interface the workloads program against. It
// abstracts over the NFSv3 client stack and the NFSv4 client.
type FS interface {
	Create(ctx context.Context, path string) (File, error)
	Open(ctx context.Context, path string) (File, error)
	Stat(ctx context.Context, path string) (size uint64, isDir bool, err error)
	Mkdir(ctx context.Context, path string) error
	Remove(ctx context.Context, path string) error
	Rmdir(ctx context.Context, path string) error
	Rename(ctx context.Context, oldPath, newPath string) error
	ReadDir(ctx context.Context, path string) ([]string, error)
}

// File is an open file.
type File interface {
	ReadAt(ctx context.Context, p []byte, off int64) (int, error)
	WriteAt(ctx context.Context, p []byte, off int64) (int, error)
	Size() int64
	Close(ctx context.Context) error
}

// --- NFSv3 adapter ----------------------------------------------------

// V3FS adapts nfsclient.FileSystem to the workload interface.
type V3FS struct{ FS *nfsclient.FileSystem }

// Create implements FS.
func (f V3FS) Create(ctx context.Context, path string) (File, error) {
	file, err := f.FS.Create(ctx, path, 0644)
	if err != nil {
		return nil, err
	}
	return eofFile{file}, nil
}

// Open implements FS.
func (f V3FS) Open(ctx context.Context, path string) (File, error) {
	file, err := f.FS.Open(ctx, path)
	if err != nil {
		return nil, err
	}
	return eofFile{file}, nil
}

// Stat implements FS.
func (f V3FS) Stat(ctx context.Context, path string) (uint64, bool, error) {
	attr, err := f.FS.Stat(ctx, path)
	if err != nil {
		return 0, false, err
	}
	return attr.Size, attr.Type == 2, nil
}

// Mkdir implements FS.
func (f V3FS) Mkdir(ctx context.Context, path string) error { return f.FS.Mkdir(ctx, path, 0755) }

// Remove implements FS.
func (f V3FS) Remove(ctx context.Context, path string) error { return f.FS.Remove(ctx, path) }

// Rmdir implements FS.
func (f V3FS) Rmdir(ctx context.Context, path string) error { return f.FS.Rmdir(ctx, path) }

// Rename implements FS.
func (f V3FS) Rename(ctx context.Context, oldPath, newPath string) error {
	return f.FS.Rename(ctx, oldPath, newPath)
}

// ReadDir implements FS.
func (f V3FS) ReadDir(ctx context.Context, path string) ([]string, error) {
	entries, err := f.FS.ReadDir(ctx, path)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name)
	}
	return names, nil
}

// eofFile reports io.EOF only with a read that returns nothing, as the
// workloads expect of either client.
type eofFile struct{ File }

func (v eofFile) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	n, err := v.File.ReadAt(ctx, p, off)
	if err == io.EOF && n > 0 {
		err = nil
	}
	return n, err
}

// --- NFSv4 adapter ----------------------------------------------------

// V4FS adapts the nfs4 client.
type V4FS struct{ C *nfs4.Client }

// Create implements FS.
func (f V4FS) Create(ctx context.Context, path string) (File, error) {
	file, err := f.C.OpenFile(ctx, path, true, true, false)
	if err != nil {
		return nil, err
	}
	return eofFile{file}, nil
}

// Open implements FS.
func (f V4FS) Open(ctx context.Context, path string) (File, error) {
	file, err := f.C.OpenFile(ctx, path, false, false, false)
	if err != nil {
		return nil, err
	}
	return eofFile{file}, nil
}

// Stat implements FS.
func (f V4FS) Stat(ctx context.Context, path string) (uint64, bool, error) {
	attr, err := f.C.Stat(ctx, path)
	if err != nil {
		return 0, false, err
	}
	return attr.Size, attr.Type == 2, nil
}

// Mkdir implements FS.
func (f V4FS) Mkdir(ctx context.Context, path string) error { return f.C.Mkdir(ctx, path, 0755) }

// Remove implements FS.
func (f V4FS) Remove(ctx context.Context, path string) error { return f.C.Remove(ctx, path) }

// Rmdir implements FS.
func (f V4FS) Rmdir(ctx context.Context, path string) error { return f.C.Remove(ctx, path) }

// Rename implements FS.
func (f V4FS) Rename(ctx context.Context, oldPath, newPath string) error {
	return f.C.Rename(ctx, oldPath, newPath)
}

// ReadDir implements FS.
func (f V4FS) ReadDir(ctx context.Context, path string) ([]string, error) {
	entries, err := f.C.ReadDir(ctx, path)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name)
	}
	return names, nil
}

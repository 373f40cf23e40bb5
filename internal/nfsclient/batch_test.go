package nfsclient

import (
	"context"
	"fmt"
	"testing"
)

// seedTree creates d1/d2/f0..f(n-1) plus a top-level root.txt through
// fs and returns the deep paths.
func seedTree(t *testing.T, fs *FileSystem, n int) []string {
	t.Helper()
	ctx := context.Background()
	if err := fs.MkdirAll(ctx, "d1/d2", 0755); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, n)
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("d1/d2/f%d", i)
		f, err := fs.Create(ctx, p, 0644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(ctx, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(ctx); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

func TestReadDirStat(t *testing.T) {
	dial, _ := startServer(t)
	seedTree(t, mountFS(t, dial, Options{}), 6)

	fs := mountFS(t, dial, Options{})
	ctx := context.Background()
	entries, err := fs.ReadDirStat(ctx, "d1/d2")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 6 {
		t.Fatalf("got %d entries", len(entries))
	}
	for _, e := range entries {
		if !e.Attr.Present {
			t.Fatalf("%s: no attributes after ReadDirStat", e.Name)
		}
		var i int
		if _, err := fmt.Sscanf(e.Name, "f%d", &i); err != nil {
			t.Fatalf("unexpected entry %q", e.Name)
		}
		if want := uint64(len(fmt.Sprintf("payload-%d", i))); e.Attr.Attr.Size != want {
			t.Fatalf("%s: size %d want %d", e.Name, e.Attr.Attr.Size, want)
		}
	}
}

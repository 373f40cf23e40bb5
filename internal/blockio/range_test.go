package blockio

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/nfs3"
)

// serverSource is a Source over a Cache and a server file held as
// blocks of testBlockSize bytes. Every FetchBlock is counted and, when
// gate is set, announced on started and held until the gate opens after
// it has read the server's bytes.
type serverSource struct {
	*Cache
	server  map[uint64]string
	gate    chan struct{}
	started chan uint64

	mu      sync.Mutex
	fetches int
}

func (s *serverSource) FetchBlock(ctx context.Context, fh nfs3.FH3, idx uint64, fill Fill) ([]byte, error) {
	s.mu.Lock()
	s.fetches++
	data := []byte(s.server[idx])
	s.mu.Unlock()
	if s.gate != nil {
		s.started <- idx
		<-s.gate
	}
	s.Fill(string(fh.Data), idx, data, fill)
	return data, nil
}

func (s *serverSource) put(fh nfs3.FH3) func(uint64, []byte) error {
	return func(idx uint64, block []byte) error {
		s.Put(string(fh.Data), idx, block, true)
		return nil
	}
}

// TestReaderRangePath: ReadAt and WriteAt map a byte range onto
// blocks. A read zero-fills holes and short blocks; a write merges each
// block over the copy held locally, else over the server's copy when it
// covers part of a block below size, else over nothing.
func TestReaderRangePath(t *testing.T) {
	t.Parallel()
	full := map[uint64]string{0: "abcdefgh", 1: "ijklmnop", 2: "qrstuvwx"}
	cases := []struct {
		name    string
		server  map[uint64]string
		held    map[uint64]string // blocks the cache holds before the call
		size    uint64
		off     uint64
		read    int               // bytes to read; 0 means write
		write   string            // the bytes written
		want    string            // the bytes read
		puts    map[uint64]string // the blocks the write hands to put
		fetches int
	}{
		{name: "hole", server: map[uint64]string{0: "abcdefgh"}, size: 20, off: 4, read: 12,
			want: "efgh" + strings.Repeat("\x00", 8), fetches: 2},
		{name: "block cached at an earlier, shorter EOF", server: full, held: map[uint64]string{1: "ijk"},
			size: 16, off: 6, read: 10, want: "ghijk" + strings.Repeat("\x00", 5), fetches: 1},
		{name: "read clipped to size", server: full, size: 10, off: 6, read: 8, want: "ghij", fetches: 2},
		{name: "unaligned write spanning three blocks", server: full, size: 24, off: 5, write: "0123456789ABCD",
			puts: map[uint64]string{0: "abcde012", 1: "3456789A", 2: "BCDtuvwx"}, fetches: 2},
		{name: "write past EOF leaves a hole", server: map[uint64]string{0: "abcd"}, size: 4, off: 20, write: "XY",
			puts: map[uint64]string{2: "\x00\x00\x00\x00XY"}},
		{name: "whole-block overwrite", server: full, size: 24, off: 8, write: "01234567",
			puts: map[uint64]string{1: "01234567"}},
		{name: "partial block below size", server: full, size: 24, off: 9, write: "Z",
			puts: map[uint64]string{1: "iZklmnop"}, fetches: 1},
		{name: "partial block past size", server: full, size: 16, off: 17, write: "Z",
			puts: map[uint64]string{2: "\x00Z"}},
		{name: "partial block held locally", server: full, held: map[uint64]string{1: "IJKLMNOP"}, size: 24, off: 9, write: "Z",
			puts: map[uint64]string{1: "IZKLMNOP"}},
	}
	fh := nfs3.FH3{Data: []byte("f")}
	for _, tc := range cases {
		src := &serverSource{Cache: NewCache(1 << 20), server: tc.server}
		for idx, data := range tc.held {
			src.Put("f", idx, []byte(data), false)
		}
		r := NewReader(src, testBlockSize, -1, time.Minute)
		ctx := context.Background()
		if tc.read > 0 {
			p := make([]byte, tc.read)
			n, err := r.ReadAt(ctx, fh, p, tc.off, tc.size)
			if err != nil || string(p[:n]) != tc.want {
				t.Errorf("%s: read %q, %v; want %q", tc.name, p[:n], err, tc.want)
			}
		} else {
			puts := map[uint64]string{}
			n, err := r.WriteAt(ctx, fh, []byte(tc.write), tc.off, tc.size, func(idx uint64, block []byte) error {
				puts[idx] = string(block)
				return nil
			})
			if err != nil || n != len(tc.write) {
				t.Errorf("%s: wrote %d, %v", tc.name, n, err)
			}
			if len(puts) != len(tc.puts) {
				t.Errorf("%s: put %q, want %q", tc.name, puts, tc.puts)
			}
			for idx, want := range tc.puts {
				if puts[idx] != want {
					t.Errorf("%s: block %d put as %q, want %q", tc.name, idx, puts[idx], want)
				}
			}
		}
		if src.fetches != tc.fetches {
			t.Errorf("%s: %d fetches, want %d", tc.name, src.fetches, tc.fetches)
		}
		r.Close()
	}
}

// TestCacheFillLosesToWrite: a block fetched before a write to its
// file began is not stored, in flight across the whole write or landing
// while it runs, and a fill never replaces a block the cache holds.
func TestCacheFillLosesToWrite(t *testing.T) {
	t.Parallel()
	fh := nfs3.FH3{Data: []byte("f")}
	src := &serverSource{Cache: NewCache(1 << 20), server: map[uint64]string{0: "abcdefgh", 1: "ijklmnop"},
		gate: make(chan struct{}), started: make(chan uint64, 1)}
	r := NewReader(src, testBlockSize, 1, time.Minute)
	defer r.Close()
	ctx := context.Background()

	r.Advance(fh, 0, 2) // prefetches block 1, held after it read the server
	<-src.started
	if _, err := r.WriteAt(ctx, fh, []byte("NNNNNNNN"), 8, 16, src.put(fh)); err != nil {
		t.Fatal(err)
	}
	src.gate <- struct{}{}
	r.Close() // the prefetch has landed, or been refused
	if got, _ := src.Get("f", 1); string(got) != "NNNNNNNN" {
		t.Fatalf("block 1 holds %q after a prefetch in flight across its write", got)
	}
	if dirty := src.DirtyList(fh); len(dirty) != 1 || dirty[0] != 1 {
		t.Fatalf("dirty blocks %v, want the write's", dirty)
	}

	// The same with a fetch that lands while the write still runs.
	src.Drop("f", 1)
	r2 := NewReader(src, testBlockSize, -1, time.Minute)
	defer r2.Close()
	done := make(chan error, 1)
	go func() {
		_, err := r2.Read(ctx, fh, 1)
		done <- err
	}()
	<-src.started
	_, err := r2.WriteAt(ctx, fh, []byte("MMMMMMMM"), 8, 16, func(idx uint64, block []byte) error {
		src.gate <- struct{}{} // the fill lands between the merge and the put
		if err := <-done; err != nil {
			return err
		}
		return src.put(fh)(idx, block)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := src.Get("f", 1); string(got) != "MMMMMMMM" {
		t.Fatalf("block 1 holds %q after a fill that landed during its write", got)
	}

	// A fill over a held block is refused whatever its generation.
	src.Fill("f", 1, []byte("stale"), Fill{})
	if got, _ := src.Get("f", 1); string(got) != "MMMMMMMM" {
		t.Fatalf("a fill replaced the held block with %q", got)
	}
}

// TestCacheFillLosesToForget: a fetch in flight when its file is
// forgotten (dropped or truncated) stores nothing; one begun afterwards
// does.
func TestCacheFillLosesToForget(t *testing.T) {
	t.Parallel()
	fh := nfs3.FH3{Data: []byte("f")}
	src := &serverSource{Cache: NewCache(1 << 20), server: map[uint64]string{1: "ijklmnop"},
		gate: make(chan struct{}), started: make(chan uint64, 1)}
	r := NewReader(src, testBlockSize, -1, time.Minute)
	defer r.Close()
	done := make(chan error, 1)
	go func() {
		_, err := r.Fetch(context.Background(), fh, 1, false)
		done <- err
	}()
	<-src.started
	r.Forget(fh)
	src.DropFile("f")
	close(src.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got, ok := src.Get("f", 1); ok {
		t.Fatalf("a fetch in flight across a drop stored %q", got)
	}
	if _, err := r.Fetch(context.Background(), fh, 1, false); err != nil {
		t.Fatal(err)
	}
	if got, _ := src.Get("f", 1); !bytes.Equal(got, []byte("ijklmnop")) {
		t.Fatalf("a fetch after the drop stored %q", got)
	}
	if n := len(r.gens); n != 0 {
		t.Errorf("%d files tracked with nothing in flight", n)
	}
}

// TestFetchSkipsFlightOlderThanWrite: a fetch that began before a write
// ended, here a readahead of block 1, still in flight after the write
// went through to the server, must not hand its bytes to a fetch that
// began after the write: that one fetches again.
func TestFetchSkipsFlightOlderThanWrite(t *testing.T) {
	t.Parallel()
	fh := nfs3.FH3{Data: []byte("f")}
	src := &serverSource{Cache: NewCache(1 << 20), server: map[uint64]string{0: "abcdefgh", 1: "ijklmnop"},
		gate: make(chan struct{}), started: make(chan uint64, 2)}
	r := NewReader(src, testBlockSize, 1, time.Minute)
	defer r.Close()
	ctx := context.Background()
	r.Advance(fh, 0, 2)
	<-src.started
	_, err := r.WriteAt(ctx, fh, []byte("NNNNNNNN"), 8, 16, func(idx uint64, block []byte) error {
		src.mu.Lock()
		src.server[idx] = string(block) // written through, not held
		src.mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []byte, 1)
	go func() {
		data, _ := r.Fetch(ctx, fh, 1, false)
		done <- data
	}()
	time.Sleep(50 * time.Millisecond) // the demand fetch parks on the readahead's flight
	src.gate <- struct{}{}            // the readahead lands
	select {
	case got := <-done:
		t.Fatalf("a fetch after the write returned %q, read before it", got)
	case <-src.started: // the demand fetch goes upstream again
	}
	src.gate <- struct{}{}
	if got := <-done; string(got) != "NNNNNNNN" {
		t.Fatalf("a fetch after the write returned %q", got)
	}
}

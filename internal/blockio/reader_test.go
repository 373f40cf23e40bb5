package blockio

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/nfs3"
)

// fakeSource is a Source over a map: every FetchBlock is counted per
// (file, block) and, when gate is set, held until the gate opens.
type fakeSource struct {
	gate chan struct{}

	mu      sync.Mutex
	store   map[string][]byte
	fetches map[string]int
	started chan string // receives the key of each FetchBlock, if non-nil
}

func newFakeSource() *fakeSource {
	return &fakeSource{store: map[string][]byte{}, fetches: map[string]int{}}
}

// testBlockSize is the block size the tests' Readers are built with.
const testBlockSize = 8

func blockName(fh nfs3.FH3, idx uint64) string { return fmt.Sprintf("%s/%d", fh.Data, idx) }

func (s *fakeSource) Contains(fh nfs3.FH3, idx uint64) bool {
	_, ok := s.GetBlock(fh, idx)
	return ok
}

func (s *fakeSource) GetBlock(fh nfs3.FH3, idx uint64) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.store[blockName(fh, idx)]
	return data, ok
}

func (s *fakeSource) FetchBlock(ctx context.Context, fh nfs3.FH3, idx uint64, _ Fill) ([]byte, error) {
	key := blockName(fh, idx)
	s.mu.Lock()
	s.fetches[key]++
	s.mu.Unlock()
	if s.started != nil {
		s.started <- key
	}
	if s.gate != nil {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	data := []byte(key)
	s.mu.Lock()
	s.store[key] = data
	s.mu.Unlock()
	return data, nil
}

func (s *fakeSource) fetchCounts() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.fetches))
	for k, v := range s.fetches {
		out[k] = v
	}
	return out
}

func (r *Reader) streams() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.next)
}

// TestReaderOneFetchPerBlock: K concurrent sequential readers of one
// file, with the prefetcher running ahead of them, cost exactly one
// FetchBlock per block.
func TestReaderOneFetchPerBlock(t *testing.T) {
	t.Parallel()
	src := newFakeSource()
	r := NewReader(src, testBlockSize, 4, time.Minute)
	defer r.Close()
	fh := nfs3.FH3{Data: []byte("f")}
	const blocks, readers = 64, 8
	var wg sync.WaitGroup
	for k := 0; k < readers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := uint64(0); idx < blocks; idx++ {
				r.Advance(fh, idx, blocks)
				data, err := r.Read(context.Background(), fh, idx)
				if err != nil || string(data) != blockName(fh, idx) {
					t.Errorf("block %d: %q, %v", idx, data, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	r.Close() // drain prefetches still queued
	counts := src.fetchCounts()
	if len(counts) != blocks {
		t.Errorf("%d distinct blocks fetched, want %d", len(counts), blocks)
	}
	for key, n := range counts {
		if n != 1 {
			t.Errorf("block %s fetched %d times", key, n)
		}
	}
	if issued, _, _ := r.Stats(); issued == 0 {
		t.Error("sequential readers issued no prefetch")
	}
}

// TestReaderDemandJoinsPrefetch: a demand read of a block whose
// prefetch is still in flight waits for it instead of fetching again.
func TestReaderDemandJoinsPrefetch(t *testing.T) {
	t.Parallel()
	src := newFakeSource()
	src.gate = make(chan struct{})
	src.started = make(chan string, 8)
	r := NewReader(src, testBlockSize, 1, time.Minute)
	defer r.Close()
	fh := nfs3.FH3{Data: []byte("f")}
	src.store[blockName(fh, 0)] = []byte("b0")

	r.Advance(fh, 0, 2) // prefetches block 1, which blocks on the gate
	if key := <-src.started; key != blockName(fh, 1) {
		t.Fatalf("prefetch fetched %s", key)
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.Read(context.Background(), fh, 1)
		done <- err
	}()
	// The demand reader must be parked on the prefetch's flight, not
	// running a fetch of its own.
	select {
	case key := <-src.started:
		t.Fatalf("demand read started a second fetch of %s", key)
	case err := <-done:
		t.Fatalf("demand read returned before the fetch finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(src.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, _, shared := r.Stats(); shared != 1 {
		t.Errorf("shared = %d, want 1", shared)
	}
}

// TestReaderDetector: the first read of a file at block 0 counts as
// sequential, a seek resets the stream, readahead never runs past the
// last block, and cached blocks are skipped.
func TestReaderDetector(t *testing.T) {
	t.Parallel()
	src := newFakeSource()
	r := NewReader(src, testBlockSize, 2, time.Minute)
	fh := nfs3.FH3{Data: []byte("f")}
	const blocks = 10
	issuedAfter := func(idx uint64) uint64 {
		t.Helper()
		before, _, _ := r.Stats()
		r.Advance(fh, idx, blocks)
		after, shed, _ := r.Stats()
		if shed != 0 {
			t.Fatalf("hint shed with an idle pool")
		}
		return after - before
	}
	// Wait for each step's prefetches to land, so that the next step's
	// "already cached" skips are deterministic.
	landed := func(idxs ...uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for _, idx := range idxs {
			for !src.Contains(fh, idx) {
				if time.Now().After(deadline) {
					t.Fatalf("prefetch of block %d never landed", idx)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	if n := issuedAfter(0); n != 2 {
		t.Fatalf("first read at block 0 issued %d prefetches, want 2", n)
	}
	landed(1, 2)
	if n := issuedAfter(1); n != 1 { // 2 is cached
		t.Fatalf("second sequential read issued %d prefetches, want 1", n)
	}
	landed(3)
	if n := issuedAfter(5); n != 0 {
		t.Fatalf("a seek issued %d prefetches", n)
	}
	if n := issuedAfter(6); n != 2 { // the stream resumes after the seek
		t.Fatalf("read after the seek issued %d prefetches, want 2", n)
	}
	landed(7, 8)
	if n := issuedAfter(7); n != 1 { // 8 is cached
		t.Fatalf("issued %d prefetches, want 1", n)
	}
	landed(9)
	if n := issuedAfter(8); n != 0 { // 9 is cached and the last block
		t.Fatalf("issued %d prefetches near EOF, want 0", n)
	}
	if n := issuedAfter(9); n != 0 {
		t.Fatalf("issued %d prefetches at the last block", n)
	}
	r.Close()
	for key := range src.fetchCounts() {
		if key == blockName(fh, blocks) || key == blockName(fh, blocks+1) {
			t.Errorf("prefetched %s, past the end of the file", key)
		}
	}
	if n := r.streams(); n != 0 {
		t.Errorf("stream table holds %d entries after reading to the last block", n)
	}
}

// TestReaderShedsWhenSaturated: with every worker busy and the
// submission buffer full, further hints are dropped at once, not
// queued.
func TestReaderShedsWhenSaturated(t *testing.T) {
	t.Parallel()
	src := newFakeSource()
	src.gate = make(chan struct{})
	r := NewReader(src, testBlockSize, 2, time.Minute)
	const files = 10
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < files; i++ {
			r.Advance(nfs3.FH3{Data: []byte{byte('a' + i)}}, 0, 100)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Advance blocked on a saturated pool")
	}
	issued, shed, _ := r.Stats()
	// Two workers plus a buffer of two: at most four hints are taken.
	if issued+shed != 2*files || issued > 4 || shed < 2*files-4 {
		t.Errorf("issued %d, shed %d of %d hints", issued, shed, 2*files)
	}
	close(src.gate)
	r.Close()
}

// TestReaderStreamTableBounded: reading many small files to their end
// leaves no per-file state behind, and Forget drops the state of a file
// abandoned mid-stream.
func TestReaderStreamTableBounded(t *testing.T) {
	t.Parallel()
	src := newFakeSource()
	r := NewReader(src, testBlockSize, 2, time.Minute)
	defer r.Close()
	ctx := context.Background()
	for i := 0; i < 1000; i++ {
		fh := nfs3.FH3{Data: []byte(fmt.Sprintf("file-%d", i))}
		blocks := uint64(1 + i%3)
		for idx := uint64(0); idx < blocks; idx++ {
			if _, err := r.Read(ctx, fh, idx); err != nil {
				t.Fatal(err)
			}
			r.Advance(fh, idx, blocks)
		}
	}
	if n := r.streams(); n != 0 {
		t.Fatalf("stream table holds %d entries after 1000 files were read to EOF", n)
	}
	half := nfs3.FH3{Data: []byte("half-read")}
	r.Advance(half, 0, 8)
	if n := r.streams(); n != 1 {
		t.Fatalf("stream table holds %d entries mid-stream, want 1", n)
	}
	r.Forget(half)
	if n := r.streams(); n != 0 {
		t.Fatalf("stream table holds %d entries after Forget", n)
	}
}

// TestReaderDisabled: depth <= 0 keeps the single-flight fetch and
// drops everything else.
func TestReaderDisabled(t *testing.T) {
	t.Parallel()
	src := newFakeSource()
	r := NewReader(src, testBlockSize, -1, time.Minute)
	defer r.Close()
	fh := nfs3.FH3{Data: []byte("f")}
	r.Advance(fh, 0, 8)
	if _, err := r.Read(context.Background(), fh, 0); err != nil {
		t.Fatal(err)
	}
	if issued, shed, _ := r.Stats(); issued != 0 || shed != 0 || r.streams() != 0 {
		t.Errorf("disabled reader issued %d, shed %d, tracks %d streams", issued, shed, r.streams())
	}
}

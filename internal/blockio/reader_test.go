package blockio

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/nfs3"
	"repro/internal/singleflight"
)

// fakeSource is a Source over a map: every FetchBlock is counted per
// (file, block) and, when gate is set, held until the gate opens.
type fakeSource struct {
	gate chan struct{}

	mu      sync.Mutex
	store   map[string][]byte
	fetches map[string]int
	landed  uint64      // FetchBlocks that stored their block
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
	s.landed++
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
	return len(r.byFile)
}

// TestReaderOneFetchPerBlock: K concurrent sequential readers of one
// file, with the prefetcher running ahead of them, cost exactly one
// FetchBlock per block.
func TestReaderOneFetchPerBlock(t *testing.T) {
	t.Parallel()
	src := newFakeSource()
	r := NewReader(src, testBlockSize, 4)
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
	r := NewReader(src, testBlockSize, 1)
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
	r := NewReader(src, testBlockSize, 2)
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
	r := NewReader(src, testBlockSize, 2)
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
	r := NewReader(src, testBlockSize, 2)
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
	r := NewReader(src, testBlockSize, -1)
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

// stream returns fh's stream state and whether it has one.
func (r *Reader) stream(fh nfs3.FH3) (stream, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.byFile[string(fh.Data)]
	return s, ok
}

// advanceIssued calls Advance, waits for the prefetches it issued to
// land, and returns how many it issued; it fails the test if a hint
// was shed. Waiting keeps the pool idle for the next call. Every fetch
// from src must be one of r's prefetches.
func advanceIssued(t *testing.T, r *Reader, src *fakeSource, fh nfs3.FH3, idx, blocks uint64) uint64 {
	t.Helper()
	before, shedBefore, _ := r.Stats()
	r.Advance(fh, idx, blocks)
	after, shed, _ := r.Stats()
	if shed != shedBefore {
		t.Fatalf("read of block %d shed %d hints with an idle pool", idx, shed-shedBefore)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		src.mu.Lock()
		landed := src.landed
		src.mu.Unlock()
		if landed == after {
			return after - before
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d prefetches landed", landed, after)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// checkFetchedOnce fails the test unless exactly the blocks want of fh
// were fetched, each once.
func checkFetchedOnce(t *testing.T, src *fakeSource, fh nfs3.FH3, want []uint64) {
	t.Helper()
	counts := src.fetchCounts()
	if len(counts) != len(want) {
		t.Errorf("%d blocks fetched, want %d", len(counts), len(want))
	}
	for _, idx := range want {
		if n := counts[blockName(fh, idx)]; n != 1 {
			t.Errorf("block %d fetched %d times", idx, n)
		}
	}
}

// blockRange returns the block indexes [from, to).
func blockRange(from, to uint64) []uint64 {
	var out []uint64
	for idx := from; idx < to; idx++ {
		out = append(out, idx)
	}
	return out
}

// TestReaderRamp: one sequential pass with an idle pool opens a window
// of 4 blocks and doubles it on each read up to the cap, 4, 8, 16, 32,
// issuing each block once: blocks-1 prefetches in all.
func TestReaderRamp(t *testing.T) {
	t.Parallel()
	src := newFakeSource()
	r := NewReader(src, testBlockSize, 32)
	defer r.Close()
	fh := nfs3.FH3{Data: []byte("f")}
	const blocks = 64
	var total uint64
	for idx, window := range []uint64{4, 8, 16, 32, 32, 32} {
		total += advanceIssued(t, r, src, fh, uint64(idx), blocks)
		if s, _ := r.stream(fh); s.window != window || total != uint64(idx)+window {
			t.Fatalf("after block %d: window %d, %d issued; want %d, %d", idx, s.window, total, window, uint64(idx)+window)
		}
	}
	for idx := uint64(6); idx < blocks; idx++ {
		total += advanceIssued(t, r, src, fh, idx, blocks)
	}
	if total != blocks-1 {
		t.Errorf("a pass over %d blocks issued %d prefetches, want %d", blocks, total, blocks-1)
	}
	r.Close()
	checkFetchedOnce(t, src, fh, blockRange(1, blocks))
}

// TestReaderReorderedArrivals: reads that reach the Reader out of
// order, as a client's own prefetches do, keep the stream: block 0
// after 1 and 2, and 4 before 3, neither reset it nor issue a block
// twice.
func TestReaderReorderedArrivals(t *testing.T) {
	t.Parallel()
	src := newFakeSource()
	r := NewReader(src, testBlockSize, 32)
	defer r.Close()
	fh := nfs3.FH3{Data: []byte("f")}
	const blocks = 64
	var total uint64
	for _, step := range []struct{ idx, issued, window uint64 }{
		{1, 0, 0},  // no entry and not block 0: a seek
		{2, 4, 4},  // the stream begins: 3..6
		{0, 0, 4},  // the client's block 0 arrives late
		{4, 6, 8},  // a hit past next: 7..12
		{3, 0, 8},  // 3 arrives after 4
		{5, 9, 16}, // 13..21
	} {
		n := advanceIssued(t, r, src, fh, step.idx, blocks)
		total += n
		if s, _ := r.stream(fh); n != step.issued || s.window != step.window {
			t.Fatalf("read of block %d issued %d with window %d, want %d with window %d", step.idx, n, s.window, step.issued, step.window)
		}
	}
	for idx := uint64(6); idx < blocks; idx++ {
		total += advanceIssued(t, r, src, fh, idx, blocks)
	}
	if total != blocks-3 {
		t.Errorf("issued %d prefetches, want %d", total, blocks-3)
	}
	r.Close()
	checkFetchedOnce(t, src, fh, blockRange(3, blocks))
}

// TestReaderRereadFromStart: a pass that stops mid-file leaves its
// stream behind; a second pass from block 0, over blocks since dropped
// from the store, starts a fresh stream and prefetches them again
// instead of taking its reads for stragglers of the old one.
func TestReaderRereadFromStart(t *testing.T) {
	t.Parallel()
	src := newFakeSource()
	r := NewReader(src, testBlockSize, 32)
	defer r.Close()
	fh := nfs3.FH3{Data: []byte("f")}
	const blocks = 64
	for idx := uint64(0); idx < 10; idx++ {
		advanceIssued(t, r, src, fh, idx, blocks)
	}
	if s, _ := r.stream(fh); s.next != 10 || s.ahead != 42 {
		t.Fatalf("first pass left stream %+v", s)
	}
	src.mu.Lock()
	clear(src.store)
	clear(src.fetches)
	src.mu.Unlock()
	var total uint64
	for idx := uint64(0); idx < blocks; idx++ {
		n := advanceIssued(t, r, src, fh, idx, blocks)
		if idx == 0 && n != 4 {
			t.Fatalf("re-read of block 0 issued %d prefetches, want 4", n)
		}
		total += n
	}
	if total != blocks-1 {
		t.Errorf("second pass issued %d prefetches, want %d", total, blocks-1)
	}
	r.Close()
	checkFetchedOnce(t, src, fh, blockRange(1, blocks))
}

// TestReaderRetriesShedHint: a hint shed by a saturated pool stays
// with its stream, and the stream's next hit issues it.
func TestReaderRetriesShedHint(t *testing.T) {
	t.Parallel()
	src := newFakeSource()
	src.gate = make(chan struct{})
	src.started = make(chan string, 64)
	r := NewReader(src, testBlockSize, 4)
	defer r.Close()
	openGate := sync.OnceFunc(func() { close(src.gate) })
	defer openGate() // before Close, so that a failure does not hang it
	r.pool.Close()
	r.pool = singleflight.NewPool(1)
	other, fh := nfs3.FH3{Data: []byte("g")}, nfs3.FH3{Data: []byte("f")}
	const blocks = 16

	r.Advance(other, 0, 2) // the one worker blocks on the gate
	if key := <-src.started; key != blockName(other, 1) {
		t.Fatalf("prefetch fetched %s", key)
	}
	r.Advance(fh, 0, blocks) // 1 fills the buffer; 2..4 are shed
	if issued, shed, _ := r.Stats(); issued != 2 || shed != 3 {
		t.Fatalf("issued %d, shed %d; want 2, 3", issued, shed)
	}
	if s, _ := r.stream(fh); s.ahead != 2 {
		t.Fatalf("stream ahead at %d after shedding block 2", s.ahead)
	}
	openGate()
	deadline := time.Now().Add(5 * time.Second)
	for !src.Contains(fh, 1) {
		if time.Now().After(deadline) {
			t.Fatal("prefetch of block 1 never landed")
		}
		time.Sleep(time.Millisecond)
	}
	r.Advance(fh, 1, blocks) // a hit: the retry of 2 goes first
	r.Close()
	if n := src.fetchCounts()[blockName(fh, 2)]; n != 1 {
		t.Errorf("shed block 2 fetched %d times after the next hit, want 1", n)
	}
}

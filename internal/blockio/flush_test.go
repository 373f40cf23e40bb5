package blockio

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/nfs3"
)

// fakeWriter is a server, and the store of the blocks Flush sends it,
// as Flush sees them. verf(n) is the verifier the n-th call (WRITEs and
// COMMITs counted together, from 1) reports; every call and every
// FlushDone report is logged in order. A block's version is the number
// of times it has been read, so a FlushDone is logged as "durable" when
// it names the version last read and as "stale" otherwise.
type fakeWriter struct {
	verf      func(call int) byte
	committed uint32          // level UNSTABLE writes are acknowledged at
	failWrite map[string]bool // "fh/idx" -> the UNSTABLE write fails
	failSync  map[string]bool // "fh/idx" -> the FILE_SYNC re-send fails
	gone      map[string]bool // "fh/idx" -> the server reports the file gone
	missing   map[string]bool // "fh/idx" -> listed dirty, but dropped before read

	mu    sync.Mutex
	dirty map[string][]uint64
	reads map[string]uint64
	calls int
	log   []string
}

func (w *fakeWriter) DirtyList(fh nfs3.FH3) []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dirty[string(fh.Data)]
}

func (w *fakeWriter) ReadVersion(fh nfs3.FH3, idx uint64) ([]byte, uint64, bool) {
	key := blockName(fh, idx)
	if w.missing[key] {
		return nil, 0, false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.reads == nil {
		w.reads = make(map[string]uint64)
	}
	w.reads[key]++
	return []byte(key), w.reads[key], true
}

func (w *fakeWriter) FlushDone(fh nfs3.FH3, idx, ver uint64) {
	key := blockName(fh, idx)
	w.mu.Lock()
	defer w.mu.Unlock()
	if ver == w.reads[key] {
		w.log = append(w.log, "durable "+key)
	} else {
		w.log = append(w.log, "stale "+key)
	}
}

// files makes w the store of fbs's dirty blocks and returns their
// handles, to flush.
func (w *fakeWriter) files(fbs ...fileBlocks) []nfs3.FH3 {
	w.dirty = make(map[string][]uint64)
	var fhs []nfs3.FH3
	for _, fb := range fbs {
		w.dirty[fb.name] = fb.blocks
		fhs = append(fhs, nfs3.FH3{Data: []byte(fb.name)})
	}
	return fhs
}

func (w *fakeWriter) next(event string) Verifier {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.calls++
	w.log = append(w.log, event)
	v := byte(1)
	if w.verf != nil {
		v = w.verf(w.calls)
	}
	return Verifier{v}
}

func (w *fakeWriter) WriteBlock(_ context.Context, fh nfs3.FH3, idx uint64, data []byte, stable uint32) (uint32, Verifier, error) {
	key := blockName(fh, idx)
	if string(data) != key {
		return 0, Verifier{}, fmt.Errorf("block %s sent as %q", key, data)
	}
	if w.gone[key] {
		return 0, Verifier{}, ErrGone
	}
	if stable == nfs3.FileSync {
		verf := w.next("sync " + key)
		if w.failSync[key] {
			return 0, verf, errors.New("sync write failed")
		}
		return nfs3.FileSync, verf, nil
	}
	verf := w.next("write " + key)
	if w.failWrite[key] {
		return 0, verf, errors.New("write failed")
	}
	return w.committed, verf, nil
}

func (w *fakeWriter) Commit(_ context.Context, fh nfs3.FH3) (Verifier, error) {
	return w.next("commit " + string(fh.Data)), nil
}

// events returns the logged events with the given prefix, sorted.
func (w *fakeWriter) events(prefix string) []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []string
	for _, e := range w.log {
		if len(e) > len(prefix) && e[:len(prefix)] == prefix {
			out = append(out, e[len(prefix):])
		}
	}
	sort.Strings(out)
	return out
}

// position returns the index of event in the log, or -1.
func (w *fakeWriter) position(event string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, e := range w.log {
		if e == event {
			return i
		}
	}
	return -1
}

type fileBlocks struct {
	name   string
	blocks []uint64
}

func fileOf(name string, blocks ...uint64) fileBlocks { return fileBlocks{name, blocks} }

func equal(a, b []string) bool { return fmt.Sprint(a) == fmt.Sprint(b) }

// TestFlushCommitsOncePerFile: the plain case. Every block goes out
// UNSTABLE, each file gets exactly one COMMIT after its last write, and
// a block is durable only after that COMMIT.
func TestFlushCommitsOncePerFile(t *testing.T) {
	t.Parallel()
	w := &fakeWriter{}
	mismatches, err := Flush(context.Background(), 4, w, w.files(fileOf("a", 0, 1, 2), fileOf("b", 7), fileOf("empty")), w)
	if err != nil || mismatches != 0 {
		t.Fatalf("Flush = %d, %v", mismatches, err)
	}
	if got := w.events("commit "); !equal(got, []string{"a", "b"}) {
		t.Errorf("commits %v", got)
	}
	if got := w.events("durable "); !equal(got, []string{"a/0", "a/1", "a/2", "b/7"}) {
		t.Errorf("durable %v", got)
	}
	if got := w.events("sync "); len(got) != 0 {
		t.Errorf("FILE_SYNC re-sends without a verifier change: %v", got)
	}
	for _, b := range []string{"a/0", "a/1", "a/2"} {
		if w.position("durable "+b) < w.position("commit a") || w.position("write "+b) > w.position("commit a") {
			t.Errorf("block %s: write, COMMIT and durable report out of order: %v", b, w.log)
		}
	}
}

// TestFlushVerifierMismatch: a verifier that changes between two
// WRITEs, or between the last WRITE and the COMMIT, means the server
// restarted: every written block is re-sent FILE_SYNC, and reported
// durable only after its re-send succeeds.
func TestFlushVerifierMismatch(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name   string
		flipAt int // first call that sees the new verifier
	}{
		{"between two WRITEs", 3},
		{"between the last WRITE and COMMIT", 5},
	} {
		w := &fakeWriter{verf: func(call int) byte {
			if call >= tc.flipAt {
				return 2
			}
			return 1
		}}
		// Width 1 keeps the call order fixed: four writes, then COMMIT.
		mismatches, err := Flush(context.Background(), 1, w, w.files(fileOf("f", 0, 1, 2, 3)), w)
		if err != nil || mismatches != 1 {
			t.Fatalf("%s: Flush = %d, %v", tc.name, mismatches, err)
		}
		all := []string{"f/0", "f/1", "f/2", "f/3"}
		if got := w.events("sync "); !equal(got, all) {
			t.Errorf("%s: re-sent %v, want every written block", tc.name, got)
		}
		if got := w.events("durable "); !equal(got, all) {
			t.Errorf("%s: durable %v", tc.name, got)
		}
		for _, b := range all {
			if w.position("durable "+b) < w.position("sync "+b) {
				t.Errorf("%s: block %s reported durable before its FILE_SYNC re-send", tc.name, b)
			}
		}
	}
}

// TestFlushResendFailure: a block whose FILE_SYNC re-send fails is not
// durable; the others of the file still are.
func TestFlushResendFailure(t *testing.T) {
	t.Parallel()
	w := &fakeWriter{
		verf:     func(call int) byte { return byte(call) }, // never the same twice
		failSync: map[string]bool{"f/1": true},
	}
	mismatches, err := Flush(context.Background(), 2, w, w.files(fileOf("f", 0, 1, 2)), w)
	if err == nil || mismatches != 1 {
		t.Fatalf("Flush = %d, %v; want the re-send error", mismatches, err)
	}
	if got := w.events("durable "); !equal(got, []string{"f/0", "f/2"}) {
		t.Errorf("durable %v", got)
	}
}

// TestFlushFailedWrite: a failed WRITE means no COMMIT for that file
// and nothing of it reported durable — not even the blocks whose
// UNSTABLE writes succeeded; other files are unaffected.
func TestFlushFailedWrite(t *testing.T) {
	t.Parallel()
	w := &fakeWriter{failWrite: map[string]bool{"bad/1": true}}
	_, err := Flush(context.Background(), 3, w, w.files(fileOf("bad", 0, 1, 2), fileOf("good", 0, 1)), w)
	if err == nil {
		t.Fatal("Flush over a failing WRITE reported success")
	}
	if got := w.events("commit "); !equal(got, []string{"good"}) {
		t.Errorf("commits %v, want only the healthy file", got)
	}
	if got := w.events("durable "); !equal(got, []string{"good/0", "good/1"}) {
		t.Errorf("durable %v", got)
	}
}

// TestFlushFileSyncReplies: writes the server acknowledges FILE_SYNC
// are durable at once and need no COMMIT at all. A block that has gone,
// at the server or from the store, is neither failed nor durable.
func TestFlushFileSyncReplies(t *testing.T) {
	t.Parallel()
	w := &fakeWriter{committed: nfs3.FileSync, gone: map[string]bool{"f/2": true}, missing: map[string]bool{"f/4": true}}
	mismatches, err := Flush(context.Background(), 4, w, w.files(fileOf("f", 0, 1, 2, 3, 4)), w)
	if err != nil || mismatches != 0 {
		t.Fatalf("Flush = %d, %v", mismatches, err)
	}
	if got := w.events("commit "); len(got) != 0 {
		t.Errorf("COMMIT sent after FILE_SYNC replies: %v", got)
	}
	if got := w.events("durable "); !equal(got, []string{"f/0", "f/1", "f/3"}) {
		t.Errorf("durable %v", got)
	}
}

// gatedWriter holds every UNSTABLE write until width of them are in
// flight at once (or the context ends), recording the peak number of
// concurrent WriteBlock calls. The gate opens a moment after the
// width-th call arrives, so a call past the bound has time to show.
type gatedWriter struct {
	fakeWriter
	width int
	open  chan struct{}

	gmu          sync.Mutex
	active, peak int
}

func (w *gatedWriter) WriteBlock(ctx context.Context, fh nfs3.FH3, idx uint64, data []byte, stable uint32) (uint32, Verifier, error) {
	w.gmu.Lock()
	w.active++
	if w.active > w.peak {
		if w.peak++; w.peak == w.width {
			time.AfterFunc(20*time.Millisecond, func() { close(w.open) })
		}
	}
	w.gmu.Unlock()
	defer func() {
		w.gmu.Lock()
		w.active--
		w.gmu.Unlock()
	}()
	select {
	case <-w.open:
	case <-ctx.Done():
		return 0, Verifier{}, ctx.Err()
	}
	return w.fakeWriter.WriteBlock(ctx, fh, idx, data, stable)
}

// TestFlushWidth: Flush keeps exactly width writes in flight. Over 64
// blocks at width 32, the gate opens only once 32 WriteBlock calls
// wait together, no call ever makes it 33, and the file still gets
// exactly one COMMIT with every block durable after it.
func TestFlushWidth(t *testing.T) {
	t.Parallel()
	const width, blocks = 32, 64
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w := &gatedWriter{width: width, open: make(chan struct{})}
	idxs := make([]uint64, blocks)
	for i := range idxs {
		idxs[i] = uint64(i)
	}
	if _, err := Flush(ctx, width, w, w.files(fileOf("f", idxs...)), w); err != nil {
		t.Fatalf("Flush: %v (peak %d writes in flight)", err, w.peak)
	}
	if w.peak != width {
		t.Errorf("peak %d writes in flight, want %d", w.peak, width)
	}
	if got := w.events("commit "); !equal(got, []string{"f"}) {
		t.Errorf("commits %v, want one", got)
	}
	if got := w.events("durable "); len(got) != blocks {
		t.Errorf("%d blocks durable, want %d", len(got), blocks)
	}
}
